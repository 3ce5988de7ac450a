"""Tests for the resource governor (repro.runtime.governor)."""

import pytest

from repro.core.engine import WorkCounters
from repro.io.bank import Bank
from repro.obs import MetricsRegistry
from repro.runtime.errors import ResourceExhausted
from repro.runtime.governor import (
    BASELINE_BYTES,
    INDEX_BYTES_PER_NT,
    MIN_TILE_NT,
    estimate_checkpoint_bytes,
    estimate_comparison_bytes,
    estimate_index_bytes,
    format_size,
    parse_size,
    plan_comparison,
    preflight_disk,
    release_free_heap,
    rss_peak_bytes,
    sample_rss,
)


def bank_of(n_nt: int) -> Bank:
    return Bank.from_strings([("s", "ACGT" * (n_nt // 4))])


class TestParseSize:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("4096", 4096),
            ("1K", 1024),
            ("1k", 1024),
            ("512M", 512 << 20),
            ("512MiB", 512 << 20),
            ("512MB", 512 << 20),
            ("2G", 2 << 30),
            ("1.5G", int(1.5 * (1 << 30))),
            ("1T", 1 << 40),
            (" 64 M ", 64 << 20),
        ],
    )
    def test_accepted(self, text, expected):
        assert parse_size(text) == expected

    def test_int_passthrough(self):
        assert parse_size(12345) == 12345

    @pytest.mark.parametrize("bad", ["", "abc", "-5M", "12X", "M"])
    def test_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_size(bad)

    @pytest.mark.parametrize("bad", [0, -1])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(ValueError):
            parse_size(bad)

    def test_format_size_round_trips_scale(self):
        assert format_size(1024) == "1.0KiB"
        assert format_size(512 << 20) == "512.0MiB"
        assert parse_size(format_size(2 << 30)) == 2 << 30


class TestEstimation:
    def test_index_estimate_scales_linearly(self):
        assert estimate_index_bytes(1000) == 1000 * INDEX_BYTES_PER_NT
        assert estimate_index_bytes(0) == 0
        assert estimate_index_bytes(-5) == 0

    def test_index_estimate_covers_measured_build(self):
        """The per-nt estimate is at least the traced peak of building a
        bank's filter mask, seed index and packed image, on a bank whose
        codes are nearly all distinct (the largest per-code tables)."""
        import tracemalloc

        import numpy as np

        from repro.data.synthetic import random_dna
        from repro.encoding.packed import PackedBank
        from repro.filters import make_filter_mask
        from repro.index import CsrSeedIndex

        rng = np.random.default_rng(20080407)
        bank = Bank.from_strings(
            [(f"s{i}", random_dna(rng, 25_000)) for i in range(8)]
        )
        tracemalloc.start()
        try:
            index = CsrSeedIndex(bank, 11, make_filter_mask(bank, "dust"))
            index.indexed_mask
            packed = PackedBank(bank.seq)
            _now, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert index.unique_codes.shape[0] > 0.9 * index.n_indexed
        assert packed.words.size > 0
        n = bank.seq.shape[0]
        assert estimate_index_bytes(n) >= peak + bank.seq.nbytes

    def test_comparison_estimate_includes_baseline(self):
        est = estimate_comparison_bytes(100, 200)
        assert est == BASELINE_BYTES + 300 * INDEX_BYTES_PER_NT

    def test_checkpoint_estimate_has_floor(self):
        assert estimate_checkpoint_bytes(0) == estimate_checkpoint_bytes(1)
        assert estimate_checkpoint_bytes(1000) > estimate_checkpoint_bytes(1)


class TestPlanComparison:
    def test_no_budget_is_monolithic(self):
        plan = plan_comparison(bank_of(400), bank_of(400), None)
        assert plan.mode == "monolithic"
        assert not plan.degraded
        assert plan.budget_bytes is None
        assert "unbounded" in plan.describe()

    def test_roomy_budget_is_monolithic(self):
        b1, b2 = bank_of(400), bank_of(400)
        plan = plan_comparison(b1, b2, 4 << 30)
        assert plan.mode == "monolithic"
        assert plan.planned_bytes == plan.estimated_bytes

    def test_tight_budget_degrades_to_tiling(self):
        # Subject large enough that several tiles fit between MIN_TILE and
        # the full size; budget admits the query index plus a small tile.
        b1, b2 = bank_of(4_000), bank_of(800_000)
        budget = (
            BASELINE_BYTES
            + estimate_index_bytes(b1.size_nt)
            + estimate_index_bytes(120_000)
        )
        plan = plan_comparison(b1, b2, budget)
        assert plan.degraded
        assert plan.mode == "tiled"
        assert MIN_TILE_NT <= plan.tile_nt < b2.size_nt
        assert plan.planned_bytes <= budget
        assert plan.overlap <= plan.tile_nt // 4
        assert "tile_nt" in plan.describe()

    def test_tile_shrinks_as_budget_shrinks(self):
        b1, b2 = bank_of(4_000), bank_of(800_000)
        fixed = BASELINE_BYTES + estimate_index_bytes(b1.size_nt)
        roomy = plan_comparison(b1, b2, fixed + estimate_index_bytes(400_000))
        tight = plan_comparison(b1, b2, fixed + estimate_index_bytes(40_000))
        assert roomy.degraded and tight.degraded
        assert tight.tile_nt < roomy.tile_nt
        assert tight.tile_nt >= MIN_TILE_NT

    def test_hopeless_budget_raises(self):
        b1, b2 = bank_of(4_000), bank_of(800_000)
        with pytest.raises(ResourceExhausted, match="memory budget"):
            plan_comparison(b1, b2, 1 << 20)

    def test_planned_fits_budget_exactly_at_boundary(self):
        b1, b2 = bank_of(4_000), bank_of(800_000)
        budget = estimate_comparison_bytes(b1.size_nt, b2.size_nt)
        plan = plan_comparison(b1, b2, budget)
        assert plan.mode == "monolithic"
        plan = plan_comparison(b1, b2, budget - 1)
        assert plan.mode == "tiled"

    def test_overlap_respects_tiling_invariant(self):
        b1, b2 = bank_of(4_000), bank_of(800_000)
        fixed = BASELINE_BYTES + estimate_index_bytes(b1.size_nt)
        plan = plan_comparison(
            b1, b2, fixed + estimate_index_bytes(MIN_TILE_NT), overlap=50_000
        )
        assert plan.overlap < plan.tile_nt


class TestPreflightDisk:
    def test_existing_directory_passes(self, tmp_path):
        free = preflight_disk(tmp_path, 1)
        assert free > 0

    def test_nonexistent_directory_walks_up(self, tmp_path):
        free = preflight_disk(tmp_path / "not" / "yet" / "created", 1)
        assert free > 0

    def test_impossible_requirement_raises(self, tmp_path):
        with pytest.raises(ResourceExhausted, match="free"):
            preflight_disk(tmp_path, 1 << 60)


class TestRssSampling:
    def test_rss_peak_positive_on_linux(self):
        peak = rss_peak_bytes()
        # Any running CPython interpreter occupies several MiB.
        assert peak > 1 << 20

    def test_sample_rss_is_high_water_mark(self):
        registry = MetricsRegistry()
        first = sample_rss(registry)
        assert WorkCounters.of(registry).rss_peak_bytes == first
        # Pretend an earlier, higher peak.
        registry.set_gauge("resources.rss_peak_bytes", 1 << 50, mode="max")
        sample_rss(registry)
        assert WorkCounters.of(registry).rss_peak_bytes == 1 << 50

    def test_release_free_heap_keeps_live_data(self):
        import platform

        from repro.runtime.governor import _malloc_trim

        if platform.libc_ver()[0] == "glibc":
            assert _malloc_trim() is not None
        live = [bytes([i % 251]) * 100_000 for i in range(64)]
        junk = [bytearray(100_000) for _ in range(256)]
        del junk
        release_free_heap()
        assert all(b == bytes([i % 251]) * 100_000 for i, b in enumerate(live))

    def test_strand_merge_takes_max_not_sum(self):
        from repro.core.engine import ComparisonResult, _merge_results
        from repro.core.params import OrisParams

        params = OrisParams()

        def result(rss):
            metrics = MetricsRegistry()
            metrics.inc("step2.hit_pairs")
            metrics.set_gauge("resources.rss_peak_bytes", rss, mode="max")
            return ComparisonResult(
                records=[], alignments=[], params=params, metrics=metrics
            )

        merged = _merge_results(result(100), result(300), params)
        assert merged.counters.rss_peak_bytes == 300  # high-water mark
        assert merged.counters.n_pairs == 2  # everything else is additive
