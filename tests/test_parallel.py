"""Tests for the parallel step-2 decomposition (repro.core.parallel).

Whole comparisons run through :func:`repro.runtime.scheduler.compare_resilient`,
the one parallel entry point; the range-task unit of work is tested
directly.
"""

import pickle

import numpy as np
import pytest

from repro.core import OrisEngine, OrisParams
from repro.core.parallel import (
    build_range_payload,
    plan_ranges,
    publish_range_payload,
    run_range,
)
from repro.data import load_bank
from repro.index.seed_index import CommonCodes
from repro.runtime import faults
from repro.runtime.scheduler import RuntimeConfig, _run_task, compare_resilient


def _even_ranges(n_codes: int, n_tasks: int) -> list[tuple[int, int]]:
    """Equal-code-count contiguous ranges (any partition must do)."""
    bounds = np.linspace(0, n_codes, n_tasks + 1).astype(int)
    return [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]


def _uniform_common(n_codes: int) -> CommonCodes:
    """``n_codes`` codes with one occurrence in each bank (unit cost)."""
    ones = np.ones(n_codes, dtype=np.int64)
    return CommonCodes(
        codes=np.arange(n_codes, dtype=np.int64),
        start1=np.arange(n_codes, dtype=np.int64),
        count1=ones,
        start2=np.arange(n_codes, dtype=np.int64),
        count2=ones,
    )


class TestSplitCodeRanges:
    """The partition contract of the code-range planner (plan_ranges)."""

    def test_covers_everything_disjointly(self):
        ranges = plan_ranges(_uniform_common(100), 7, OrisParams())
        assert ranges[0][0] == 0
        assert ranges[-1][1] == 100
        for (a1, b1), (a2, b2) in zip(ranges, ranges[1:]):
            assert b1 == a2

    def test_more_workers_than_codes(self):
        ranges = plan_ranges(_uniform_common(3), 10, OrisParams())
        assert sum(b - a for a, b in ranges) == 3
        assert all(b > a for a, b in ranges)

    def test_single_worker(self):
        assert plan_ranges(_uniform_common(42), 1, OrisParams()) == [(0, 42)]

    def test_zero_codes(self):
        assert plan_ranges(_uniform_common(0), 4, OrisParams()) == []

    def test_one_code_many_workers(self):
        assert plan_ranges(_uniform_common(1), 64, OrisParams()) == [(0, 1)]

    def test_workers_equal_codes(self):
        ranges = plan_ranges(_uniform_common(5), 5, OrisParams())
        assert ranges == [(i, i + 1) for i in range(5)]

    def test_invalid_workers(self):
        with pytest.raises(ValueError):
            plan_ranges(_uniform_common(10), 0, OrisParams())


class TestPlanRanges:
    def _common(self, est_pair):
        engine = OrisEngine(OrisParams())
        i1, i2 = engine._build_indexes(*est_pair)
        return i1.common_codes(i2)

    def test_balanced_covers_code_space(self, est_pair):
        common = self._common(est_pair)
        ranges = plan_ranges(common, 8, OrisParams())
        assert ranges[0][0] == 0
        assert ranges[-1][1] == common.n_codes
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi == lo

    def test_records_cost_metrics(self, est_pair):
        from repro.obs import MetricsRegistry

        common = self._common(est_pair)
        registry = MetricsRegistry()
        plan_ranges(common, 8, OrisParams(), registry)
        assert "sched.chunk_cost_pairs" in registry
        assert registry.value("sched.chunk_cost_ratio") >= 1.0


class TestRangePayload:
    """The compact worker payload: picklable, and its tasks are pure."""

    def _payload(self, est_pair, params=None):
        from repro.align.evalue import karlin_params

        params = params or OrisParams()
        engine = OrisEngine(params)
        i1, i2 = engine._build_indexes(*est_pair)
        common = i1.common_codes(i2)
        threshold = engine._resolve_hsp_min_score(
            *est_pair, karlin_params(params.scoring)
        )
        return build_range_payload(i1, i2, common, params, threshold)

    def test_payload_survives_pickling(self, est_pair):
        payload = self._payload(est_pair)
        clone = pickle.loads(pickle.dumps(payload))
        n = payload.n_codes
        a = run_range(payload, 0, n // 2)
        b = run_range(clone, 0, n // 2)
        assert np.array_equal(a.start1, b.start1)
        assert np.array_equal(a.score, b.score)
        assert a.metrics == b.metrics

    def test_run_range_is_idempotent(self, est_pair):
        payload = self._payload(est_pair)
        n = payload.n_codes
        first = run_range(payload, n // 4, n // 2)
        second = run_range(payload, n // 4, n // 2)
        assert np.array_equal(first.start1, second.start1)
        assert np.array_equal(first.end1, second.end1)

    def test_ranges_partition_like_full_run(self, est_pair):
        payload = self._payload(est_pair)
        n = payload.n_codes
        whole = run_range(payload, 0, n)
        parts = [run_range(payload, lo, hi) for lo, hi in _even_ranges(n, 4)]
        assert np.array_equal(
            whole.start1, np.concatenate([p.start1 for p in parts])
        )
        pairs = [p.metrics.value("step2.hit_pairs") for p in parts]
        assert whole.metrics.value("step2.hit_pairs") == sum(pairs)

    def test_empty_range(self, est_pair):
        payload = self._payload(est_pair)
        res = run_range(payload, 3, 3)
        assert res.n_hsps == 0
        assert res.metrics.value("step2.hit_pairs") == 0


class TestTaskFaultHook:
    """Registry fault points at the scheduler's one task hook."""

    @pytest.fixture(autouse=True)
    def _disarm(self):
        yield
        faults.disarm()

    def test_fires_only_on_targeted_attempt(self, est_pair):
        payload = TestRangePayload()._payload(est_pair)
        faults.arm(f"task.error:1:0:{faults.task_key(0, 0)}")
        with pytest.raises(RuntimeError, match="task.error"):
            _run_task(payload, 0, 0, 0, 1)
        _run_task(payload, 0, 1, 0, 1)  # the retry is not targeted
        _run_task(payload, 1, 0, 0, 1)  # nor is another task
        assert faults.fired_counts()["task.error"] == 1

    def test_worker_points_never_fire_in_parent(self, est_pair, monkeypatch):
        payload = TestRangePayload()._payload(est_pair)
        injected: list[str] = []
        monkeypatch.setattr(faults, "inject", injected.append)
        faults.arm("worker.crash:1:0,worker.oom:1:0,worker.hang:1:0")
        res = _run_task(payload, 0, 0, 0, payload.n_codes)
        assert res.metrics.value("step2.hit_pairs") > 0
        assert injected == []
        _run_task(payload, 0, 0, 0, 1, in_worker=True)
        assert injected == ["worker.crash", "worker.oom", "worker.hang"]


#: The WorkCounters fields that describe the comparison's work (the
#: rest describe the runtime: retries, tiles, RSS).
WORK_FIELDS = (
    "n_pairs",
    "n_cut",
    "n_hsps",
    "ungapped_steps",
    "gapped_steps",
    "n_gapped_extensions",
    "n_skipped_contained",
    "n_alignments",
    "n_records",
    "n_waves",
)


def _lines(result) -> list[str]:
    return [r.to_line() for r in result.records]


class TestCompareParallel:
    """The paper's section-4 claim: seed-range partitioning is exact."""

    @pytest.mark.parametrize("n_workers", [2, 3, 5])
    def test_identical_to_sequential(self, est_pair, n_workers):
        seq = OrisEngine(OrisParams()).compare(*est_pair)
        par = compare_resilient(
            *est_pair, OrisParams(), RuntimeConfig(n_workers=n_workers)
        )
        assert _lines(par) == _lines(seq)
        # Every work field, lane steps and lane rows included: the task
        # registries merge into the same ledger a serial run keeps.
        for name in WORK_FIELDS:
            got, want = getattr(par.counters, name), getattr(seq.counters, name)
            assert got == want, name

    def test_single_worker_falls_back(self, est_pair):
        seq = OrisEngine(OrisParams()).compare(*est_pair)
        par = compare_resilient(*est_pair, OrisParams(), RuntimeConfig(n_workers=1))
        assert _lines(par) == _lines(seq)

    def test_both_strand_rejected(self, est_pair):
        with pytest.raises(ValueError):
            compare_resilient(*est_pair, OrisParams(strand="both"))

    def test_unordered_cutoff_rejected(self, est_pair):
        with pytest.raises(ValueError, match="ordered-seed cutoff"):
            compare_resilient(*est_pair, OrisParams(ordered_cutoff=False))

    def test_spawn_start_method_matches_sequential(self, est_pair):
        """No silent serial fallback off-fork: the pickled worker payload
        makes the spawn start method produce the exact same records."""
        seq = OrisEngine(OrisParams()).compare(*est_pair)
        with pytest.warns(RuntimeWarning, match="spawn"):
            par = compare_resilient(
                *est_pair,
                OrisParams(),
                RuntimeConfig(n_workers=2, start_method="spawn"),
            )
        assert _lines(par) == _lines(seq)

    def test_unavailable_start_method_warns_and_runs_serially(self, est_pair):
        seq = OrisEngine(OrisParams()).compare(*est_pair)
        with pytest.warns(RuntimeWarning, match="unavailable"):
            par = compare_resilient(
                *est_pair,
                OrisParams(),
                RuntimeConfig(n_workers=2, start_method="no-such-method"),
            )
        assert _lines(par) == _lines(seq)

    def test_pickled_payload_path_matches_sequential(self, est_pair):
        seq = OrisEngine(OrisParams()).compare(*est_pair)
        par = compare_resilient(
            *est_pair, OrisParams(), RuntimeConfig(n_workers=2, use_shm=False)
        )
        assert _lines(par) == _lines(seq)

    def test_shm_run_publishes_arena_bytes(self, est_pair):
        par = compare_resilient(*est_pair, OrisParams(), RuntimeConfig(n_workers=2))
        assert par.metrics.value("shm.bytes_published") > 0

    @pytest.mark.parametrize("n_workers", [1, 2])
    def test_exclude_self_matches_engine(self, n_workers):
        # EST1 against itself: every sequence's trivial self-hit must be
        # dropped on the parallel path exactly as in the serial engine.
        bank = load_bank("EST1")
        params = OrisParams(exclude_self=True)
        seq = OrisEngine(params).compare(bank, bank)
        par = compare_resilient(
            bank, bank, params, RuntimeConfig(n_workers=n_workers)
        )
        assert _lines(par) == _lines(seq)
        everything = OrisEngine(OrisParams()).compare(bank, bank)
        assert len(seq.records) < len(everything.records)


class TestShmPayload:
    """The zero-copy fan-out: spec-sized pickles, identical results."""

    def _payload(self, est_pair):
        from repro.align.evalue import karlin_params

        params = OrisParams()
        engine = OrisEngine(params)
        i1, i2 = engine._build_indexes(*est_pair)
        common = i1.common_codes(i2)
        threshold = engine._resolve_hsp_min_score(
            *est_pair, karlin_params(params.scoring)
        )
        return build_range_payload(i1, i2, common, params, threshold)

    def test_pickle_is_at_least_10x_smaller(self, est_pair):
        payload = self._payload(est_pair)
        arena, shm_payload = publish_range_payload(payload)
        try:
            concrete = len(pickle.dumps(payload))
            shared = len(pickle.dumps(shm_payload))
            assert concrete >= 10 * shared  # the ISSUE's acceptance bar
        finally:
            arena.close()

    def test_resolved_payload_runs_identically(self, est_pair):
        payload = self._payload(est_pair)
        arena, shm_payload = publish_range_payload(payload)
        try:
            n = payload.n_codes
            a = run_range(payload, 0, n // 2)
            b = run_range(shm_payload, 0, n // 2)
            assert np.array_equal(a.start1, b.start1)
            assert np.array_equal(a.score, b.score)
            assert a.metrics == b.metrics
        finally:
            arena.close()

    def test_views_are_read_only(self, est_pair):
        payload = self._payload(est_pair)
        arena, shm_payload = publish_range_payload(payload)
        try:
            resolved = shm_payload.resolve()
            with pytest.raises((ValueError, RuntimeError)):
                resolved.seq1[0] = 0
        finally:
            arena.close()
