"""Tests for the shared step-3 driver (repro.core.gapped_stage)."""

import numpy as np
import pytest

from repro.align.hsp import GappedAlignment, HSPTable
from repro.align.scoring import ScoringScheme
from repro.core.engine import WorkCounters
from repro.core.gapped_stage import _filter_contained, run_gapped_stage
from repro.data.synthetic import mutate, random_dna
from repro.io.bank import Bank


def make_case(seed=0, n_cores=4):
    """Banks with several implanted homologies + their HSP table."""
    rng = np.random.default_rng(seed)
    parts1, parts2 = [], []
    for _ in range(n_cores):
        core = random_dna(rng, 120)
        parts1.append(random_dna(rng, 60) + core)
        parts2.append(random_dna(rng, 40) + mutate(rng, core, 0.03, 0.002))
    b1 = Bank.from_strings([("q", "".join(parts1))])
    b2 = Bank.from_strings([("s", "".join(parts2))])
    # Build the HSP table through the engine's step 2.
    from repro.core import OrisEngine, OrisParams

    eng = OrisEngine(OrisParams())
    i1, i2 = eng._build_indexes(b1, b2)
    from repro.align.evalue import karlin_params

    thr = eng._resolve_hsp_min_score(b1, b2, karlin_params(ScoringScheme()))
    table = eng._ungapped_stage(i1, i2, thr, WorkCounters())
    return b1, b2, table


class TestSchedulingEquivalence:
    @pytest.mark.parametrize("sched", ["single"])
    def test_matches_serial_alignment_set(self, sched):
        b1, b2, table = make_case(3)
        sc = ScoringScheme()
        serial = run_gapped_stage(
            b1, b2, table, sc, 16, WorkCounters(), scheduling="serial"
        )
        other = run_gapped_stage(
            b1, b2, table, sc, 16, WorkCounters(), scheduling=sched
        )
        key = lambda a: (a.start1, a.end1, a.start2, a.end2)
        s_keys = {key(a) for a in serial}
        o_keys = {key(a) for a in other}
        assert len(s_keys ^ o_keys) <= max(1, len(s_keys) // 20)

    def test_unknown_scheduling_rejected(self):
        b1, b2, table = make_case(1)
        with pytest.raises(ValueError):
            run_gapped_stage(
                b1, b2, table, ScoringScheme(), 16, WorkCounters(),
                scheduling="florp",
            )

    def test_empty_table(self):
        b = Bank.from_strings([("a", "ACGTACGTACGT")])
        out = run_gapped_stage(
            b, b, HSPTable(), ScoringScheme(), 16, WorkCounters()
        )
        assert out == []

    def test_min_align_score_floor(self):
        b1, b2, table = make_case(5)
        sc = ScoringScheme()
        all_out = run_gapped_stage(b1, b2, table, sc, 16, WorkCounters())
        floored = run_gapped_stage(
            b1, b2, table, sc, 16, WorkCounters(), min_align_score=10_000
        )
        assert len(floored) == 0
        assert len(all_out) > 0


class TestFilterContained:
    def aln(self, s1, e1, s2, e2, score, dmin=None, dmax=None):
        d = s2 - s1
        return GappedAlignment(
            start1=s1, end1=e1, start2=s2, end2=e2, score=score,
            matches=score, mismatches=0, gap_columns=0, gap_openings=0,
            min_diag=dmin if dmin is not None else d,
            max_diag=dmax if dmax is not None else d,
        )

    def test_contained_dropped(self):
        big = self.aln(0, 100, 50, 150, 90)
        small = self.aln(10, 50, 60, 100, 30)
        c = WorkCounters()
        kept = _filter_contained([big, small], 16, c)
        assert kept == [big]
        assert c.n_skipped_contained == 1

    def test_disjoint_kept(self):
        a = self.aln(0, 100, 50, 150, 90)
        b = self.aln(500, 600, 700, 800, 80)
        kept = _filter_contained([a, b], 16, WorkCounters())
        assert set(map(id, kept)) == {id(a), id(b)}

    def test_same_box_different_diag_range_kept(self):
        # overlapping boxes on far diagonals must both survive
        a = self.aln(0, 100, 50, 150, 90)
        b = self.aln(0, 100, 500, 600, 80)
        kept = _filter_contained([a, b], 16, WorkCounters())
        assert len(kept) == 2

    def test_order_preserved(self):
        a = self.aln(0, 100, 50, 150, 90)
        b = self.aln(500, 600, 700, 800, 95)
        kept = _filter_contained([a, b], 16, WorkCounters())
        assert kept == [a, b]  # input (diagonal) order, not score order

    def test_empty(self):
        assert _filter_contained([], 16, WorkCounters()) == []


class TestDuplicateAlignments:
    def test_counted_on_est_pair_and_shown_in_funnel(self):
        # Default-seed EST1 x EST2: 294 of the 1 299 HSP extensions
        # rebuild an alignment another HSP already built.
        from repro.core.engine import OrisEngine
        from repro.data import load_bank
        from repro.obs import check_funnel, format_funnel, funnel_dict

        res = OrisEngine().compare(
            load_bank("EST1", seed=20080407), load_bank("EST2", seed=20080407)
        )
        f = funnel_dict(res.metrics)
        assert f["step3.duplicate_alignments"] == 294
        assert (
            f["step3.extensions"]
            - f["step3.skipped_contained"]
            - f["step3.duplicate_alignments"]
            == f["step3.alignments"]
        )
        assert check_funnel(res.metrics) == []
        assert "step3 duplicate alignments  294" in format_funnel(res.metrics)

    def test_serial_schedule_builds_no_duplicates(self):
        from repro.obs import MetricsRegistry

        b1, b2, table = make_case(3)
        registry = MetricsRegistry()
        run_gapped_stage(
            b1, b2, table, ScoringScheme(), 16, WorkCounters(),
            scheduling="serial", registry=registry,
        )
        assert registry.value("step3.duplicate_alignments") == 0
