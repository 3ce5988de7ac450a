"""Tests for gapped x-drop extension (repro.align.gapped)."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.align.gapped import (
    batch_gapped_extend,
    gapped_extend_ref,
)
from repro.align.scoring import ScoringScheme
from repro.data.synthetic import mutate, random_dna
from repro.io.bank import Bank


def banks_for(s1: str, s2: str):
    return Bank.from_strings([("a", s1)]), Bank.from_strings([("b", s2)])


def batch_tuple(res, i=0):
    return (
        int(res.score[i]),
        int(res.consumed1[i]),
        int(res.consumed2[i]),
        int(res.matches[i]),
        int(res.mismatches[i]),
        int(res.gap_columns[i]),
        int(res.gap_openings[i]),
        int(res.min_dd[i]),
        int(res.max_dd[i]),
    )


def ref_tuple(ref):
    return (
        ref.score,
        ref.consumed1,
        ref.consumed2,
        ref.matches,
        ref.mismatches,
        ref.gap_columns,
        ref.gap_openings,
        ref.min_dd,
        ref.max_dd,
    )


class TestScalarReference:
    def test_perfect_match_right(self, scoring):
        core = "ACGGTCAGTCAGGCATGCAT"
        b1, b2 = banks_for(core, core)
        ref = gapped_extend_ref(b1.seq, b2.seq, 1, 1, +1, scoring)
        assert ref.score == len(core)
        assert ref.consumed1 == ref.consumed2 == len(core)
        assert ref.matches == len(core)
        assert ref.gap_columns == 0

    def test_perfect_match_left(self, scoring):
        core = "ACGGTCAGTCAGGCATGCAT"
        b1, b2 = banks_for(core, core)
        end = 1 + len(core)
        ref = gapped_extend_ref(b1.seq, b2.seq, end, end, -1, scoring)
        assert ref.score == len(core)
        assert ref.consumed1 == len(core)

    def test_empty_extension_into_junk(self, rng, scoring):
        b1, b2 = banks_for("A" * 30, "C" * 30)
        ref = gapped_extend_ref(b1.seq, b2.seq, 1, 1, +1, scoring)
        assert ref.score == 0
        assert ref.consumed1 == 0 and ref.consumed2 == 0

    def test_single_gap_detected(self, rng, scoring):
        core = random_dna(rng, 60)
        gapped = core[:30] + core[33:]  # 3-nt deletion in seq2
        b1, b2 = banks_for(core, gapped)
        ref = gapped_extend_ref(b1.seq, b2.seq, 1, 1, +1, scoring)
        assert ref.gap_columns == 3
        # Under LINEAR gap costs a 3-column gap may legally split across
        # accidental matches at identical score, so openings is 1..3.
        assert 1 <= ref.gap_openings <= 3
        assert ref.min_dd == -3
        assert ref.score == 57 - ScoringScheme().gap_open * 3

    def test_never_crosses_separator(self, rng, scoring):
        b = Bank.from_strings([("a", random_dna(rng, 40)), ("b", random_dna(rng, 40))])
        core = b.sequence_str(0)
        other = Bank.from_strings([("c", core + core)])
        # extension along the identical prefix must stop at sequence end
        ref = gapped_extend_ref(b.seq, other.seq, 1, 1, +1, scoring)
        assert ref.consumed1 <= 40

    def test_direction_validation(self, scoring):
        b1, b2 = banks_for("ACGT", "ACGT")
        with pytest.raises(ValueError):
            gapped_extend_ref(b1.seq, b2.seq, 1, 1, 0, scoring)


class TestBatchAgainstScalar:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_random_homology_parity(self, seed):
        rng = np.random.default_rng(seed)
        core = random_dna(rng, 100)
        mut = mutate(rng, core, sub_rate=0.06, indel_rate=0.02)
        s1 = random_dna(rng, 25) + core + random_dna(rng, 25)
        s2 = random_dna(rng, 30) + mut + random_dna(rng, 20)
        b1, b2 = banks_for(s1, s2)
        sc = ScoringScheme()
        anchors = [
            (int(rng.integers(1, len(b1.seq) - 1)), int(rng.integers(1, len(b2.seq) - 1)), 1 if t % 2 else -1)
            for t in range(30)
        ]
        p1 = np.array([a[0] for a in anchors])
        p2 = np.array([a[1] for a in anchors])
        dirs = np.array([a[2] for a in anchors])
        res = batch_gapped_extend(b1.seq, b2.seq, p1, p2, dirs, sc)
        for i, (q1, q2, d) in enumerate(anchors):
            ref = gapped_extend_ref(b1.seq, b2.seq, q1, q2, d, sc)
            assert batch_tuple(res, i) == ref_tuple(ref), (i, q1, q2, d)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        match=st.integers(1, 3),
        mismatch=st.integers(1, 4),
        gap=st.integers(1, 6),
        xdrop=st.integers(1, 40),
        band=st.integers(0, 20),
        max_rows=st.sampled_from([1, 7, 60, 1 << 20]),
    )
    @example(seed=5, match=1, mismatch=4, gap=1, xdrop=30, band=16, max_rows=1 << 20)
    def test_varied_scoring_parity(
        self, seed, match, mismatch, gap, xdrop, band, max_rows
    ):
        # Multi-sequence banks with separators; >= 150 lanes of mixed
        # homology, so lanes retire at different rows and the active set
        # is compressed several times while the move trace is recorded.
        rng = np.random.default_rng(seed)
        cores = [random_dna(rng, int(rng.integers(20, 90))) for _ in range(4)]
        b1 = Bank.from_strings(
            [(f"a{t}", random_dna(rng, 10) + c + random_dna(rng, 8))
             for t, c in enumerate(cores)]
        )
        b2 = Bank.from_strings(
            [(f"b{t}", random_dna(rng, 6) + mutate(rng, c, 0.08, 0.04))
             for t, c in enumerate(cores)]
        )
        n1, n2 = len(b1.seq), len(b2.seq)
        anchors = [(0, 0, -1), (n1, n2, +1), (1, 1, +1), (n1 - 1, n2 - 1, -1)]
        for t in range(150):
            d = 1 if t % 2 else -1
            if t % 3:  # near a homologous diagonal
                c = int(rng.integers(4))
                q1 = int(b1.starts[c]) + 10 + int(rng.integers(0, len(cores[c])))
                q2 = int(b2.starts[c]) + 6 + (q1 - int(b1.starts[c]) - 10)
                q2 = min(max(q2 + int(rng.integers(-2, 3)), 0), n2)
            else:
                q1, q2 = int(rng.integers(0, n1 + 1)), int(rng.integers(0, n2 + 1))
            anchors.append((q1, q2, d))
        sc = ScoringScheme(
            match=match, mismatch=mismatch, gap_open=gap, xdrop_gapped=xdrop
        )
        p1 = np.array([a[0] for a in anchors])
        p2 = np.array([a[1] for a in anchors])
        dirs = np.array([a[2] for a in anchors])
        res = batch_gapped_extend(
            b1.seq, b2.seq, p1, p2, dirs, sc, band_radius=band, max_rows=max_rows
        )
        for i, (q1, q2, d) in enumerate(anchors):
            ref = gapped_extend_ref(
                b1.seq, b2.seq, q1, q2, d, sc, band_radius=band, max_rows=max_rows
            )
            assert batch_tuple(res, i) == ref_tuple(ref), (i, q1, q2, d)

    def test_no_leading_deletion_when_mismatch_exceeds_two_gaps(self):
        # With mismatch > 2 * gap, "gap in seq2 then gap in seq1" beats a
        # leading mismatch; the path would start with a column that has
        # consumed no seq2, which the oracle forbids.
        b1, b2 = banks_for("A" + "C" * 30, "G" + "C" * 30)
        sc = ScoringScheme(mismatch=11)
        res = batch_gapped_extend(
            b1.seq, b2.seq, np.array([1]), np.array([1]), +1, sc
        )
        ref = gapped_extend_ref(b1.seq, b2.seq, 1, 1, +1, sc)
        assert (ref.score, ref.mismatches, ref.gap_columns) == (19, 1, 0)
        assert batch_tuple(res) == ref_tuple(ref)

    def test_scalar_direction_broadcast(self, rng, scoring):
        core = random_dna(rng, 50)
        b1, b2 = banks_for(core, core)
        res = batch_gapped_extend(
            b1.seq, b2.seq, np.array([1, 5]), np.array([1, 5]), +1, scoring
        )
        assert res.score.shape == (2,)

    def test_empty_batch(self, scoring):
        b1, b2 = banks_for("ACGT", "ACGT")
        z = np.empty(0, dtype=np.int64)
        res = batch_gapped_extend(b1.seq, b2.seq, z, z, +1, scoring)
        assert res.score.shape == (0,)

    def test_direction_validation(self, scoring):
        b1, b2 = banks_for("ACGT", "ACGT")
        with pytest.raises(ValueError):
            batch_gapped_extend(
                b1.seq, b2.seq, np.array([1]), np.array([1]), np.array([2]), scoring
            )

    def test_annotation_identities(self, rng, scoring):
        # matches + mismatches + gap_columns == consumed1 + gap_left etc.
        core = random_dna(rng, 80)
        mut = mutate(rng, core, sub_rate=0.05, indel_rate=0.02)
        b1, b2 = banks_for(core, mut)
        res = batch_gapped_extend(
            b1.seq, b2.seq, np.array([1]), np.array([1]), +1, scoring
        )
        m, x, gc = int(res.matches[0]), int(res.mismatches[0]), int(res.gap_columns[0])
        c1, c2 = int(res.consumed1[0]), int(res.consumed2[0])
        # exact identities: columns consuming seq1 = m + x + gc_up
        gc_up = (gc + c1 - c2) // 2
        gc_left = gc - gc_up
        assert m + x + gc_up == c1
        assert m + x + gc_left == c2
        sc = scoring
        assert sc.match * m - sc.mismatch * x - sc.gap_open * gc == int(res.score[0])

    def test_band_limit_prevents_large_drift(self, rng):
        # A 40-nt insertion exceeds the default band: the extension must
        # stop rather than report a drifted alignment.
        sc = ScoringScheme()
        core = random_dna(rng, 60)
        s2 = core[:30] + random_dna(rng, 60) + core[30:]
        b1, b2 = banks_for(core, s2)
        res = batch_gapped_extend(
            b1.seq, b2.seq, np.array([1]), np.array([1]), +1, sc, band_radius=8
        )
        assert int(res.max_dd[0]) <= 8
        assert int(res.min_dd[0]) >= -8


class TestBatchMemory:
    #: tracemalloc peak of the annotation-plane kernel on this batch
    #: (2 598 lanes of the default-seed EST1 x EST2 pair).
    PARENT_PEAK_BYTES = 6_084_260

    def test_peak_below_annotated_kernel(self, monkeypatch):
        import repro.core.gapped_stage as gapped_stage
        from repro.core.engine import OrisEngine
        from repro.data import load_bank

        calls = []

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return batch_gapped_extend(*args, **kwargs)

        monkeypatch.setattr(gapped_stage, "batch_gapped_extend", spy)
        OrisEngine().compare(
            load_bank("EST1", seed=20080407), load_bank("EST2", seed=20080407)
        )
        (args, kwargs), = calls
        assert args[2].size == 2598
        tracemalloc.start()
        try:
            batch_gapped_extend(*args, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < self.PARENT_PEAK_BYTES


LANE_FIELDS = (
    "score",
    "consumed1",
    "consumed2",
    "matches",
    "mismatches",
    "gap_columns",
    "gap_openings",
    "min_dd",
    "max_dd",
)


def with_ns(rng, seq: str) -> str:
    """*seq* with a few positions turned into N."""
    chars = list(seq)
    for i in rng.integers(0, len(chars), size=max(len(chars) // 40, 1)):
        chars[int(i)] = "N"
    return "".join(chars)


class TestLaneSlices:
    """Each lane's DP depends only on its own anchor, so the step-3 batch
    can run as independent slices (the resilient runtime's workers)."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        n_seqs=st.integers(2, 4),
        n_parts=st.integers(1, 5),
        match=st.integers(1, 3),
        mismatch=st.integers(1, 4),
        gap=st.integers(1, 6),
        xdrop=st.integers(1, 40),
        band=st.integers(0, 20),
    )
    def test_partitions_equal_the_full_batch(
        self, seed, n_seqs, n_parts, match, mismatch, gap, xdrop, band
    ):
        from repro.core.parallel import gather_lane_slices, slice_lanes

        rng = np.random.default_rng(seed)
        cores = [random_dna(rng, int(rng.integers(20, 80))) for _ in range(n_seqs)]
        b1 = Bank.from_strings(
            [(f"a{t}", with_ns(rng, random_dna(rng, 8) + c)) for t, c in enumerate(cores)]
        )
        b2 = Bank.from_strings(
            [(f"b{t}", with_ns(rng, random_dna(rng, 5) + mutate(rng, c, 0.08, 0.04)))
             for t, c in enumerate(cores)]
        )
        n1, n2 = len(b1.seq), len(b2.seq)
        anchors = [(0, 0, -1), (n1, n2, +1), (1, 1, +1), (n1 - 1, n2 - 1, -1)]
        for t in range(60):
            c = int(rng.integers(n_seqs))
            q1 = int(b1.starts[c]) + int(rng.integers(0, int(b1.lengths[c]) + 1))
            q2 = int(b2.starts[c]) + int(rng.integers(0, int(b2.lengths[c]) + 1))
            anchors.append((q1, q2, 1 if rng.integers(2) else -1))
        p1, p2, dirs = (np.array(col, dtype=np.int64) for col in zip(*anchors))
        sc = ScoringScheme(
            match=match, mismatch=mismatch, gap_open=gap, xdrop_gapped=xdrop
        )

        def run(idx):
            return batch_gapped_extend(
                b1.seq, b2.seq, p1[idx], p2[idx], dirs[idx], sc, band_radius=band
            )

        full = run(np.arange(p1.size))
        labels = rng.integers(0, n_parts, size=p1.size)
        steps = 0
        for part in range(n_parts):
            idx = np.flatnonzero(labels == part)
            res = run(idx)
            for f in LANE_FIELDS:
                assert np.array_equal(getattr(res, f), getattr(full, f)[idx]), f
            steps += res.steps
        assert steps == full.steps

        # The runtime's round-robin slices, scattered back, are the batch.
        order, bounds = slice_lanes(p1.size, n_parts)
        gathered = gather_lane_slices(
            {s: run(order[lo:hi]) for s, (lo, hi) in enumerate(bounds)},
            order,
            bounds,
        )
        for f in LANE_FIELDS:
            assert np.array_equal(getattr(gathered, f), getattr(full, f)), f
        assert gathered.steps == full.steps

    def test_lane_view_selects_lanes(self):
        from repro.align import gapped

        assert gapped.LANE_FIELDS == LANE_FIELDS
        rng = np.random.default_rng(5)
        core = random_dna(rng, 60)
        b1 = Bank.from_strings([("a", core)])
        b2 = Bank.from_strings([("b", mutate(rng, core, 0.05, 0.02))])
        p1 = np.array([30, 30, 10, 50], dtype=np.int64)
        p2 = p1.copy()
        dirs = np.array([-1, 1, 1, -1], dtype=np.int64)
        full = batch_gapped_extend(b1.seq, b2.seq, p1, p2, dirs, ScoringScheme())
        view = full.lanes(slice(1, 3))
        picked = full.lanes(np.array([3, 0]))
        assert view.steps == picked.steps == 0
        for f in LANE_FIELDS:
            assert np.shares_memory(getattr(view, f), getattr(full, f))
            assert np.array_equal(getattr(view, f), getattr(full, f)[1:3])
            assert np.array_equal(getattr(picked, f), getattr(full, f)[[3, 0]])

    def test_slices_keep_both_sides_of_an_hsp(self):
        from repro.core.parallel import slice_lanes

        order, bounds = slice_lanes(14, 3)
        assert sorted(order.tolist()) == list(range(14))
        for lo, hi in bounds:
            lanes = order[lo:hi]
            assert set(lanes[lanes < 7]) == {i - 7 for i in lanes[lanes >= 7]}

    @pytest.mark.parametrize("n_workers", [1, 2, 3])
    def test_resilient_runs_equal_the_engine(self, est_pair, n_workers):
        from repro.core import OrisEngine, OrisParams
        from repro.runtime.scheduler import RuntimeConfig, compare_resilient

        serial = OrisEngine(OrisParams()).compare(*est_pair)
        res = compare_resilient(
            *est_pair, OrisParams(), RuntimeConfig(n_workers=n_workers)
        )
        assert [r.to_line() for r in res.records] == [
            r.to_line() for r in serial.records
        ]
        for name in (
            "step3.extensions",
            "step3.lane_rows",
            "step3.duplicate_alignments",
            "step3.alignments",
        ):
            assert res.metrics.value(name) == serial.metrics.value(name), name
