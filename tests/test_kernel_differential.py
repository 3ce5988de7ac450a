"""Kernel differential harness: ``--kernel vector`` vs ``--kernel scalar``.

The vector (tile-sweep) kernel claims *byte-identical* step-2 output to
the scalar lane kernel -- same HSP boxes in the same order, same funnel
counters, same work accounting.  This module probes the claim three ways:

1. hypothesis-generated bank pairs swept across seed widths, scoring
   schemes, x-drop values, S1 floors, soft-masked/ambiguous flanks,
   ``max_occurrences`` caps and the cutoff ablation;
2. the same sweep under spaced- and subset-seed masks (code-equality
   cutoff semantics, span != weight);
3. hand-built adversarial layouts: a seed at position 0, a seed flush
   against the bank end, overlapping self-hits on the main diagonal, and
   all-``N`` windows -- plus direct lane-for-lane kernel comparisons;
4. calls with more lanes than ``_SCALAR_HEAD_LANES``, so the vector
   kernel's 8-column automaton head runs, lane for lane against the
   scalar kernel, and repeated or alternating calls in one process.
"""

from __future__ import annotations

import hashlib

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.align import vector_kernel
from repro.align.scoring import ScoringScheme
from repro.align.ungapped import DEFAULT_MAX_EXTEND, batch_extend, span_initial_score
from repro.align.vector_kernel import batch_extend_vector
from repro.core.engine import OrisEngine
from repro.core.params import OrisParams
from repro.data import load_bank
from repro.encoding import seed_codes
from repro.encoding.spaced import SpacedSeedMask, spaced_seed_codes
from repro.encoding.subset import SubsetSeedMask, subset_seed_codes
from repro.io.bank import Bank
from repro.io.m8 import format_m8
from repro.obs import MetricsRegistry, funnel_dict

# --------------------------------------------------------------------- #
# Engine-level differential: both kernels, identical tables + funnels
# --------------------------------------------------------------------- #

_NOISY = st.text(alphabet="ACGTacgtN", min_size=0, max_size=40)
_EXTRA = st.text(alphabet="ACGTacgtN", min_size=5, max_size=60)


@st.composite
def bank_pair(draw) -> tuple[list[tuple[str, str]], list[tuple[str, str]]]:
    """Two small banks sharing one (possibly mutated) core segment."""
    core = draw(st.text(alphabet="ACGT", min_size=10, max_size=50))
    s1 = draw(_NOISY) + core + draw(_NOISY)
    mut = list(core)
    n_mut = draw(st.integers(0, max(0, len(core) // 8)))
    for _ in range(n_mut):
        i = draw(st.integers(0, len(core) - 1))
        mut[i] = draw(st.sampled_from("ACGTN"))
    s2 = draw(_NOISY) + "".join(mut) + draw(_NOISY)
    seqs1 = [s1] + draw(st.lists(_EXTRA, max_size=2))
    seqs2 = [s2] + draw(st.lists(_EXTRA, max_size=2))
    return (
        [(f"q{i}", s) for i, s in enumerate(seqs1)],
        [(f"s{i}", s) for i, s in enumerate(seqs2)],
    )


def assert_kernels_identical(recs1, recs2, params: OrisParams) -> None:
    """Run steps 1-2 under both kernels; tables and funnels must match."""
    b1 = Bank.from_strings(recs1)
    b2 = Bank.from_strings(recs2)
    tables = {}
    funnels = {}
    for kernel in ("scalar", "vector"):
        registry = MetricsRegistry()
        table = OrisEngine(params.with_(kernel=kernel)).hsp_table(
            b1, b2, registry
        )
        tables[kernel] = table.columns()
        funnels[kernel] = funnel_dict(registry)
    for a, b in zip(tables["scalar"], tables["vector"]):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)
    assert funnels["scalar"] == funnels["vector"]


_PARAMS = {
    "pair": bank_pair(),
    "w": st.sampled_from([4, 5, 6]),
    "mismatch": st.sampled_from([2, 3]),
    "xdrop": st.integers(4, 16),
    "s1_extra": st.integers(1, 10),
    "max_occ": st.sampled_from([None, 2, 8]),
    "ordered": st.booleans(),
}


class TestEngineDifferential:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(**_PARAMS)
    def test_contiguous_seeds(
        self, pair, w, mismatch, xdrop, s1_extra, max_occ, ordered
    ):
        recs1, recs2 = pair
        scoring = ScoringScheme(match=1, mismatch=mismatch, xdrop_ungapped=xdrop)
        params = OrisParams(
            w=w,
            scoring=scoring,
            filter_kind="none",
            hsp_min_score=scoring.seed_score(w) + s1_extra,
            max_occurrences=max_occ,
            ordered_cutoff=ordered,
        )
        assert_kernels_identical(recs1, recs2, params)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        pair=bank_pair(),
        mask=st.sampled_from(["11011", "110101011", "##@-#", "#@#-@#"]),
        mismatch=st.sampled_from([2, 3]),
        xdrop=st.integers(4, 16),
        s1_extra=st.integers(1, 10),
    )
    def test_spaced_and_subset_seeds(self, pair, mask, mismatch, xdrop, s1_extra):
        recs1, recs2 = pair
        scoring = ScoringScheme(match=1, mismatch=mismatch, xdrop_ungapped=xdrop)
        kind = "subset_seed" if set(mask) & {"#", "@"} else "spaced_seed"
        weight = mask.count("1") or mask.count("#") + mask.count("@")
        params = OrisParams(
            scoring=scoring,
            filter_kind="none",
            hsp_min_score=scoring.seed_score(weight) + s1_extra,
            **{kind: mask},
        )
        assert_kernels_identical(recs1, recs2, params)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        pair=bank_pair(),
        w=st.sampled_from([4, 5]),
        xdrop=st.integers(4, 16),
    )
    def test_softmask_filter_active(self, pair, w, xdrop):
        # dust filtering exercises ok2/eligibility under both kernels.
        recs1, recs2 = pair
        scoring = ScoringScheme(match=1, mismatch=2, xdrop_ungapped=xdrop)
        params = OrisParams(
            w=w,
            scoring=scoring,
            filter_kind="dust",
            hsp_min_score=scoring.seed_score(w) + 2,
        )
        assert_kernels_identical(recs1, recs2, params)


# --------------------------------------------------------------------- #
# Adversarial layouts
# --------------------------------------------------------------------- #


def _params(w=5, **kw) -> OrisParams:
    scoring = ScoringScheme(match=1, mismatch=2, xdrop_ungapped=8)
    kw.setdefault("hsp_min_score", scoring.seed_score(w) + 1)
    return OrisParams(w=w, scoring=scoring, filter_kind="none", **kw)


class TestAdversarialLayouts:
    def test_seed_at_position_zero(self):
        # The shared word is the very first window of both banks, so the
        # left scan's first column is the leading separator.
        recs = [("a", "ACGTACGTAAAA")]
        assert_kernels_identical(recs, [("b", "ACGTACGTTTTT")], _params())

    def test_seed_at_bank_end(self):
        # Shared word flush against the trailing separator: the right
        # scan stops on its first column.
        recs1 = [("a", "TTTTTGCAGCAGC")]
        recs2 = [("b", "AAAAAGCAGCAGC")]
        assert_kernels_identical(recs1, recs2, _params())

    def test_overlapping_self_hits(self):
        # A tandem repeat against itself: every diagonal is packed with
        # overlapping hits, the ordered cutoff's worst case.
        recs = [("r", "ACGACGACGACGACGACGACG")]
        assert_kernels_identical(recs, recs, _params(w=4))

    def test_all_n_windows(self):
        # Ambiguity runs cannot seed and must stop extensions exactly at
        # the first N under both kernels.
        recs1 = [("a", "NNNNNACGTACGTANNNNNACGTACGTA")]
        recs2 = [("b", "ACGTACGTANNNNNNNACGTACGTANNN")]
        assert_kernels_identical(recs1, recs2, _params())

    def test_single_base_sequences(self):
        recs1 = [("a", "A"), ("a2", "ACGTAACGTA")]
        recs2 = [("b", "C"), ("b2", "ACGTAACGTA")]
        assert_kernels_identical(recs1, recs2, _params())


# --------------------------------------------------------------------- #
# Direct lane-for-lane kernel comparison
# --------------------------------------------------------------------- #


def _lane_parity_case(rng, alpha, w):
    n1 = int(rng.integers(w + 1, 300))
    n2 = int(rng.integers(w + 1, 300))
    b1 = Bank.from_strings([("a", "".join(rng.choice(list(alpha), size=n1)))])
    b2 = Bank.from_strings([("b", "".join(rng.choice(list(alpha), size=n2)))])
    codes1 = seed_codes(b1.seq, w)
    codes2 = seed_codes(b2.seq, w)
    sent = 4**w
    v1 = np.nonzero(codes1 < sent)[0]
    v2 = np.nonzero(codes2 < sent)[0]
    if v1.size == 0 or v2.size == 0:
        return None
    i1 = rng.choice(v1, size=min(64, v1.size * v2.size))
    i2 = rng.choice(v2, size=i1.size)
    same = codes1[i1] == codes2[i2]
    p1, p2 = i1[same], i2[same]
    if p1.size == 0:
        return None
    return b1.seq, b2.seq, codes1, p1, p2, codes1[p1]


def _assert_lane_parity(a, b):
    np.testing.assert_array_equal(a.kept, b.kept)
    np.testing.assert_array_equal(a.cut_left, b.cut_left)
    np.testing.assert_array_equal(a.cut_right, b.cut_right)
    # Cut lanes are dead in both kernels; their box coordinates are
    # unspecified.  Every surviving lane must agree exactly.
    k = a.kept
    for f in ("start1", "end1", "start2", "end2", "score"):
        np.testing.assert_array_equal(getattr(a, f)[k], getattr(b, f)[k], err_msg=f)
    assert a.steps == b.steps


class TestLaneParity:
    def test_batch_kernels_lane_for_lane(self):
        rng = np.random.default_rng(20080117)
        checked = 0
        for trial in range(40):
            w = int(rng.integers(4, 8))
            alpha = "ACGTN" if trial % 3 == 0 else "AC"
            case = _lane_parity_case(rng, alpha, w)
            if case is None:
                continue
            seq1, seq2, codes1, p1, p2, start_codes = case
            scoring = ScoringScheme(
                match=int(rng.integers(1, 4)),
                mismatch=int(rng.integers(1, 5)),
                xdrop_ungapped=int(rng.integers(3, 30)),
            )
            oc = bool(rng.integers(0, 2))
            me = int(rng.integers(1, 50)) if rng.integers(0, 2) else 1 << 30
            ok2 = (rng.random(seq2.shape[0]) > 0.3) if rng.integers(0, 2) else None
            a = batch_extend(
                seq1, seq2, codes1, p1, p2, start_codes, w, scoring,
                max_extend=me, ordered_cutoff=oc, ok2=ok2,
            )
            b = batch_extend_vector(
                seq1, seq2, codes1, p1, p2, start_codes, w, scoring,
                max_extend=me, ordered_cutoff=oc, ok2=ok2,
            )
            _assert_lane_parity(a, b)
            checked += 1
        assert checked >= 20  # the sweep must not degenerate


# --------------------------------------------------------------------- #
# The head: more lanes than _SCALAR_HEAD_LANES, lane for lane
# --------------------------------------------------------------------- #

_HEAD_LANES = vector_kernel._SCALAR_HEAD_LANES + 300


def _head_lanes(rng, codes1, codes2, sent, n_lanes):
    """Hit pairs (equal codes below ``sent``), bank-end windows included."""
    order2 = np.argsort(codes2, kind="stable")
    sorted2 = codes2[order2]
    v1 = np.nonzero(codes1 < sent)[0]
    lo = np.searchsorted(sorted2, codes1[v1], "left")
    hi = np.searchsorted(sorted2, codes1[v1], "right")
    v1, lo, hi = v1[hi > lo], lo[hi > lo], hi[hi > lo]
    if v1.size == 0:
        return None
    # The first and last windows of bank 1 ride along with random hits.
    pick = np.concatenate(
        [np.arange(min(4, v1.size)), v1.size - 1 - np.arange(min(4, v1.size)),
         rng.integers(0, v1.size, n_lanes)]
    )
    p2 = order2[lo[pick] + (rng.random(pick.size) * (hi - lo)[pick]).astype(np.int64)]
    p1 = v1[pick]
    return p1, p2


def _head_banks(rng, n_rate, sub_rate):
    """Bank 2 holds mutated copies of bank 1's pieces, so lanes run long."""
    alpha = np.array(list("ACGT"))

    def noisy(n):
        s = alpha[rng.integers(0, 4, n)]
        s[rng.random(n) < n_rate] = "N"
        return s

    seqs1 = [noisy(int(rng.integers(300, 900))) for _ in range(4)]
    seqs2 = []
    for s in seqs1:
        t = s.copy()
        sub = rng.random(t.size) < sub_rate
        t[sub] = alpha[rng.integers(0, 4, int(sub.sum()))]
        seqs2.append(np.concatenate([noisy(int(rng.integers(0, 40))), t]))
    b1 = Bank.from_strings([(f"a{i}", "".join(s)) for i, s in enumerate(seqs1)])
    b2 = Bank.from_strings([(f"b{i}", "".join(s)) for i, s in enumerate(seqs2)])
    return b1.seq, b2.seq


def _both_kernels(seq1, seq2, codes1, codes2, p1, p2, span, scoring, spaced, **kw):
    args = dict(kw)
    if spaced:
        args["codes2"] = codes2
        args["initial_scores"] = span_initial_score(seq1, seq2, p1, p2, span, scoring)
    lanes = (seq1, seq2, codes1, p1, p2, codes1[p1], span, scoring)
    return batch_extend(*lanes, **args), batch_extend_vector(*lanes, **args)


class TestHeadParity:
    """Calls big enough to run the 8-column automaton head."""

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        seed=st.integers(0, 2**32 - 1),
        model=st.sampled_from([4, 5, 6, 8, "11011", "1101011", "##@-#", "#@#-@#"]),
        match=st.integers(1, 3),
        mismatch=st.integers(1, 4),
        xdrop=st.integers(1, 48),
        max_extend=st.one_of(st.integers(1, 20), st.just(DEFAULT_MAX_EXTEND)),
        ordered=st.booleans(),
        with_ok2=st.booleans(),
        n_rate=st.sampled_from([0.0, 0.02, 0.25]),
        sub_rate=st.sampled_from([0.02, 0.1, 0.4]),
    )
    def test_head_lane_for_lane(
        self, seed, model, match, mismatch, xdrop, max_extend, ordered, with_ok2,
        n_rate, sub_rate,
    ):
        rng = np.random.default_rng(seed)
        seq1, seq2 = _head_banks(rng, n_rate, sub_rate)
        spaced = not isinstance(model, int)
        if not spaced:
            span, sent = model, 4**model
            codes1, codes2 = seed_codes(seq1, span), seed_codes(seq2, span)
        else:
            if set(model) <= {"0", "1"}:
                mask, codes_of = SpacedSeedMask(model), spaced_seed_codes
            else:
                mask, codes_of = SubsetSeedMask(model), subset_seed_codes
            span, sent = mask.span, mask.invalid_code()
            codes1, codes2 = codes_of(seq1, mask), codes_of(seq2, mask)
        lanes = _head_lanes(rng, codes1, codes2, sent, _HEAD_LANES)
        assume(lanes is not None)
        p1, p2 = lanes
        assert p1.size > vector_kernel._SCALAR_HEAD_LANES  # the head runs
        scoring = ScoringScheme(match=match, mismatch=mismatch, xdrop_ungapped=xdrop)
        ok2 = rng.random(seq2.shape[0]) > 0.3 if with_ok2 and not spaced else None
        a, b = _both_kernels(
            seq1, seq2, codes1, codes2, p1, p2, span, scoring, spaced,
            max_extend=max_extend, ordered_cutoff=ordered, ok2=ok2,
        )
        _assert_lane_parity(a, b)


class TestNoStateLeak:
    """Nothing one call leaves behind may change the next call's answer."""

    def test_alternating_scorings(self):
        rng = np.random.default_rng(20080408)
        seq1, seq2 = _head_banks(rng, 0.02, 0.1)
        codes1, codes2 = seed_codes(seq1, 6), seed_codes(seq2, 6)
        p1, p2 = _head_lanes(rng, codes1, codes2, 4**6, _HEAD_LANES)
        scorings = [
            ScoringScheme(match=1, mismatch=3, xdrop_ungapped=16),
            ScoringScheme(match=2, mismatch=1, xdrop_ungapped=7),
        ]
        for scoring in scorings * 3:
            _assert_lane_parity(
                *_both_kernels(
                    seq1, seq2, codes1, codes2, p1, p2, 6, scoring, False,
                )
            )

    def test_repeated_h10_like_comparison(self):
        def run(kernel="vector"):
            # Fresh banks every time, as a command-line run gets them.
            b1 = load_bank("H10", scale=0.002, seed=11)
            b2 = load_bank("BCT", scale=0.002, seed=11)
            res = OrisEngine(OrisParams(kernel=kernel)).compare(b1, b2)
            m8 = hashlib.sha256(format_m8(res.records).encode()).hexdigest()
            return m8, res.counters.ungapped_steps, res.metrics.value("step2.hit_pairs")

        first = run()
        assert first[2] > vector_kernel._SCALAR_HEAD_LANES  # the head runs
        assert run() == first
        assert run("scalar") == first
