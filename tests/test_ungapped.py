"""Tests for ungapped extension and the ordered-seed cutoff (paper 2.2).

Includes the paper's own worked example: the HSP anchored by AACTGTAA is
also reachable from AATTGCTC; since codeSEED(AACTGTAA) <
codeSEED(AATTGCTC), only the former may generate it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.scoring import ScoringScheme
from repro.align.ungapped import (
    CUTOFF,
    batch_extend,
    extend_hit_ref,
    extend_left_ref,
    extend_right_ref,
)
from repro.data.synthetic import mutate, random_dna
from repro.encoding import code_of_word, seed_codes
from repro.index import CsrSeedIndex
from repro.io.bank import Bank


def banks_for(s1: str, s2: str) -> tuple[Bank, Bank]:
    return Bank.from_strings([("a", s1)]), Bank.from_strings([("b", s2)])


def all_hits(b1: Bank, b2: Bank, w: int):
    """All (p1, p2, code) hit pairs, ascending code order."""
    i1, i2 = CsrSeedIndex(b1, w, None), CsrSeedIndex(b2, w, None)
    cc = i1.common_codes(i2)
    out = []
    for k in range(cc.n_codes):
        ps1 = i1.positions[cc.start1[k] : cc.start1[k] + cc.count1[k]]
        ps2 = i2.positions[cc.start2[k] : cc.start2[k] + cc.count2[k]]
        for a in ps1:
            for b in ps2:
                out.append((int(a), int(b), int(cc.codes[k])))
    return out, i1


class TestPaperExample:
    """Section 2.2's duplicate-HSP illustration."""

    S1 = "ATATGATGTGCAACTGTAATTGCTCAGATTCTATG"
    S2 = "ATATGATGTGCAACTGTAATTGCTCAGGTTCTCTG"

    def test_seed_order(self):
        assert code_of_word("AACTGTAA") < code_of_word("AATTGCTC")

    def test_higher_seed_cut_off(self):
        # The paper's illustrated pair: AATTGCTC must never generate the
        # HSP because AACTGTAA (lower code) anchors it too.
        b1, b2 = banks_for(self.S1, self.S2)
        codes1 = seed_codes(b1.seq, 8)
        p = 1 + self.S1.index("AATTGCTC")
        res = extend_hit_ref(b1.seq, b2.seq, codes1, p, p, 8, ScoringScheme())
        assert res is CUTOFF

    def test_generator_is_lowest_code_seed(self):
        # Going beyond the paper's prose: the one seed on diagonal 0 that
        # survives the cutoff must be the seed with the LOWEST code among
        # all fully-matched windows of the HSP.
        b1, b2 = banks_for(self.S1, self.S2)
        hits, i1 = all_hits(b1, b2, 8)
        sc = ScoringScheme()
        survivors = []
        for p1, p2, c in hits:
            if p2 - p1 != 0:
                continue
            r = extend_hit_ref(b1.seq, b2.seq, i1.cutoff_codes, p1, p2, 8, sc)
            if r is not None:
                survivors.append((p1, c))
        assert len(survivors) == 1
        diag0_codes = [c for p1, p2, c in hits if p2 - p1 == 0]
        assert survivors[0][1] == min(diag0_codes)

    def test_exactly_one_generator_for_the_hsp(self):
        b1, b2 = banks_for(self.S1, self.S2)
        hits, i1 = all_hits(b1, b2, 8)
        sc = ScoringScheme()
        kept = []
        for p1, p2, _c in hits:
            if p2 - p1 != 0:
                continue  # the duplicated HSP lives on diagonal 0
            r = extend_hit_ref(b1.seq, b2.seq, i1.cutoff_codes, p1, p2, 8, sc)
            if r is not None:
                kept.append(r)
        assert len(kept) == 1


class TestScalarSemantics:
    def test_lowest_seed_extends_fully(self):
        # The all-A seed has code 0: nothing can cut it, so a fully
        # matching core extends to the core boundary.
        core = "A" * 8 + "GCGTCGTGCATG"
        b1, b2 = banks_for("TTTT" + core + "CCC", "GGGG" + core + "TTT")
        codes1 = seed_codes(b1.seq, 8)
        p1 = p2 = 1 + 4
        sc = ScoringScheme()
        right = extend_right_ref(b1.seq, b2.seq, codes1, p1, p2, 8, int(codes1[p1]), sc)
        assert right is not CUTOFF
        assert right.offset == len(core) - 8
        assert right.score == sc.seed_score(8) + (len(core) - 8)

    def test_lower_word_inside_matched_run_cuts(self):
        # "AAAA" (code 0) fully matched left of the seed cuts the left
        # extension of any higher-code seed.
        s1 = "AAAA" + "GCGC" + "CCCC"
        s2 = "AAAA" + "GCGC" + "CCCC"
        b1, b2 = banks_for(s1, s2)
        codes1 = seed_codes(b1.seq, 4)
        p = 1 + 8  # the CCCC seed
        sc = ScoringScheme()
        res = extend_left_ref(b1.seq, b2.seq, codes1, p, p, 4, int(codes1[p]), sc)
        assert res is CUTOFF

    def test_lower_word_straddling_mismatch_does_not_cut(self):
        # The low word "AAAA" is interrupted by a mismatch: the run length
        # never reaches w over it, so no cutoff fires (paper's L counter).
        s1 = "AAA" + "T" + "GGGG" + "CCCC"
        s2 = "AAA" + "G" + "GGGG" + "CCCC"
        b1, b2 = banks_for(s1, s2)
        codes1 = seed_codes(b1.seq, 4)
        p = 1 + 8  # the CCCC seed
        sc = ScoringScheme(xdrop_ungapped=100)
        res = extend_left_ref(b1.seq, b2.seq, codes1, p, p, 4, int(codes1[p]), sc)
        assert res is not CUTOFF

    def test_xdrop_stops_extension(self, rng):
        sc = ScoringScheme(xdrop_ungapped=6)
        core = "A" * 8 + "GTAC"  # seed = A*8 (code 0: uncuttable)
        # after the core: junk that mismatches everywhere
        b1, b2 = banks_for(core + "A" * 30, core + "C" * 30)
        codes1 = seed_codes(b1.seq, 8)
        res = extend_right_ref(
            b1.seq, b2.seq, codes1, 1, 1, 8, int(codes1[1]), sc
        )
        assert res is not CUTOFF
        # best offset stays within the core
        assert res.offset == len(core) - 8

    def test_separator_hard_stop(self):
        b = Bank.from_strings([("a", "ACGTACGTAC"), ("b", "ACGTACGTAC")])
        codes1 = seed_codes(b.seq, 4)
        sc = ScoringScheme(xdrop_ungapped=100)
        # seed at start of second sequence; left extension hits separator
        p = int(b.bounds(1)[0])
        res = extend_left_ref(b.seq, b.seq, codes1, p, p, 4, int(codes1[p]), sc)
        assert res is not CUTOFF
        assert res.offset == 0

    def test_left_cutoff_inclusive_right_cutoff_strict(self):
        # Two occurrences of the minimal seed (AAAA, code 0) on one
        # diagonal: the LEFT occurrence must generate (the right scan's
        # cutoff is strict, so equal codes do not cut), and the RIGHT
        # occurrence must be cut (the left scan's cutoff is inclusive).
        s = "AAAAGCGCAAAA"  # AAAA at offsets 0 and 8
        b1, b2 = banks_for(s, s)
        codes1 = seed_codes(b1.seq, 4)
        sc = ScoringScheme(xdrop_ungapped=100)
        left_occ = extend_hit_ref(b1.seq, b2.seq, codes1, 1, 1, 4, sc)
        right_occ = extend_hit_ref(b1.seq, b2.seq, codes1, 9, 9, 4, sc)
        assert left_occ is not None
        assert right_occ is None


class TestUniqueness:
    """The ORIS key property: every HSP generated exactly once."""

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10_000))
    def test_unique_hsps_random_homology(self, seed):
        rng = np.random.default_rng(seed)
        core = random_dna(rng, 50)
        mut = mutate(rng, core, sub_rate=0.05, indel_rate=0.0)
        s1 = random_dna(rng, 20) + core + random_dna(rng, 20)
        s2 = random_dna(rng, 25) + mut + random_dna(rng, 15)
        b1, b2 = banks_for(s1, s2)
        w = 6
        hits, i1 = all_hits(b1, b2, w)
        sc = ScoringScheme()
        boxes = []
        for p1, p2, _c in hits:
            r = extend_hit_ref(b1.seq, b2.seq, i1.cutoff_codes, p1, p2, w, sc)
            if r is not None:
                boxes.append(r)
        assert len(boxes) == len(set(boxes)), "duplicate HSP generated"

    def test_every_strong_hsp_is_generated_once(self, rng):
        # An exact 30-nt repeat occurring twice in bank2: two distinct
        # HSPs (different diagonals), each generated exactly once.
        core = random_dna(rng, 30)
        s1 = random_dna(rng, 10) + core + random_dna(rng, 10)
        s2 = core + random_dna(rng, 9) + core
        b1, b2 = banks_for(s1, s2)
        w = 8
        hits, i1 = all_hits(b1, b2, w)
        sc = ScoringScheme()
        boxes = []
        for p1, p2, _c in hits:
            r = extend_hit_ref(b1.seq, b2.seq, i1.cutoff_codes, p1, p2, w, sc)
            if r is not None:
                boxes.append(r)
        diags = {b[2] - b[0] for b in boxes}
        assert len(boxes) == len(set(boxes))
        assert len(diags) >= 2  # both copies found


class TestBatchMatchesScalar:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 10_000))
    def test_batch_equals_scalar_reference(self, seed):
        rng = np.random.default_rng(seed)
        core = random_dna(rng, 60)
        mut = mutate(rng, core, sub_rate=0.08, indel_rate=0.01)
        s1 = random_dna(rng, 30) + core + random_dna(rng, 30)
        s2 = random_dna(rng, 20) + mut + random_dna(rng, 40)
        b1, b2 = banks_for(s1, s2)
        w = 7
        hits, i1 = all_hits(b1, b2, w)
        if not hits:
            return
        sc = ScoringScheme()
        expected = []
        for p1, p2, _c in hits:
            r = extend_hit_ref(b1.seq, b2.seq, i1.cutoff_codes, p1, p2, w, sc)
            if r is not None:
                expected.append(r)
        p1v = np.array([h[0] for h in hits])
        p2v = np.array([h[1] for h in hits])
        cv = np.array([h[2] for h in hits])
        res = batch_extend(b1.seq, b2.seq, i1.cutoff_codes, p1v, p2v, cv, w, sc)
        got = [
            (
                int(res.start1[i]),
                int(res.end1[i]),
                int(res.start2[i]),
                int(res.end2[i]),
                int(res.score[i]),
            )
            for i in np.nonzero(res.kept)[0]
        ]
        assert sorted(got) == sorted(expected)

    def test_empty_batch(self):
        b = Bank.from_strings([("a", "ACGTACGT")])
        z = np.empty(0, dtype=np.int64)
        res = batch_extend(b.seq, b.seq, seed_codes(b.seq, 4), z, z, z, 4, ScoringScheme())
        assert res.kept.shape == (0,)

    def test_shape_mismatch_rejected(self):
        b = Bank.from_strings([("a", "ACGTACGT")])
        with pytest.raises(ValueError):
            batch_extend(
                b.seq, b.seq, seed_codes(b.seq, 4),
                np.array([1, 2]), np.array([1]), np.array([0, 0]),
                4, ScoringScheme(),
            )

    def test_cutoff_disabled_keeps_duplicates(self, rng):
        core = random_dna(rng, 40)
        b1, b2 = banks_for("TT" + core + "GG", "CC" + core + "AA")
        w = 6
        hits, i1 = all_hits(b1, b2, w)
        sc = ScoringScheme()
        p1v = np.array([h[0] for h in hits])
        p2v = np.array([h[1] for h in hits])
        cv = np.array([h[2] for h in hits])
        on = batch_extend(b1.seq, b2.seq, i1.cutoff_codes, p1v, p2v, cv, w, sc)
        off = batch_extend(
            b1.seq, b2.seq, i1.cutoff_codes, p1v, p2v, cv, w, sc, ordered_cutoff=False
        )
        assert off.kept.all()  # nothing cut without the rule
        assert on.kept.sum() < off.kept.sum()
        # the same (deduplicated) HSP boxes result either way
        def boxes(res, mask):
            return {
                (int(res.start1[i]), int(res.end1[i]), int(res.start2[i]))
                for i in np.nonzero(mask)[0]
            }
        assert boxes(on, on.kept) == boxes(off, off.kept)
