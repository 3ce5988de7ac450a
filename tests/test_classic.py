"""Tests for the reference optimal aligners (repro.align.classic)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.classic import (
    AlignmentPath,
    gotoh_local,
    local_score_matrix,
    needleman_wunsch,
    smith_waterman,
)
from repro.align.scoring import ScoringScheme
from repro.data.synthetic import mutate, random_dna

dna = st.text(alphabet="ACGT", min_size=1, max_size=40)


def rescore_linear(path: AlignmentPath, scoring: ScoringScheme) -> int:
    """Recompute a path's score from its aligned strings (linear gaps)."""
    score = 0
    for a, b in zip(path.aligned1, path.aligned2):
        if a == "-" or b == "-":
            score -= scoring.gap_open
        elif a == b:
            score += scoring.match
        else:
            score -= scoring.mismatch
    return score


def rescore_affine(path: AlignmentPath, scoring: ScoringScheme) -> int:
    """Recompute with affine costs (gap_open + len*gap_extend per run)."""
    score = 0
    run = None  # which side is gapped
    for a, b in zip(path.aligned1, path.aligned2):
        if a == "-" or b == "-":
            side = 1 if a == "-" else 2
            if run != side:
                score -= scoring.gap_open
                run = side
            score -= scoring.gap_extend
        else:
            run = None
            score += scoring.match if a == b else -scoring.mismatch
    return score


class TestNeedlemanWunsch:
    def test_identical(self, scoring):
        p = needleman_wunsch("ACGTACGT", "ACGTACGT", scoring)
        assert p.score == 8
        assert p.aligned1 == p.aligned2 == "ACGTACGT"

    def test_known_gap(self, scoring):
        p = needleman_wunsch("ACGT", "AGT", scoring)
        # best: delete C -> 3 matches - 1 gap = 3 - 5 = -2
        assert p.score == -2

    def test_global_consumes_everything(self, scoring):
        p = needleman_wunsch("AAAA", "TTTT", scoring)
        assert p.end1 == 4 and p.end2 == 4

    @settings(max_examples=30, deadline=None)
    @given(dna, dna)
    def test_traceback_rescores(self, s1, s2):
        sc = ScoringScheme()
        p = needleman_wunsch(s1, s2, sc)
        assert rescore_linear(p, sc) == p.score
        # global: both sequences fully consumed
        assert p.aligned1.replace("-", "") == s1
        assert p.aligned2.replace("-", "") == s2


class TestSmithWaterman:
    def test_finds_implanted_core(self, rng, scoring):
        core = random_dna(rng, 25)
        s1 = random_dna(rng, 20) + core + random_dna(rng, 20)
        s2 = random_dna(rng, 10) + core + random_dna(rng, 30)
        p = smith_waterman(s1, s2, scoring)
        assert p.score >= 25 - 2  # near the full core score
        assert core in (s1[p.start1 : p.end1] + "  ")[: len(core) + 2] or p.score >= 20

    def test_no_negative_score(self, scoring):
        p = smith_waterman("AAAA", "TTTT", scoring)
        assert p.score == 0

    def test_local_score_matrix_max(self, rng, scoring):
        s1, s2 = random_dna(rng, 30), random_dna(rng, 30)
        H = local_score_matrix(s1, s2, scoring)
        assert H.max() == smith_waterman(s1, s2, scoring).score

    @settings(max_examples=30, deadline=None)
    @given(dna, dna)
    def test_traceback_rescores(self, s1, s2):
        sc = ScoringScheme()
        p = smith_waterman(s1, s2, sc)
        assert rescore_linear(p, sc) == p.score

    @settings(max_examples=20, deadline=None)
    @given(dna, dna)
    def test_local_at_least_zero_and_bounded(self, s1, s2):
        sc = ScoringScheme()
        p = smith_waterman(s1, s2, sc)
        assert 0 <= p.score <= min(len(s1), len(s2)) * sc.match


class TestGotoh:
    def test_affine_prefers_one_long_gap(self, rng):
        sc = ScoringScheme(match=1, mismatch=3, gap_open=5, gap_extend=1)
        core = random_dna(rng, 40)
        s2 = core[:20] + core[26:]  # 6-nt deletion
        p = gotoh_local(core, s2, sc)
        gaps1 = [len(run) for run in p.aligned2.split("-") if run == ""]
        # one gap run of length 6 expected: affine cost 5+6 < two runs
        n_runs = 0
        in_run = False
        for a, b in zip(p.aligned1, p.aligned2):
            g = a == "-" or b == "-"
            if g and not in_run:
                n_runs += 1
            in_run = g
        assert n_runs == 1

    def test_identical(self, rng, scoring):
        s = random_dna(rng, 30)
        p = gotoh_local(s, s, scoring)
        assert p.score == 30

    @settings(max_examples=30, deadline=None)
    @given(dna, dna)
    def test_traceback_rescores_affine(self, s1, s2):
        sc = ScoringScheme()
        p = gotoh_local(s1, s2, sc)
        assert rescore_affine(p, sc) == p.score

    @settings(max_examples=20, deadline=None)
    @given(dna, dna)
    def test_gotoh_at_least_sw_with_heavier_gaps(self, s1, s2):
        # With gap_extend < gap_open, affine never scores worse than the
        # linear scheme that charges gap_open per column.
        sc = ScoringScheme()
        affine = gotoh_local(s1, s2, sc).score
        linear = smith_waterman(s1, s2, sc).score
        assert affine >= linear


class TestCrossValidation:
    """Engines vs optimal DP: a local alignment score is an upper bound."""

    @settings(max_examples=10, deadline=None)
    @given(st.integers(0, 10_000))
    def test_hsp_scores_bounded_by_smith_waterman(self, seed):
        rng = np.random.default_rng(seed)
        from repro.align.ungapped import extend_hit_ref
        from repro.encoding import seed_codes
        from repro.index import CsrSeedIndex
        from repro.io.bank import Bank

        core = random_dna(rng, 40)
        mut = mutate(rng, core, sub_rate=0.05, indel_rate=0.0)
        s1 = random_dna(rng, 15) + core + random_dna(rng, 15)
        s2 = random_dna(rng, 10) + mut + random_dna(rng, 20)
        b1 = Bank.from_strings([("a", s1)])
        b2 = Bank.from_strings([("b", s2)])
        sc = ScoringScheme()
        sw = smith_waterman(s1, s2, sc).score
        w = 6
        i1 = CsrSeedIndex(b1, w, None)
        i2 = CsrSeedIndex(b2, w, None)
        cc = i1.common_codes(i2)
        for k in range(cc.n_codes):
            for a in i1.positions[cc.start1[k] : cc.start1[k] + cc.count1[k]]:
                for b in i2.positions[cc.start2[k] : cc.start2[k] + cc.count2[k]]:
                    r = extend_hit_ref(
                        b1.seq, b2.seq, i1.cutoff_codes, int(a), int(b), w, sc
                    )
                    if r is not None:
                        assert r[4] <= sw
