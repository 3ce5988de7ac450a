"""Boundary-condition tests for the 2-bit packed tile-sweep kernel.

The packed representation has internal edges the differential fuzz only
hits by luck: bank lengths that straddle 32-column pack words and
64-column validity words, extensions that stop mid-word at a sequence
boundary, matches long enough to carry lane state across several tiles
(and across the narrow->wide tile schedule), and the ``max_extend`` cap
landing inside a tile.  Each case here pins one of those edges against
the scalar kernel or against first principles.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.align.scoring import ScoringScheme
from repro.align.ungapped import batch_extend
from repro.align.vector_kernel import batch_extend_vector
from repro.encoding import INVALID, encode, seed_codes
from repro.encoding.packed import PAD, PackedBank, bit_columns, match_columns
from repro.io.bank import Bank

SCORING = ScoringScheme(match=1, mismatch=2, xdrop_ungapped=10)


def _both(seq1, seq2, codes1, p1, p2, w, **kw):
    start = codes1[np.asarray(p1)]
    a = batch_extend(
        seq1, seq2, codes1, np.asarray(p1), np.asarray(p2), start, w,
        kw.pop("scoring", SCORING), **kw,
    )
    b = batch_extend_vector(
        seq1, seq2, codes1, np.asarray(p1), np.asarray(p2), start, w,
        SCORING if "scoring" not in kw else kw["scoring"], **kw,
    )
    return a, b


def _assert_equal(a, b):
    np.testing.assert_array_equal(a.kept, b.kept)
    np.testing.assert_array_equal(a.cut_left, b.cut_left)
    np.testing.assert_array_equal(a.cut_right, b.cut_right)
    k = a.kept
    for f in ("start1", "end1", "start2", "end2", "score"):
        np.testing.assert_array_equal(getattr(a, f)[k], getattr(b, f)[k], err_msg=f)
    assert a.steps == b.steps


# --------------------------------------------------------------------- #
# PackedBank representation edges
# --------------------------------------------------------------------- #


class TestPackedBank:
    @pytest.mark.parametrize("n", [1, 31, 32, 33, 63, 64, 65, 127, 128, 129])
    def test_roundtrip_at_word_boundaries(self, n):
        rng = np.random.default_rng(n)
        seq = rng.integers(0, 4, size=n).astype(np.int8)
        seq[rng.random(n) < 0.2] = INVALID  # salt with separators
        packed = PackedBank(seq)
        # A window gathered at every start (including overhang on both
        # sides) must reproduce the per-column codes and validity.
        for start in (-5, -1, 0, 1, n // 2, n - 1, n):
            words = packed.gather_words(np.array([start]), 2)
            got = match_columns(words ^ words)  # trivially all-match
            assert got.all()  # sanity: XOR with self is always equal
            vmask = bit_columns(packed.gather_valid(np.array([start])))[0]
            for j in range(64):
                pos = start + j
                want = 0 <= pos < n and seq[pos] < INVALID
                assert vmask[j] == want, (start, j)

    def test_match_columns_against_codes(self):
        rng = np.random.default_rng(7)
        s1 = rng.integers(0, 4, size=100).astype(np.int8)
        s2 = rng.integers(0, 4, size=100).astype(np.int8)
        pk1, pk2 = PackedBank(s1), PackedBank(s2)
        starts = np.arange(-3, 99, 7)
        x = pk1.gather_words(starts, 2) ^ pk2.gather_words(starts, 2)
        eq = match_columns(x)
        valid = bit_columns(pk1.gather_valid(starts) & pk2.gather_valid(starts))
        for i, s in enumerate(starts):
            for j in range(64):
                p = s + j
                inside = 0 <= p < 100
                assert valid[i, j] == inside
                if inside:
                    assert (eq[i, j] & valid[i, j]) == (s1[p] == s2[p])

    @pytest.mark.parametrize("n", [1, 7, 8, 9, 31, 32, 33, 64, 65])
    def test_gather8_is_the_low_byte_of_the_wide_gathers(self, n):
        # The head's 8-column windows, at every start a lane can reach
        # (overhang on both sides included), against the 64-column ones.
        rng = np.random.default_rng(n)
        seq = rng.integers(0, 4, size=n).astype(np.int8)
        seq[rng.random(n) < 0.2] = INVALID
        packed = PackedBank(seq)
        starts = np.arange(-9, n + 2)
        codes, valid = packed.gather8(starts)
        assert codes.dtype == valid.dtype == np.uint32
        np.testing.assert_array_equal(
            codes, packed.gather_words(starts, 1)[:, 0] & np.uint64(0xFFFF)
        )
        np.testing.assert_array_equal(
            valid, packed.gather_valid(starts) & np.uint64(0xFF)
        )

    @staticmethod
    def _uint64_images(seq: np.ndarray, pad: int):
        """The images as first built: a uint64 per position, shifted
        into place and OR-reduced per word."""
        n = seq.shape[0]
        total = n + 2 * pad
        ok = seq < INVALID
        n32 = -(-total // 32) + 2
        codes = np.zeros(n32 * 32, dtype=np.uint64)
        codes[pad : pad + n] = np.where(ok, seq, 0).astype(np.uint64)
        shifts2 = np.arange(32, dtype=np.uint64) * np.uint64(2)
        words = np.bitwise_or.reduce(
            codes.reshape(-1, 32) << shifts2[None, :], axis=1
        )
        n64 = -(-total // 64) + 2
        vbits = np.zeros(n64 * 64, dtype=np.uint64)
        vbits[pad : pad + n] = ok
        shifts1 = np.arange(64, dtype=np.uint64)
        valid = np.bitwise_or.reduce(
            vbits.reshape(-1, 64) << shifts1[None, :], axis=1
        )
        return words, valid

    @pytest.mark.parametrize("pad", [PAD, 0, 5])
    def test_byte_packing_equals_uint64_images(self, pad):
        """Lengths 0..300 with N runs: both images byte-identical to the
        per-position uint64 construction, padding overhang included."""
        rng = np.random.default_rng(pad)
        for n in range(301):
            seq = rng.integers(0, 4, size=n).astype(np.int8)
            for _ in range(int(rng.integers(0, 4))):
                lo = int(rng.integers(0, n + 1))
                seq[lo : lo + int(rng.integers(1, 40))] = INVALID
            packed = PackedBank(seq, pad=pad)
            words, valid = self._uint64_images(seq, pad)
            assert packed.words.dtype == packed.valid.dtype == np.uint64
            assert packed.words.tobytes() == words.tobytes(), n
            assert packed.valid.tobytes() == valid.tobytes(), n

    def test_pad_is_invalid(self):
        packed = PackedBank(np.zeros(10, dtype=np.int8))
        before = packed.gather_valid(np.array([-PAD]))
        assert not bit_columns(before)[0, :64].any()


# --------------------------------------------------------------------- #
# Kernel edges
# --------------------------------------------------------------------- #


def _bank_pair(s1: str, s2: str, w: int):
    b1 = Bank.from_strings([("a", s1)])
    b2 = Bank.from_strings([("b", s2)])
    return b1.seq, b2.seq, seed_codes(b1.seq, w)


class TestKernelBoundaries:
    @pytest.mark.parametrize("n", [31, 32, 33, 63, 64, 65])
    def test_extension_hits_end_mid_word(self, n):
        # Identical banks whose length straddles a pack-word boundary:
        # the right scan must stop exactly at the trailing separator.
        rng = np.random.default_rng(n)
        s = "".join(rng.choice(list("ACGT"), size=n))
        w = 5
        seq1, seq2, codes1 = _bank_pair(s, s, w)
        a, b = _both(seq1, seq2, codes1, [1], [1], w, ordered_cutoff=False)
        _assert_equal(a, b)
        assert bool(a.kept[0])
        assert int(b.end1[0]) == 1 + n  # ran to the separator, not past

    def test_extension_hits_start_mid_word(self):
        w = 5
        s = "ACGTACGTACGTACGTACGTACGTACGTACGTAAA"
        seq1, seq2, codes1 = _bank_pair(s, s, w)
        p = len(s) - w  # seed at the last window; left scan spans the bank
        a, b = _both(seq1, seq2, codes1, [1 + p], [1 + p], w, ordered_cutoff=False)
        _assert_equal(a, b)
        assert int(b.start1[0]) == 1  # stopped at the leading separator

    def test_single_base_flanks(self):
        # Sequence so short the first scanned column is already invalid
        # on both sides.
        w = 4
        seq1, seq2, codes1 = _bank_pair("ACGT", "ACGT", w)
        a, b = _both(seq1, seq2, codes1, [1], [1], w, ordered_cutoff=False)
        _assert_equal(a, b)
        assert int(b.start1[0]) == 1 and int(b.end1[0]) == 5

    def test_shared_diagonal_candidates(self):
        # Many seeds of one repeat share a diagonal; with the ordered
        # cutoff on, all but the lowest-code seed must be cut, in both
        # kernels, lane for lane.
        w = 4
        s = "TGCATGCATGCATGCATGCATGCATGCA"
        seq1, seq2, codes1 = _bank_pair(s, s, w)
        sent = 4**w
        pos = np.nonzero(codes1 < sent)[0]
        diag = [(int(p), int(p)) for p in pos]  # self-hits, one diagonal
        p1 = np.array([d[0] for d in diag])
        p2 = np.array([d[1] for d in diag])
        a, b = _both(seq1, seq2, codes1, p1, p2, w, ordered_cutoff=True)
        _assert_equal(a, b)
        assert int(a.kept.sum()) == 1  # exactly one survivor per diagonal

    @pytest.mark.parametrize("length", [150, 300, 700])
    def test_long_match_carries_across_tiles(self, length):
        # Perfect matches far beyond one 64-column tile: lane state
        # (score, run, best offset) must carry exactly through the
        # adaptive schedule and multiple steady-state tiles.
        rng = np.random.default_rng(length)
        s = "".join(rng.choice(list("ACGT"), size=length))
        w = 6
        seq1, seq2, codes1 = _bank_pair(s, s, w)
        mid = length // 2
        a, b = _both(seq1, seq2, codes1, [1 + mid], [1 + mid], w,
                     ordered_cutoff=False)
        _assert_equal(a, b)
        assert int(b.start1[0]) == 1 and int(b.end1[0]) == 1 + length
        assert int(b.score[0]) == length * SCORING.match

    @pytest.mark.parametrize("cap", [1, 7, 8, 9, 23, 24, 25, 55, 56, 57, 64, 100])
    def test_max_extend_cap_inside_tiles(self, cap):
        # Caps landing before, on and after each tile-schedule boundary
        # (8, 24, 56, then 64-wide tiles).
        rng = np.random.default_rng(cap)
        s = "".join(rng.choice(list("ACGT"), size=200))
        w = 5
        seq1, seq2, codes1 = _bank_pair(s, s, w)
        a, b = _both(
            seq1, seq2, codes1, [100], [100], w,
            ordered_cutoff=False, max_extend=cap,
        )
        _assert_equal(a, b)

    def test_mismatch_tail_after_long_match(self):
        # x-drop fires mid-tile after a long perfect prefix; the best
        # offset must point at the last improving column, not the stop.
        w = 5
        core = "ACGTA" * 30
        s1 = core + "AAAAAAAAAAAAAAAA"
        s2 = core + "CCCCCCCCCCCCCCCC"
        seq1, seq2, codes1 = _bank_pair(s1, s2, w)
        a, b = _both(seq1, seq2, codes1, [1], [1], w, ordered_cutoff=False)
        _assert_equal(a, b)
        assert int(b.end1[0]) == 1 + len(core)

    def test_raw_encoded_arrays_with_guards(self):
        # The kernel contract also covers raw encoded arrays (no Bank),
        # as long as separators guard both ends -- mirror of how tests
        # drive the scalar kernel directly.
        w = 4
        raw1 = np.concatenate(
            ([INVALID], encode("ACGTACGTACGT"), [INVALID])
        ).astype(np.int8)
        raw2 = raw1.copy()
        codes1 = seed_codes(raw1, w)
        a, b = _both(raw1, raw2, codes1, [1], [1], w, ordered_cutoff=False)
        _assert_equal(a, b)
