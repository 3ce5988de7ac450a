"""Tests for the seed indexes (repro.index.seed_index)."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.synthetic import random_dna
from repro.encoding import code_of_word, seed_codes
from repro.encoding.spaced import SpacedSeedMask, spaced_seed_codes
from repro.encoding.subset import SubsetSeedMask, subset_seed_codes
from repro.filters import dust_mask
from repro.index import CsrSeedIndex, LinkedSeedIndex, valid_window_mask
from repro.index.seed_index import sort_positions_by_code
from repro.io.bank import Bank


def _stable_order(codes: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """The oracle: positions stably argsorted by their codes."""
    return pos[np.argsort(codes[pos], kind="stable")]


class TestSortPositionsByCode:
    """The packed-key sort orders postings exactly as a stable argsort."""

    def _check(self, codes, pos):
        pos = np.asarray(pos, dtype=np.int64)
        got = sort_positions_by_code(codes, pos)
        assert got.dtype == np.int64
        np.testing.assert_array_equal(got, _stable_order(codes, pos))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.text(alphabet="ACGTN", min_size=1, max_size=80), min_size=1, max_size=4),
        st.sampled_from(["w4", "w11", "w15", "spaced", "subset"]),
        st.integers(min_value=1, max_value=3),
    )
    def test_equals_stable_argsort(self, seqs, kind, stride):
        seq = Bank.from_strings(seqs).seq
        if kind == "spaced":
            mask = SpacedSeedMask("1101011")
            codes, bad = spaced_seed_codes(seq, mask), mask.invalid_code()
        elif kind == "subset":
            mask = SubsetSeedMask("#@-@#")
            codes, bad = subset_seed_codes(seq, mask), mask.invalid_code()
        else:
            w = int(kind[1:])
            codes, bad = seed_codes(seq, w), 4**w
        pos = np.nonzero(codes < bad)[0][::stride]
        self._check(codes, pos)

    def test_empty_and_single(self):
        codes = np.array([5, 3, 9], dtype=np.int64)
        self._check(codes, np.empty(0, dtype=np.int64))
        self._check(codes, [1])

    def test_all_equal_codes(self):
        self._check(np.zeros(1000, dtype=np.int64), np.arange(0, 1000, 3))

    def test_any_input_order(self):
        """Unique positions in any order come out ordered by (code, pos),
        as the segment-store merge needs for its code-major input."""
        rng = np.random.default_rng(3)
        codes = rng.integers(0, 16, 500)
        pos = np.arange(0, 500, 2)
        expected = _stable_order(codes, pos)
        self._check(codes, pos)
        np.testing.assert_array_equal(
            sort_positions_by_code(codes, rng.permutation(pos)), expected
        )
        np.testing.assert_array_equal(sort_positions_by_code(codes, expected), expected)

    def test_keys_over_63_bits_fall_back(self):
        rng = np.random.default_rng(7)
        codes = (np.int64(1) << 62) + rng.integers(0, 3, 64)
        self._check(codes, np.arange(64))

    def test_index_arrays_pinned(self):
        """All six index arrays, dtypes included, hash as before the
        packed sort: archives and cache keys stay valid."""
        rng = np.random.default_rng(20080407)
        seqs = []
        for i in range(6):
            s = random_dna(rng, 3000)
            s = s[:500] + "N" * 7 + s[500:1500] + "AC" * 200 + s[1500:]
            seqs.append((f"s{i}", s))
        bank = Bank.from_strings(seqs)
        index = CsrSeedIndex(bank, 11, dust_mask(bank))
        h = hashlib.sha256()
        for a in (
            index.positions, index.sorted_codes, index.unique_codes,
            index.code_starts, index.code_counts, index.codes_at,
        ):
            h.update(a.dtype.str.encode())
            h.update(a.tobytes())
        assert index.n_indexed == 17276
        assert h.hexdigest() == (
            "2cd92c492767450136e5aa5dbebbf8781472d36af373c7527be0600b1296b632"
        )


class TestValidWindowMask:
    def test_excludes_separators(self):
        b = Bank.from_strings([("a", "ACGTACGT"), ("b", "ACGTACGT")])
        ok = valid_window_mask(b, 4)
        s0, e0 = b.bounds(0)
        # all in-sequence windows valid, everything touching separators not
        assert ok[s0 : e0 - 3].all()
        assert not ok[e0 - 3 + 1 : s0 + 8].any()

    def test_low_complexity_mask_removes_overlapping_windows(self):
        b = Bank.from_strings([("a", "ACGTACGTACGT")])
        lcm = np.zeros(b.seq.shape[0], dtype=bool)
        s, _ = b.bounds(0)
        lcm[s + 5] = True  # one masked character
        ok = valid_window_mask(b, 4, low_complexity_mask=lcm)
        # windows starting at s+2..s+5 include the masked char
        for off in range(2, 6):
            assert not ok[s + off]
        assert ok[s + 1]
        assert ok[s + 6]

    def test_mask_shape_checked(self):
        b = Bank.from_strings([("a", "ACGTACGT")])
        with pytest.raises(ValueError):
            valid_window_mask(b, 4, low_complexity_mask=np.zeros(3, dtype=bool))

    def test_stride_restarts_per_sequence(self):
        b = Bank.from_strings([("a", "ACGTACG"), ("b", "ACGTACG")])
        ok = valid_window_mask(b, 4, stride=2)
        for i in range(b.n_sequences):
            s, e = b.bounds(i)
            starts = [p - s for p in range(s, e) if ok[p]]
            assert starts == [0, 2]  # offsets 0 and 2 have full windows


class TestCsrIndex:
    def test_positions_of_known_word(self):
        b = Bank.from_strings([("a", "ACGTACGTAAACGT")])
        idx = CsrSeedIndex(b, 4)
        s, _ = b.bounds(0)
        got = idx.positions_of(code_of_word("ACGT"))
        assert list(got) == [s + 0, s + 4, s + 10]

    def test_positions_ascending_within_code(self):
        b = Bank.from_strings([("a", "ACACACACACAC")])
        idx = CsrSeedIndex(b, 4)
        got = idx.positions_of(code_of_word("ACAC"))
        assert list(got) == sorted(got)

    def test_absent_code_empty(self):
        b = Bank.from_strings([("a", "AAAAAAAA")])
        idx = CsrSeedIndex(b, 4)
        assert idx.positions_of(code_of_word("GGGG")).size == 0

    def test_unique_codes_sorted(self):
        b = Bank.from_strings([("a", "ACGTGGTACCAGT")])
        idx = CsrSeedIndex(b, 4)
        assert (np.diff(idx.unique_codes) > 0).all()

    def test_n_indexed_counts_windows(self):
        b = Bank.from_strings([("a", "ACGTACGT")])
        idx = CsrSeedIndex(b, 4)
        assert idx.n_indexed == 5

    def test_codes_at_covers_all_positions(self):
        b = Bank.from_strings([("a", "ACGTACGT")])
        idx = CsrSeedIndex(b, 4)
        assert idx.codes_at.shape == b.seq.shape


class TestLinkedVsCsr:
    """Figure-2 layout and CSR layout must index identical (code, pos) sets."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(st.text(alphabet="ACGTN", min_size=4, max_size=40), min_size=1, max_size=5),
        st.integers(min_value=2, max_value=6),
    )
    def test_same_content(self, seqs, w):
        b = Bank.from_strings(seqs)
        csr = CsrSeedIndex(b, w)
        linked = LinkedSeedIndex.build(b, w)
        assert linked.n_indexed == csr.n_indexed
        for code in np.unique(csr.unique_codes):
            got = linked.positions_of(int(code))
            assert got.dtype == np.int64
            np.testing.assert_array_equal(got, csr.positions_of(int(code)))

    def test_linked_chain_ascending(self):
        b = Bank.from_strings([("a", "ACACACACAC")])
        linked = LinkedSeedIndex.build(b, 2)
        pos = linked.positions_of(code_of_word("AC"))
        np.testing.assert_array_equal(pos, np.sort(pos))


class TestCommonCodes:
    def test_intersection(self):
        b1 = Bank.from_strings([("a", "AAAATTTT")])
        b2 = Bank.from_strings([("b", "TTTTGGGG")])
        i1, i2 = CsrSeedIndex(b1, 4), CsrSeedIndex(b2, 4)
        cc = i1.common_codes(i2)
        got = {int(c) for c in cc.codes}
        # shared 4-mers: those of TTTT region: ATTT? b2 has TTTT,TTTG,...
        # compute expected straightforwardly
        c1 = {int(c) for c in i1.unique_codes}
        c2 = {int(c) for c in i2.unique_codes}
        assert got == (c1 & c2)

    def test_ascending_order(self):
        b1 = Bank.from_strings([("a", "ACGTACGTGGAT")])
        b2 = Bank.from_strings([("b", "ACGTGGATTACG")])
        cc = CsrSeedIndex(b1, 4).common_codes(CsrSeedIndex(b2, 4))
        assert (np.diff(cc.codes) > 0).all()

    def test_n_pairs(self):
        b1 = Bank.from_strings([("a", "ACGTACGT")])  # ACGT twice
        b2 = Bank.from_strings([("b", "ACGTACGTACGT")])  # thrice
        cc = CsrSeedIndex(b1, 4).common_codes(CsrSeedIndex(b2, 4))
        # each shared code contributes count1*count2
        k = int(np.searchsorted(cc.codes, code_of_word("ACGT")))
        assert cc.count1[k] * cc.count2[k] == 6

    def test_width_mismatch_rejected(self):
        b = Bank.from_strings([("a", "ACGTACGT")])
        with pytest.raises(ValueError):
            CsrSeedIndex(b, 4).common_codes(CsrSeedIndex(b, 5))

    @pytest.mark.parametrize(
        "seq1, seq2",
        [
            ("ACGTACGTGGATCCAT", "GGATCCATTTACGTAC"),
            ("NNNN", "ACGTACGT"),
            ("ACGTACGT", "NNNN"),
            ("NNNN", "NNNN"),
        ],
    )
    def test_equals_intersect1d(self, seq1, seq2):
        i1 = CsrSeedIndex(Bank.from_strings([("a", seq1)]), 4)
        i2 = CsrSeedIndex(Bank.from_strings([("b", seq2)]), 4)
        codes, k1, k2 = np.intersect1d(
            i1.unique_codes, i2.unique_codes, assume_unique=True,
            return_indices=True,
        )
        cc = i1.common_codes(i2)
        for got, want in (
            (cc.codes, codes),
            (cc.start1, i1.code_starts[k1]),
            (cc.count1, i1.code_counts[k1]),
            (cc.start2, i2.code_starts[k2]),
            (cc.count2, i2.code_counts[k2]),
        ):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.text(alphabet="ACGTN", min_size=1, max_size=60), min_size=1, max_size=3),
        st.lists(st.text(alphabet="ACGTN", min_size=1, max_size=60), min_size=1, max_size=3),
    )
    def test_equals_intersect1d_random(self, seqs1, seqs2):
        i1 = CsrSeedIndex(Bank.from_strings(seqs1), 3)
        i2 = CsrSeedIndex(Bank.from_strings(seqs2), 3)
        codes, k1, k2 = np.intersect1d(
            i1.unique_codes, i2.unique_codes, assume_unique=True,
            return_indices=True,
        )
        cc = i1.common_codes(i2)
        np.testing.assert_array_equal(cc.codes, codes)
        np.testing.assert_array_equal(cc.start1, i1.code_starts[k1])
        np.testing.assert_array_equal(cc.start2, i2.code_starts[k2])

    def test_disjoint_banks(self):
        b1 = Bank.from_strings([("a", "AAAAAAAA")])
        b2 = Bank.from_strings([("b", "GGGGGGGG")])
        cc = CsrSeedIndex(b1, 4).common_codes(CsrSeedIndex(b2, 4))
        assert cc.n_codes == 0
        assert cc.n_pairs == 0
