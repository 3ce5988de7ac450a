"""Tests for the seed indexes (repro.index.seed_index)."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.synthetic import random_dna
from repro.encoding import code_dtype, code_of_word, invalid_code, seed_codes
from repro.encoding.spaced import SpacedSeedMask, spaced_seed_codes
from repro.encoding.subset import SubsetSeedMask, subset_seed_codes
from repro.filters import dust_mask
from repro.index import CsrSeedIndex, LinkedSeedIndex, valid_window_mask
from repro.index.seed_index import POSITION_MARGIN, position_dtype, sort_postings
from repro.io.bank import Bank


def _stable_order(codes: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """The oracle: positions stably argsorted by their codes."""
    return pos[np.argsort(codes[pos], kind="stable")]


class TestSortPositionsByCode:
    """The packed-key sort orders postings exactly as a stable argsort,
    and its code runs are the distinct codes with their offsets."""

    def _check(self, codes, pos):
        pos = np.asarray(pos, dtype=np.int64)
        ok = np.zeros(codes.shape[0], dtype=bool)
        ok[pos] = True
        got, unique, starts = sort_postings(codes, ok)
        assert got.dtype == position_dtype(codes.shape[0])
        assert unique.dtype == codes.dtype
        assert starts.dtype == got.dtype
        want = _stable_order(codes, np.sort(pos))  # (code, pos) order
        np.testing.assert_array_equal(got, want)
        want_unique, want_counts = np.unique(codes[want], return_counts=True)
        np.testing.assert_array_equal(unique, want_unique)
        np.testing.assert_array_equal(starts, np.r_[0, np.cumsum(want_counts)])

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
        """Codes in any order along the bank come out ordered by (code,
        pos), ties by position, whichever positions the mask keeps."""
        rng = np.random.default_rng(3)
        codes = rng.integers(0, 16, 500)
        pos = np.arange(0, 500, 2)
        self._check(codes, pos)
        self._check(codes[::-1].copy(), pos)
        self._check(codes, rng.choice(500, 77, replace=False))

    def test_keys_over_63_bits_fall_back(self):
        rng = np.random.default_rng(7)
        codes = (np.int64(1) << 62) + rng.integers(0, 3, 64)
        self._check(codes, np.arange(64))

    def test_index_arrays_pinned(self):
        """The index holds the same values as before its arrays narrowed:
        positions, each posting's code, the distinct codes with their
        starts and counts, and the cutoff codes (pinned at the int64
        layout, whose cutoff was ``where(indexed_mask, codes_at,
        sentinel)``)."""
        rng = np.random.default_rng(20080407)
        seqs = []
        for i in range(6):
            s = random_dna(rng, 3000)
            s = s[:500] + "N" * 7 + s[500:1500] + "AC" * 200 + s[1500:]
            seqs.append((f"s{i}", s))
        bank = Bank.from_strings(seqs)
        index = CsrSeedIndex(bank, 11, dust_mask(bank))
        assert index.positions.dtype == np.int32
        assert index.unique_codes.dtype == np.int32
        assert index.cutoff_codes.dtype == np.int32
        counts = index.code_counts
        h = hashlib.sha256()
        for a in (
            index.positions, np.repeat(index.unique_codes, counts),
            index.unique_codes, index.code_starts[:-1], counts,
        ):
            h.update(a.astype(np.int64).tobytes())
        assert index.n_indexed == 17276
        assert h.hexdigest() == (
            "53687624a8fd671102bbb00128914fd3a38a03756b6693b59a71ab07d81e6631"
        )
        cutoff = hashlib.sha256(index.cutoff_codes.astype(np.int64).tobytes())
        assert cutoff.hexdigest() == (
            "596784057939c48afb81168208a47121c9c3013c4c4472f6a69e682302aa8242"
        )


@pytest.mark.parametrize("name", ["H10", "BCT"])
def test_bench_bank_index_within_16_bytes_per_nt(name):
    """The index arrays of the benchmark's chromosome and bacteria banks
    (seed 20080407, DUST, W = 11), cutoff codes and indexed mask
    included, SEQ excluded, fit 16 bytes per nucleotide."""
    from repro.data import load_bank

    bank = load_bank(name, seed=20080407)
    index = CsrSeedIndex(bank, 11, dust_mask(bank))
    held = sum(getattr(index, f).nbytes for f in CsrSeedIndex.ARRAY_FIELDS)
    held += index.indexed_mask.nbytes
    assert held <= 16 * bank.seq.shape[0]


class TestDtypeChoice:
    """The narrow dtypes and their int64 fallbacks, chosen without
    allocating an array of the size that needs them."""

    def test_positions_int32_below_the_margin(self):
        assert position_dtype(0) == np.int32
        assert position_dtype((1 << 31) - POSITION_MARGIN - 1) == np.int32

    def test_positions_int64_near_2_31(self):
        assert position_dtype((1 << 31) - POSITION_MARGIN) == np.int64
        assert position_dtype(3 << 30) == np.int64

    def test_codes_int32_up_to_w15(self):
        assert code_dtype(invalid_code(15)) == np.int32
        assert seed_codes(np.zeros(20, dtype=np.int8), 15).dtype == np.int32

    def test_codes_int64_from_w16(self):
        assert code_dtype(invalid_code(16)) == np.int64
        assert seed_codes(np.zeros(20, dtype=np.int8), 16).dtype == np.int64

    def test_wide_spaced_mask_falls_back(self):
        wide = SpacedSeedMask("1" * 15 + "0" + "1")  # weight 16
        assert code_dtype(SpacedSeedMask("1101011").invalid_code()) == np.int32
        assert code_dtype(wide.invalid_code()) == np.int64
        subset = SubsetSeedMask("#" * 14 + "@#")  # 4**15 * 2 codes
        assert code_dtype(subset.invalid_code()) == np.int64

    def test_wide_index_holds_int64_codes(self):
        b = Bank.from_strings([("a", random_dna(np.random.default_rng(1), 300))])
        idx = CsrSeedIndex(b, 16)
        assert idx.unique_codes.dtype == idx.cutoff_codes.dtype == np.int64
        assert idx.positions.dtype == np.int32
        np.testing.assert_array_equal(
            idx.cutoff_codes, seed_codes(b.seq, 16)
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

    def test_cutoff_codes_cover_all_positions(self):
        b = Bank.from_strings([("a", "ACGTACGT")])
        lcm = np.zeros(b.seq.shape[0], dtype=bool)
        lcm[b.bounds(0)[0] + 7] = True  # masks the last window
        idx = CsrSeedIndex(b, 4, lcm)
        assert idx.cutoff_codes.shape == b.seq.shape
        np.testing.assert_array_equal(
            idx.cutoff_codes,
            np.where(idx.indexed_mask, seed_codes(b.seq, 4), idx.sentinel),
        )
        assert idx.indexed_mask.sum() == idx.n_indexed == 4


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
