"""Tests for seed-code arithmetic (repro.encoding.seeds)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.encoding import (
    code_of_word,
    encode,
    invalid_code,
    n_seed_codes,
    seed_codes,
    word_of_code,
)

words = st.text(alphabet="ACGT", min_size=1, max_size=15)


class TestCodeOfWord:
    def test_all_a_is_zero(self):
        assert code_of_word("AAAAAAAAAAA") == 0

    def test_little_endian_weighting(self):
        # Section 2.1: codeSEED = sum 4^i * codeNT(S_i); first char has
        # weight 4^0, so "CA" = 1 and "AC" = 4.
        assert code_of_word("CA") == 1
        assert code_of_word("AC") == 4

    def test_paper_code_order_single(self):
        # A=0 < C=1 < T=2 < G=3 in the paper's table.
        assert (
            code_of_word("A") < code_of_word("C") < code_of_word("T") < code_of_word("G")
        )

    def test_max_code(self):
        assert code_of_word("GGGG") == n_seed_codes(4) - 1

    def test_rejects_non_acgt(self):
        with pytest.raises(ValueError):
            code_of_word("ACGN")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            code_of_word("")

    def test_rejects_too_wide(self):
        with pytest.raises(ValueError):
            code_of_word("A" * 32)

    @given(words)
    def test_word_roundtrip(self, w):
        assert word_of_code(code_of_word(w), len(w)) == w

    @given(st.integers(min_value=1, max_value=12), st.data())
    def test_code_roundtrip(self, w, data):
        code = data.draw(st.integers(min_value=0, max_value=n_seed_codes(w) - 1))
        assert code_of_word(word_of_code(code, w)) == code


class TestSeedCodesArray:
    def test_matches_scalar_definition(self):
        s = "ACGTACGTTACG"
        w = 5
        arr = seed_codes(encode(s), w)
        for i in range(len(s) - w + 1):
            assert arr[i] == code_of_word(s[i : i + w]), i

    def test_tail_positions_invalid(self):
        arr = seed_codes(encode("ACGTACGT"), 5)
        bad = invalid_code(5)
        assert list(arr[-4:]) == [bad] * 4

    def test_window_with_n_invalid(self):
        arr = seed_codes(encode("ACGTNACGT"), 4)
        bad = invalid_code(4)
        # windows starting at 1..4 all include the N at index 4
        assert arr[0] != bad
        for i in range(1, 5):
            assert arr[i] == bad
        assert arr[5] != bad

    def test_short_input_all_invalid(self):
        arr = seed_codes(encode("ACG"), 5)
        assert (arr == invalid_code(5)).all()

    def test_empty_input(self):
        assert seed_codes(encode(""), 4).shape == (0,)

    def test_invalid_code_larger_than_all_valid(self):
        assert invalid_code(11) == 4**11

    def test_dtype_int32_up_to_w15(self):
        assert seed_codes(encode("ACGTACGT"), 4).dtype == np.int32
        assert seed_codes(encode("ACGT" * 5), 15).dtype == np.int32

    def test_dtype_int64(self):
        """Codes from w = 16 need more than 31 bits."""
        arr = seed_codes(encode("T" * 20), 16)
        assert arr.dtype == np.int64
        assert arr[0] == code_of_word("T" * 16)

    @given(st.text(alphabet="ACGTN", min_size=6, max_size=60))
    def test_valid_iff_window_clean(self, s):
        w = 6
        arr = seed_codes(encode(s), w)
        bad = invalid_code(w)
        for i in range(len(s)):
            window = s[i : i + w]
            clean = len(window) == w and "N" not in window
            assert (arr[i] != bad) == clean

    def test_rejects_bad_width(self):
        with pytest.raises(ValueError):
            seed_codes(encode("ACGT"), 0)
        with pytest.raises(ValueError):
            seed_codes(encode("ACGT"), 32)
        with pytest.raises(TypeError):
            seed_codes(encode("ACGT"), 4.5)  # type: ignore[arg-type]


class TestOrderingProperty:
    """Seed order is the total order step 2 enumerates; it must match the
    integer order of codes (the paper's 'non ambiguous way')."""

    @given(st.tuples(words, words).filter(lambda t: len(t[0]) == len(t[1])))
    def test_order_is_integer_order(self, pair):
        a, b = pair
        ca, cb = code_of_word(a), code_of_word(b)
        if a == b:
            assert ca == cb
        else:
            assert ca != cb
