"""Tests for the low-complexity filters (repro.filters)."""

import hashlib

import numpy as np
import pytest

from repro.data import load_bank
from repro.data.synthetic import random_dna
from repro.encoding import encode
from repro.filters import dust_mask, dust_scores, entropy_mask, entropy_scores, make_filter_mask
from repro.filters import dust
from repro.filters.dust import _recent_occurrence_counts, _triplet_codes
from repro.io.bank import Bank


class TestDust:
    def test_polya_fully_masked(self, rng):
        b = Bank.from_strings([("r", random_dna(rng, 500)), ("p", "A" * 120)])
        m = dust_mask(b)
        s, e = b.bounds(1)
        assert m[s:e].all()

    def test_dinucleotide_repeat_masked(self, rng):
        b = Bank.from_strings([("x", random_dna(rng, 200) + "AT" * 50 + random_dna(rng, 200))])
        m = dust_mask(b)
        s, _ = b.bounds(0)
        tract = m[s + 200 : s + 300]
        assert tract.mean() > 0.9

    def test_random_mostly_unmasked(self, rng):
        b = Bank.from_strings([("r", random_dna(rng, 20000))])
        m = dust_mask(b)
        s, e = b.bounds(0)
        assert m[s:e].mean() < 0.05

    def test_scores_higher_on_repeats(self, rng):
        rand = encode(random_dna(rng, 300))
        poly = encode("A" * 300)
        assert dust_scores(poly).max() > 10 * max(dust_scores(rand).max(), 1e-9)

    def test_mask_shape(self, rng):
        b = Bank.from_strings([("r", random_dna(rng, 100))])
        assert dust_mask(b).shape == b.seq.shape

    def test_accepts_raw_array(self, rng):
        arr = encode("A" * 200)
        assert dust_mask(arr).any()

    def test_window_validation(self):
        with pytest.raises(ValueError):
            dust_scores(encode("ACGT" * 30), window=4)

    def test_threshold_monotone(self, rng):
        b = Bank.from_strings([("x", random_dna(rng, 300) + "CACA" * 20)])
        lo = dust_mask(b, threshold=5.0).sum()
        hi = dust_mask(b, threshold=50.0).sum()
        assert hi <= lo

    def test_separators_do_not_bridge_sequences(self, rng):
        # Two half-tracts split by a separator must not merge into a
        # single masked region spilling across sequences...
        b = Bank.from_strings([("a", random_dna(rng, 400)), ("b", random_dna(rng, 400))])
        m = dust_mask(b)
        s0, e0 = b.bounds(0)
        assert m[s0:e0].mean() < 0.1


def _brute_recent_counts(triplets: np.ndarray, lookback: int) -> np.ndarray:
    """Earlier equal valid triplets less than ``lookback`` positions back."""
    t = triplets.tolist()
    out = np.zeros(len(t), dtype=np.int64)
    for j, tj in enumerate(t):
        if tj < 64:
            out[j] = sum(t[i] == tj for i in range(max(0, j - lookback + 1), j))
    return out


class TestDustOracle:
    @pytest.mark.parametrize("window", [8, 64, 200])
    @pytest.mark.parametrize("alphabet", [2, 5])  # 5 includes the N code
    def test_recent_counts_match_brute_force(self, window, alphabet):
        lookback = window - 2
        rng = np.random.default_rng(window * 10 + alphabet)
        for n in sorted({0, 1, 2, 3, lookback - 1, lookback, lookback + 1, 300}):
            codes = rng.integers(0, alphabet, n).astype(np.int8)
            codes[rng.random(n) < 0.05] = 4  # scattered invalid bases
            triplets = _triplet_codes(codes)
            got = _recent_occurrence_counts(triplets, lookback)
            assert got.dtype == np.min_scalar_type(lookback)
            np.testing.assert_array_equal(
                got, _brute_recent_counts(triplets, lookback), err_msg=f"n={n}"
            )

    @pytest.mark.parametrize("run_chars", [1, 700, 1 << 18])
    @pytest.mark.parametrize("window", [8, 64])
    def test_bank_mask_is_per_sequence(self, monkeypatch, run_chars, window):
        """Scoring many sequences in one run masks each as if alone."""
        monkeypatch.setattr(dust, "_RUN_CHARS", run_chars)
        rng = np.random.default_rng(window + run_chars)
        seqs = []
        for length in rng.integers(1, 400, 60):
            s = list(random_dna(rng, int(length)))
            a = int(rng.integers(0, length))
            s[a : a + 80] = "A" * 80  # low-complexity tract, often cut short
            seqs.append("".join(s)[:length])
        b = Bank.from_strings(seqs)
        got = dust_mask(b, window=window)
        want = np.zeros_like(got)
        for i in range(b.n_sequences):
            lo, hi = b.bounds(i)
            want[lo:hi] = dust_mask(np.array(b.seq[lo:hi]), window=window)
        assert want.any()
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("threshold", [-1.0, 0.0, 5.0, 12.5, 20.0, 33.3])
    @pytest.mark.parametrize("window", [8, 64])
    def test_integer_threshold_test_equals_scores(self, threshold, window):
        """The mask's cross-multiplied integer test marks the window
        ends whose float score exceeds the threshold."""
        rng = np.random.default_rng(window)
        s = list(random_dna(rng, 900))
        s[100:180] = "A" * 80
        s[400:470] = "CAG" * 23 + "C"
        s[600:640] = "ACGTTGCA" * 5
        codes = encode("".join(s))
        scores = dust_scores(codes, window=window)
        want = np.zeros(codes.shape[0], dtype=bool)
        for j in np.flatnonzero(scores > threshold):
            want[max(j - window + 1, 0) : j + 3] = True
        got = dust_mask(codes, window=window, threshold=threshold)
        np.testing.assert_array_equal(got, want)

    def test_bench_h10_mask_pinned(self):
        """The mask of the benchmark's H10 bank (seed 20080407) is the
        one the grouping-sort implementation produced."""
        mask = dust_mask(load_bank("H10", seed=20080407))
        assert int(mask.sum()) == 16514
        assert hashlib.sha256(np.packbits(mask).tobytes()).hexdigest() == (
            "18912b06c84e2946ddaf380415b4ff7ce91ef2cf26c7dec6a162a06872a57cac"
        )


class TestEntropy:
    def test_polya_zero_entropy(self):
        scores = entropy_scores(encode("A" * 100))
        assert scores[-1] == pytest.approx(0.0)

    def test_random_high_entropy(self, rng):
        scores = entropy_scores(encode(random_dna(rng, 2000)))
        assert scores[200:].mean() > 1.8

    def test_mask_polya(self, rng):
        b = Bank.from_strings([("r", random_dna(rng, 300)), ("p", "T" * 100)])
        m = entropy_mask(b)
        s, e = b.bounds(1)
        assert m[s:e].mean() > 0.9

    def test_random_unmasked(self, rng):
        b = Bank.from_strings([("r", random_dna(rng, 5000))])
        m = entropy_mask(b)
        assert m.mean() < 0.02

    def test_window_validation(self):
        with pytest.raises(ValueError):
            entropy_scores(encode("ACGT"), window=2)

    def test_empty_input(self):
        assert entropy_scores(encode("")).shape == (0,)
        assert entropy_mask(encode("")).shape == (0,)


class TestDegenerateInputs:
    """Filters must handle pathological inputs without crashing or
    masking spuriously: empty sequences, all-N records (every code is the
    INVALID sentinel after encoding), and sequences shorter than the
    scoring window."""

    def test_dust_empty_input(self):
        assert dust_scores(encode("")).shape == (0,)
        assert dust_mask(encode("")).shape == (0,)

    def test_dust_all_n_sequence(self):
        codes = encode("N" * 200)
        scores = dust_scores(codes)
        assert scores.shape == (200,)
        assert (scores == 0.0).all()  # no valid triplet, nothing to score
        assert not dust_mask(codes).any()

    def test_dust_shorter_than_window(self, rng):
        seq = random_dna(rng, 20)  # window default is 64
        scores = dust_scores(encode(seq))
        assert scores.shape == (20,)
        assert np.isfinite(scores).all()
        assert not dust_mask(encode(seq)).any()

    def test_dust_shorter_than_triplet(self):
        for seq in ("", "A", "AC"):
            mask = dust_mask(encode(seq))
            assert mask.shape == (len(seq),)
            assert not mask.any()

    def test_dust_short_repeat_still_masked(self):
        # Shorter than the window but long enough to be pure repeat: the
        # partial-window score must still catch it.
        assert dust_mask(encode("A" * 40)).any()

    def test_entropy_all_n_sequence(self):
        codes = encode("N" * 200)
        scores = entropy_scores(codes)
        assert (scores == 2.0).all()  # empty windows score max entropy
        assert not entropy_mask(codes).any()

    def test_entropy_shorter_than_window(self, rng):
        seq = random_dna(rng, 10)
        scores = entropy_scores(encode(seq))
        assert scores.shape == (10,)
        assert np.isfinite(scores).all()

    def test_entropy_short_input_never_masks(self, rng):
        # Half-full-window guard: windows mostly hanging off the sequence
        # start cannot mask, even when their few characters are skewed.
        assert not entropy_mask(encode("AAAA")).any()

    def test_bank_with_empty_and_all_n_sequences(self, rng):
        b = Bank.from_strings(
            [("r", random_dna(rng, 300)), ("n", "N" * 80), ("tiny", "AC")]
        )
        for mask in (dust_mask(b), entropy_mask(b)):
            assert mask.shape == b.seq.shape
            s, e = b.bounds(1)
            assert not mask[s:e].any()

    def test_mixed_n_tract_does_not_bridge(self, rng):
        # A long N tract between two random halves must not cause the
        # surrounding unique sequence to be masked.
        seq = random_dna(rng, 200) + "N" * 100 + random_dna(rng, 200)
        m = dust_mask(encode(seq))
        assert m[:200].mean() < 0.1
        assert m[300:].mean() < 0.1


class TestDispatch:
    def test_none_returns_none(self, small_bank):
        assert make_filter_mask(small_bank, "none") is None
        assert make_filter_mask(small_bank, None) is None

    def test_dust_dispatch(self, small_bank):
        m = make_filter_mask(small_bank, "dust")
        assert m is not None and m.dtype == bool

    def test_entropy_dispatch(self, small_bank):
        m = make_filter_mask(small_bank, "entropy")
        assert m is not None

    def test_unknown_rejected(self, small_bank):
        with pytest.raises(ValueError):
            make_filter_mask(small_bank, "unknown")
