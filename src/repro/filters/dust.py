"""DUST-style low-complexity masking (paper section 2.1).

The paper: "To eliminate non interesting alignments made of small repeats,
a low complexity filter can be activated before indexing.  In that case, W
character words belonging to low-complexity regions are discarded from the
index."  Section 3.4 adds that "the SCORIS-N low complexity filter presents
some difference with the dust filter included in BLASTN" -- i.e. the paper
itself uses a DUST-*like* filter, not NCBI's exact DUST.

This module implements a windowed triplet-pair score in the spirit of DUST
(Morgulis et al. 2006).  For a window of ``window`` characters containing
``k`` triplets with per-triplet counts ``c_t``, DUST's score is::

    score = 10 * sum_t c_t * (c_t - 1) / 2 / (k - 1)

and a region is low-complexity when the score exceeds a threshold
(NCBI default 20).  We compute, for every position ``j``, the number of
*earlier* occurrences of the triplet starting at ``j`` within the trailing
``window``; the sliding sum of that statistic over a window equals the
number of equal-triplet pairs inside the window, up to boundary pairs that
straddle the window start (a small systematic overcount that makes the
filter marginally more aggressive -- acceptable for a filter, and
documented here).  The statistic costs O(n * window): one vectorised
int8 equality pass per lag.  At the fixed window of 64 that is 61 passes
over a byte array, cheaper than the sort a per-triplet grouping needs.
The passes cost a fixed ~180 NumPy calls however short the input, so a
bank's sequences are scored together in runs of up to ``_RUN_CHARS``
characters, laid out a window apart so that each is still scored alone;
a bank of short ESTs pays that fixed cost once per run, not per sequence.
"""

from __future__ import annotations

import numpy as np

from ..encoding import INVALID
from ..io.bank import Bank

__all__ = ["dust_mask", "dust_scores", "DEFAULT_WINDOW", "DEFAULT_THRESHOLD"]

#: DUST defaults (NCBI uses window 64, threshold score 20).
DEFAULT_WINDOW: int = 64
DEFAULT_THRESHOLD: float = 20.0

_TRIPLET_INVALID = 64  # sentinel for triplets touching an invalid character


def _triplet_codes(codes: np.ndarray) -> np.ndarray:
    """Code (0..63) of the triplet starting at each position, or sentinel."""
    arr = np.asarray(codes, dtype=np.int8)
    n = arr.shape[0]
    out = np.full(n, _TRIPLET_INVALID, dtype=np.int8)
    if n < 3:
        return out
    a, b, c = arr[:-2], arr[1:-1], arr[2:]
    ok = (a < INVALID) & (b < INVALID) & (c < INVALID)
    out[: n - 2] = np.where(ok, a + 4 * b + 16 * c, _TRIPLET_INVALID)
    return out


def _recent_occurrence_counts(triplets: np.ndarray, lookback: int) -> np.ndarray:
    """For each position, # earlier occurrences of its triplet within lookback.

    An occurrence ``d`` positions back counts when ``0 < d < lookback``;
    invalid triplets contribute and receive zero.  One vectorised equality
    pass per lag, counted in the narrowest type that holds ``lookback``.
    """
    n = triplets.shape[0]
    t = triplets.astype(np.int8, copy=False)
    rep = np.zeros(n, dtype=np.min_scalar_type(lookback))
    for d in range(1, min(lookback, n)):
        rep[d:] += t[d:] == t[:-d]
    rep[t == _TRIPLET_INVALID] = 0
    return rep


#: The score is ``_SCALE * pairs / (k - 1)``.  The trailing-window
#: statistic counts, in addition to the pairs fully inside the window,
#: pairs whose earlier member lies up to ``lookback`` characters before the
#: window start.  On stationary sequence that is an almost exact 2x
#: overcount (k*k/64 vs C(k,2)/64 expected pairs), so DUST's factor 10 is
#: halved to keep its score scale and its threshold of 20.
_SCALE = 5


def dust_scores(
    codes: np.ndarray, window: int = DEFAULT_WINDOW
) -> np.ndarray:
    """Per-window DUST-like score, reported at each window *end* position.

    ``scores[j]`` is the score of the window of ``window`` characters ending
    at (and including) position ``j``; positions with fewer than ``window``
    preceding characters score their partial window.
    """
    pairs, denom, _seq_of, _local = _run_scores(
        np.asarray(codes), np.zeros(1, dtype=np.int64), window
    )
    return _SCALE * pairs / denom


def _run_scores(
    codes: np.ndarray, run_lo: np.ndarray, window: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Score terms of a run of sequences, each scored as if alone.

    ``run_lo`` holds the ascending start offsets of the sequences in
    ``codes`` (``run_lo[0] == 0``); whatever lies between two sequences is
    scored too and must be ignored by the caller.  The sequences are laid
    out ``window`` invalid characters apart, so no triplet pair and no
    window sum reaches from one sequence into another, and the lag passes
    run once for the whole run.  Returns, per position, the window's pair
    count and the ``k - 1`` it is divided by (the score is ``_SCALE *
    pairs / denom``), the position's sequence index and its offset within
    that sequence, all in int32 while the sums fit.
    """
    if window < 8:
        raise ValueError(f"window must be >= 8, got {window}")
    lookback = window - 2  # number of triplet positions per window
    n = codes.shape[0]
    size = n + window * (run_lo.shape[0] - 1)  # the spaced layout
    idx = np.int32 if size * lookback < 1 << 31 else np.int64
    seq_of = np.zeros(n, dtype=idx)
    seq_of[run_lo[1:]] = 1
    np.cumsum(seq_of, out=seq_of)
    at = np.arange(n, dtype=idx)
    local = at - run_lo.astype(idx)[seq_of]
    at += window * seq_of  # position in the spaced layout
    spaced = np.full(size, INVALID, dtype=codes.dtype)
    spaced[at] = codes
    rep = _recent_occurrence_counts(_triplet_codes(spaced), lookback)
    # Trailing sums over `lookback` counts.  Before each sequence lie >=
    # lookback zero counts, so the sums need no per-sequence clamp.
    csum = np.cumsum(rep, dtype=idx)
    window_sums = csum.copy()
    window_sums[lookback:] -= csum[:-lookback]
    # k - 1 for the k = min(local + 1, lookback) triplets in the window.
    denom = np.clip(local, 1, lookback - 1)
    return window_sums[at], denom, seq_of, local


#: Sequences are scored in runs of about this many characters: enough to
#: spread the lag passes' fixed cost over many short sequences, few enough
#: to keep the run's scratch arrays small.
_RUN_CHARS: int = 1 << 18


def dust_mask(
    bank: Bank | np.ndarray,
    window: int = DEFAULT_WINDOW,
    threshold: float = DEFAULT_THRESHOLD,
) -> np.ndarray:
    """Boolean low-complexity mask over a bank's concatenated array.

    ``True`` marks characters inside some window whose DUST-like score
    exceeds *threshold*; the seed indexer then drops every word overlapping
    a masked character (paper section 2.1).

    Accepts either a :class:`~repro.io.bank.Bank` (masked **per
    sequence**, so a bank's masking is independent of its concatenation
    order) or a raw code array (single-sequence semantics).
    """
    if isinstance(bank, Bank):
        seq, starts, ends = bank.seq, bank.starts, bank.starts + bank.lengths
    else:
        seq = np.asarray(bank)
        starts, ends = np.zeros(1, dtype=np.int64), np.array([seq.shape[0]])
    mask = np.zeros(seq.shape[0], dtype=bool)
    i = 0
    while i < starts.shape[0]:
        j = max(i + 1, int(np.searchsorted(ends, starts[i] + _RUN_CHARS, "right")))
        lo, hi = int(starts[i]), int(ends[j - 1])
        mask[lo:hi] = _dust_mask_runs(
            seq[lo:hi], starts[i:j] - lo, ends[i:j] - lo, window, threshold
        )
        i = j
    return mask


def _dust_mask_runs(
    codes: np.ndarray,
    run_lo: np.ndarray,
    run_hi: np.ndarray,
    window: int,
    threshold: float,
) -> np.ndarray:
    """Mask of the sequences ``codes[run_lo[i]:run_hi[i]]``, each alone."""
    n = codes.shape[0]
    pairs, denom, seq_of, local = _run_scores(codes, run_lo, window)
    # score > threshold, cross-multiplied: _SCALE * pairs > threshold *
    # denom, against floor(threshold * d) for each denominator d (the
    # left side is an integer), clipped to what a window can reach.
    top = _SCALE * window * window
    limit = np.clip(np.floor(threshold * np.arange(window - 2)), -1, top)
    pairs *= _SCALE
    hot_end = pairs > limit.astype(pairs.dtype)[denom]
    hot_end &= local < (run_hi - run_lo).astype(local.dtype)[seq_of]
    if not hot_end.any():
        return np.zeros(n, dtype=bool)
    # A window end at j masks characters [j - window + 1, j + 2] of its
    # sequence (the last triplet starts at j and covers j..j+2).  Dilate
    # via a difference array.
    diff = np.zeros(n + 1, dtype=local.dtype)
    ends = np.flatnonzero(hot_end)
    lo = np.maximum(ends - window + 1, run_lo[seq_of[ends]])
    hi = np.minimum(ends + 3, run_hi[seq_of[ends]])
    np.add.at(diff, lo, 1)
    np.add.at(diff, hi, -1)
    return np.cumsum(diff[:-1]) > 0
