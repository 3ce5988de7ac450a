"""Spaced seeds (paper section 1's sensitivity lineage, composed with ORIS).

The paper positions ORIS as orthogonal to the spaced-seed line of work
(PatternHunter [8], Yass [11], subset seeds [12]): "This paper introduces
a new way of manipulating seeds, not focusing on a better sensitivity,
but targeting a faster execution time."  This module demonstrates that
the two compose: a spaced seed is a mask like ``111010010100110111``
(PatternHunter's weight-11 seed) whose ``1`` positions must match; its
integer code is the little-endian base-4 value of the masked characters,
which is a total order over spaced seeds exactly like the contiguous
case, so the ordered-seed cutoff carries over (with the match test done
by code equality instead of the contiguous run counter -- see
:mod:`repro.align.ungapped`).

Definitions: a mask's **span** is its total length, its **weight** the
number of sampled (``1``) positions.  Masks must start and end with ``1``
(a standard normalisation; anything else is equivalent to a shorter
mask).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import INVALID
from .seeds import MAX_SEED_WIDTH, code_dtype

__all__ = ["SpacedSeedMask", "spaced_seed_codes", "PATTERNHUNTER_11_18"]

#: PatternHunter's classic weight-11, span-18 seed (Ma, Tromp & Li 2002).
PATTERNHUNTER_11_18 = "111010010100110111"


@dataclass(frozen=True)
class SpacedSeedMask:
    """A parsed spaced-seed mask."""

    pattern: str

    def __post_init__(self) -> None:
        if not self.pattern or set(self.pattern) - {"0", "1"}:
            raise ValueError(f"mask must be a non-empty 0/1 string: {self.pattern!r}")
        if self.pattern[0] != "1" or self.pattern[-1] != "1":
            raise ValueError("mask must start and end with '1'")
        if self.weight > MAX_SEED_WIDTH:
            raise ValueError(f"mask weight {self.weight} exceeds {MAX_SEED_WIDTH}")

    @property
    def span(self) -> int:
        """Total window length the mask covers."""
        return len(self.pattern)

    @property
    def weight(self) -> int:
        """Number of sampled positions."""
        return self.pattern.count("1")

    @property
    def offsets(self) -> np.ndarray:
        """Offsets of the sampled positions within the window."""
        return np.array([i for i, c in enumerate(self.pattern) if c == "1"],
                        dtype=np.int64)

    @property
    def is_contiguous(self) -> bool:
        return "0" not in self.pattern

    def n_codes(self) -> int:
        """Size of the spaced-seed code space (``4**weight``)."""
        return 4 ** self.weight

    def invalid_code(self) -> int:
        """Sentinel for windows that are not valid spaced seeds."""
        return self.n_codes()


def spaced_seed_codes(codes: np.ndarray, mask: SpacedSeedMask) -> np.ndarray:
    """Spaced-seed code of the window starting at every position.

    Entry ``i`` is ``sum_j 4**j * codes[i + offsets[j]]`` when the whole
    *span* lies inside the array and contains only valid nucleotides
    (don't-care positions included: a separator anywhere in the span
    would let a "seed" bridge two sequences); otherwise the sentinel
    ``mask.invalid_code()``.
    """
    arr = np.asarray(codes, dtype=np.int8)
    n = arr.shape[0]
    span = mask.span
    bad = mask.invalid_code()
    dtype = code_dtype(bad)
    out = np.full(n, bad, dtype=dtype)
    if n < span:
        return out
    valid_len = n - span + 1
    # Validity over the full span (cumulative count of invalid chars).
    csum = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(arr >= INVALID, out=csum[1:])
    ok = csum[span : span + valid_len] == csum[:valid_len]
    acc = np.zeros(valid_len, dtype=dtype)
    for j, off in enumerate(mask.offsets):
        col = np.clip(arr[off : off + valid_len], 0, 3).astype(dtype)
        col *= 4**j
        acc += col
    np.copyto(out[:valid_len], acc, where=ok)
    return out
