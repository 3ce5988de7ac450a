"""Subset seeds (the paper's reference [12], composed with ORIS ordering).

Kucherov, Noe & Roytberg's *subset seeds* generalise spaced seeds: each
seed position may require an exact nucleotide match (``#``), accept any
character (``-``, a don't-care), or accept a match *up to transition*
(``@``: A<->G and C<->T, the most frequent substitution class in real
DNA).  The paper cites this line of work ([12], and [15] implements it on
FPGA hardware with Lavenier as an author) as the expressiveness frontier
of seed design; this module composes it with the ORIS ordering exactly
like spaced seeds: a subset seed's code is a mixed-radix integer (base 4
per ``#``, base 2 per ``@``), which is again a total order, so the
ordered cutoff carries over via code equality.

A pleasant consequence of the paper's nucleotide code (A=00, C=01, T=10,
G=11): the transition class of a character is simply whether its two bits
are equal -- purines {A=00, G=11} have equal bits, pyrimidines {C=01,
T=10} differ -- so the ``@``-digit is one XOR away.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .codes import INVALID
from .seeds import MAX_SEED_WIDTH, code_dtype

__all__ = ["SubsetSeedMask", "subset_seed_codes", "TRANSITION_EXAMPLE_9_3"]

#: An example subset mask: 9 exact positions, 3 transition-tolerant, span 14
#: (in the style of Noe & Kucherov's YASS seeds).
TRANSITION_EXAMPLE_9_3 = "#@##-#@#-##@##"


@dataclass(frozen=True)
class SubsetSeedMask:
    """A parsed subset-seed mask over the alphabet ``{#, @, -}``.

    ``#`` = exact nucleotide match (4 classes);
    ``@`` = match up to transition (2 classes: purine/pyrimidine);
    ``-`` = don't care.
    """

    pattern: str

    def __post_init__(self) -> None:
        if not self.pattern or set(self.pattern) - {"#", "@", "-"}:
            raise ValueError(
                f"mask must be a non-empty string over #/@/-: {self.pattern!r}"
            )
        if self.pattern[0] != "#" or self.pattern[-1] != "#":
            # The ordered cutoff probes candidate seeds at exactly-matching
            # scan positions, so the first and last mask positions must be
            # exact (#).  (Same normalisation as spaced masks' 1...1.)
            raise ValueError("mask must start and end with an exact (#) position")
        if self.n_exact == 0:
            raise ValueError("mask needs at least one exact (#) position")
        # Code-space bound comparable to contiguous widths.
        if self.n_exact + self.n_transition > 2 * MAX_SEED_WIDTH:
            raise ValueError("mask too wide")

    @property
    def span(self) -> int:
        return len(self.pattern)

    @property
    def n_exact(self) -> int:
        return self.pattern.count("#")

    @property
    def n_transition(self) -> int:
        return self.pattern.count("@")

    @property
    def weight(self) -> float:
        """Selectivity-equivalent weight: ``#`` counts 1, ``@`` counts 1/2
        (a transition class halves the alphabet instead of quartering)."""
        return self.n_exact + self.n_transition / 2.0

    def n_codes(self) -> int:
        """Mixed-radix code-space size (``4**# * 2**@``)."""
        return 4**self.n_exact * 2**self.n_transition

    def invalid_code(self) -> int:
        return self.n_codes()


def subset_seed_codes(codes: np.ndarray, mask: SubsetSeedMask) -> np.ndarray:
    """Subset-seed code of the window starting at every position.

    Mixed-radix little-endian accumulation over the mask's non-don't-care
    positions; windows touching an invalid character anywhere in the span
    (including don't-cares -- separator bridging) get the sentinel.
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
    csum = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(arr >= INVALID, out=csum[1:])
    ok = csum[span : span + valid_len] == csum[:valid_len]
    acc = np.zeros(valid_len, dtype=dtype)
    radix = 1
    for off, kind in enumerate(mask.pattern):
        if kind == "-":
            continue
        col = arr[off : off + valid_len].astype(dtype)
        col = np.where((col >= 0) & (col < INVALID), col, 0)
        if kind == "#":
            digit = col
            base = 4
        else:  # "@": transition class = equality of the two code bits
            digit = 1 - ((col & 1) ^ (col >> 1))
            base = 2
        acc += radix * digit
        radix *= base
    np.copyto(out[:valid_len], acc, where=ok)
    return out
