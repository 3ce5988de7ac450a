"""Seed-code arithmetic (paper section 2.1).

A seed is a word of ``W`` nucleotides.  Its integer code is::

    codeSEED(S) = sum_{i < W} 4**i * codeNT(S_i)

Note the *little-endian* weighting: the **first** character of the word
carries weight ``4**0``.  This is the paper's definition and it fixes the
total order in which step 2 of the ORIS algorithm enumerates seeds, so we
keep it exactly (a big-endian code would enumerate seeds in a different
order and change which occurrence of an HSP is its canonical generator --
the algorithm would still be correct, but it would not be the paper's).

:func:`seed_codes` computes the code of the window starting at every
position of an encoded sequence in ``O(log W)`` vectorised passes.
Windows that contain an invalid character (``N`` or a bank separator) or
that run off the end of the array receive the sentinel
:data:`invalid_code`, which is larger than every valid code so it can
never satisfy the ordered-seed cutoff (``code <= start_code``) by
accident.
"""

from __future__ import annotations

import numpy as np

from .codes import INVALID, encode, decode

__all__ = [
    "MAX_SEED_WIDTH",
    "invalid_code",
    "code_dtype",
    "n_seed_codes",
    "seed_codes",
    "code_of_word",
    "word_of_code",
]

#: Largest supported seed width.  ``4**31`` overflows int64 multiplication
#: headroom we reserve; widths beyond 31 are far outside the paper's regime
#: (the paper uses W = 11 and an asymmetric W = 10 variant).
MAX_SEED_WIDTH: int = 31


def _check_width(w: int) -> None:
    if not isinstance(w, (int, np.integer)):
        raise TypeError(f"seed width must be an int, got {type(w).__name__}")
    if not 1 <= int(w) <= MAX_SEED_WIDTH:
        raise ValueError(f"seed width must be in [1, {MAX_SEED_WIDTH}], got {w}")


def n_seed_codes(w: int) -> int:
    """Number of distinct seed codes of width ``w`` (the paper's ``4**W``)."""
    _check_width(w)
    return 4 ** int(w)


def invalid_code(w: int) -> int:
    """Sentinel code assigned to windows that are not valid seeds.

    It equals ``4**w`` and therefore compares strictly greater than every
    valid seed code, which is what the ordered-seed cutoff requires.
    """
    return n_seed_codes(w)


def code_dtype(sentinel: int) -> np.dtype:
    """Dtype of seed codes whose invalid sentinel is ``sentinel``.

    int32 while the sentinel (above every valid code) is below ``2**31``:
    contiguous seeds up to ``w = 15`` and spaced or subset masks whose
    ``invalid_code()`` fits; int64 beyond.
    """
    return np.dtype(np.int32 if sentinel < 1 << 31 else np.int64)


def seed_codes(codes: np.ndarray, w: int) -> np.ndarray:
    """Compute the seed code of every window of width ``w``.

    Parameters
    ----------
    codes:
        Encoded sequence (``int8`` values in ``{0..4}``) of length ``n``.
    w:
        Seed width.

    Returns
    -------
    numpy.ndarray
        Array of length ``n`` in :func:`code_dtype` (int32 up to
        ``w = 15``).  Entry ``i`` is
        ``codeSEED(codes[i:i+w])`` when that window lies fully inside the
        array and contains only valid nucleotides; otherwise it is
        :func:`invalid_code`.
    """
    _check_width(w)
    arr = np.asarray(codes, dtype=np.int8)
    n = arr.shape[0]
    w = int(w)
    bad = invalid_code(w)
    dtype = code_dtype(bad)
    out = np.full(n, bad, dtype=dtype)
    if n < w:
        return out

    # Codes of power-of-two widths by doubling -- the width-2k code at
    # ``i`` is the width-k code at ``i`` plus ``4**k`` times the one at
    # ``i + k`` -- and the widths of w's binary digits appended low to
    # high, in the output dtype.  Invalid characters pack as ``c & 3``;
    # their windows are masked below.
    part = (arr & 3).astype(dtype)  # codes of width 1
    acc = None  # codes of the first ``done`` characters of each window
    done = 0
    width = 1
    while True:
        if w & width:
            span = n - done - width + 1
            tail = part[done : done + span]
            acc = tail if acc is None else acc[:span] + (4**done) * tail
            done += width
        if 2 * width > w:
            break
        part = part[:-width] + (4**width) * part[width:]
        width *= 2

    # A window is valid iff it holds no invalid character: one cumsum.
    valid_len = n - w + 1
    n_bad = np.zeros(n + 1, dtype=np.int32 if n < 1 << 31 else np.int64)
    np.cumsum(arr >= INVALID, out=n_bad[1:])
    np.copyto(out[:valid_len], acc, where=n_bad[w:] == n_bad[:valid_len])
    return out


def code_of_word(word: str) -> int:
    """Code of a single seed word given as a string.

    Raises ``ValueError`` if the word contains non-ACGT characters.
    """
    arr = encode(word)
    if arr.size == 0:
        raise ValueError("empty seed word")
    _check_width(arr.size)
    if (arr >= INVALID).any():
        raise ValueError(f"seed word contains non-ACGT characters: {word!r}")
    weights = 4 ** np.arange(arr.size, dtype=np.int64)
    return int((arr.astype(np.int64) * weights).sum())


def word_of_code(code: int, w: int) -> str:
    """Inverse of :func:`code_of_word` for a given width."""
    _check_width(w)
    code = int(code)
    if not 0 <= code < n_seed_codes(w):
        raise ValueError(f"code {code} out of range for width {w}")
    digits = np.empty(w, dtype=np.int8)
    for i in range(w):
        digits[i] = code % 4
        code //= 4
    return decode(digits)
