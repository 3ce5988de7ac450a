"""Seed indexes over a bank (paper section 2.1, figure 2).

Two interchangeable layouts are provided:

:class:`LinkedSeedIndex`
    A faithful transcription of the paper's figure 2: a *dictionary* of
    ``4**W`` entries storing, per seed code, the position of its first
    occurrence, plus an ``INDEX`` array parallel to the bank that links each
    occurrence to the next one.  This is the layout whose memory footprint
    the paper quantifies as "approximately 5 x N bytes" (section 3.1):
    4 bytes of ``INDEX`` per position + 1 byte of ``SEQ`` per position,
    plus the fixed ``4 * 4**W`` bytes of dictionary.

:class:`CsrSeedIndex`
    An equivalent compressed-sparse layout (all positions sorted by seed
    code, with per-code extents) that supports the bulk operations the
    vectorised engine needs: enumerate the codes present in *both* banks in
    increasing order and fetch the full occurrence list of a code as one
    contiguous slice.  Both layouts index exactly the same set of
    ``(code, position)`` pairs -- a property the test suite asserts.

Windows that contain an ambiguous base or cross a sequence boundary are
never indexed.  An optional boolean *mask* (from the low-complexity filter,
section 2.1: "W character words belonging to low-complexity regions are
discarded from the index") removes further windows.  An optional *stride*
indexes only every ``stride``-th position: ``stride=2`` on one of the two
banks is the paper's *asymmetric indexing* (section 3.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..encoding import invalid_code, n_seed_codes, seed_codes
from ..encoding.spaced import SpacedSeedMask, spaced_seed_codes
from ..encoding.subset import SubsetSeedMask, subset_seed_codes
from ..io.bank import Bank

__all__ = [
    "valid_window_mask", "sort_positions_by_code", "LinkedSeedIndex",
    "CsrSeedIndex", "CommonCodes",
]


def sort_positions_by_code(codes: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """``pos`` ordered by ``(codes[pos], pos)``: the code-major posting order.

    ``pos`` must hold unique positions, in any order; the segment-store
    merge passes them code-major per source.  For an ascending ``pos`` the
    result is ``pos[np.argsort(codes[pos], kind="stable")]``.  The keys
    ``code << pbits | pos`` are unique, so a plain in-place integer sort of
    them gives the ``(code, pos)`` order whatever the input order;
    ``np.lexsort`` takes over when code and position need more than 63
    bits.
    """
    pos = np.asarray(pos, dtype=np.int64)
    if pos.shape[0] < 2:
        return pos.copy()
    keys = codes[pos].astype(np.int64, copy=False)
    pbits = int(pos.max()).bit_length()
    if int(keys.max()).bit_length() + pbits > 63:
        return pos[np.lexsort((pos, keys))]
    keys <<= pbits
    keys |= pos
    keys.sort()
    keys &= (1 << pbits) - 1
    return keys


def valid_window_mask(
    bank: Bank,
    w: int,
    low_complexity_mask: np.ndarray | None = None,
    stride: int = 1,
) -> np.ndarray:
    """Boolean array: which window start positions of *bank* are indexable.

    A position is indexable when its ``w``-window contains only unambiguous
    nucleotides of a single sequence, none of its characters is masked by
    the low-complexity filter, and it survives the subsampling stride.

    Parameters
    ----------
    bank:
        The bank to index.
    w:
        Seed width.
    low_complexity_mask:
        Optional bool array over ``bank.seq`` (True = masked character).
    stride:
        Keep only positions whose *within-sequence* offset is a multiple of
        ``stride`` (so subsampling restarts at each sequence start, as the
        paper's per-sequence word enumeration does).
    """
    codes = seed_codes(bank.seq, w)
    ok = codes < invalid_code(w)
    if low_complexity_mask is not None:
        lcm = np.asarray(low_complexity_mask, dtype=bool)
        if lcm.shape != bank.seq.shape:
            raise ValueError("low_complexity_mask shape does not match bank")
        # A window is discarded if any of its w characters is masked.
        bad = lcm.astype(np.int32)
        csum = np.concatenate(([0], np.cumsum(bad)))
        n = bank.seq.shape[0]
        window_bad = np.zeros(n, dtype=bool)
        valid_len = n - w + 1
        if valid_len > 0:
            window_bad[:valid_len] = (csum[w : w + valid_len] - csum[:valid_len]) > 0
        ok &= ~window_bad
    if stride > 1:
        keep = np.zeros(bank.seq.shape[0], dtype=bool)
        for i in range(bank.n_sequences):
            s, e = bank.bounds(i)
            keep[s:e:stride] = True
        ok &= keep
    return ok


def _extra_window_mask(
    bank: Bank,
    w: int,
    low_complexity_mask: np.ndarray | None,
    stride: int,
) -> np.ndarray | bool:
    """The filter/stride part of :func:`valid_window_mask` (validity of the
    characters themselves is already known from the seed codes)."""
    if low_complexity_mask is None and stride <= 1:
        return True
    ok = np.ones(bank.seq.shape[0], dtype=bool)
    if low_complexity_mask is not None:
        lcm = np.asarray(low_complexity_mask, dtype=bool)
        if lcm.shape != bank.seq.shape:
            raise ValueError("low_complexity_mask shape does not match bank")
        bad = lcm.astype(np.int32)
        csum = np.concatenate(([0], np.cumsum(bad)))
        n = bank.seq.shape[0]
        valid_len = n - w + 1
        if valid_len > 0:
            ok[:valid_len] &= (csum[w : w + valid_len] - csum[:valid_len]) == 0
    if stride > 1:
        keep = np.zeros(bank.seq.shape[0], dtype=bool)
        for i in range(bank.n_sequences):
            s, e = bank.bounds(i)
            keep[s:e:stride] = True
        ok &= keep
    return ok


@dataclass
class LinkedSeedIndex:
    """The paper's figure-2 index: dictionary + linked occurrence list.

    ``first[code]`` is the global position of the first occurrence of
    ``code`` in the bank (or -1), and ``nxt[pos]`` is the next position
    with the same seed code (or -1).  Traversal therefore yields positions
    in increasing order, exactly like the paper's ``INDEX`` chain.
    """

    bank: Bank
    w: int
    first: np.ndarray = field(repr=False)
    nxt: np.ndarray = field(repr=False)
    n_indexed: int
    #: Per-code occurrence counts (chain lengths), computed at build time
    #: so lookups can fill a preallocated array instead of growing a
    #: Python list while walking the chain.
    counts: np.ndarray = field(repr=False, default=None)

    @classmethod
    def build(
        cls,
        bank: Bank,
        w: int,
        low_complexity_mask: np.ndarray | None = None,
        stride: int = 1,
    ) -> "LinkedSeedIndex":
        codes = seed_codes(bank.seq, w)
        ok = valid_window_mask(bank, w, low_complexity_mask, stride)
        n = bank.seq.shape[0]
        n_codes = n_seed_codes(w)
        first = np.full(n_codes, -1, dtype=np.int64)
        nxt = np.full(n, -1, dtype=np.int64)
        # Build the chains back to front so each 'first' ends up pointing at
        # the smallest position and the chain is position-ascending.
        positions = np.nonzero(ok)[0]
        for pos in positions[::-1]:
            code = codes[pos]
            nxt[pos] = first[code]
            first[code] = pos
        counts = np.bincount(
            codes[positions], minlength=n_codes
        ).astype(np.int64)
        return cls(
            bank=bank, w=w, first=first, nxt=nxt,
            n_indexed=len(positions), counts=counts,
        )

    def positions_of(self, code: int) -> np.ndarray:
        """Occurrence positions of one seed code, ascending (maybe empty).

        Traverses the figure-2 chain into a preallocated ``int64`` array
        (the chain length is known from :attr:`counts`); same contract as
        :meth:`CsrSeedIndex.positions_of`, so the two layouts are drop-in
        interchangeable for lookups.
        """
        code = int(code)
        out = np.empty(int(self.counts[code]), dtype=np.int64)
        pos = int(self.first[code])
        i = 0
        while pos >= 0:
            out[i] = pos
            i += 1
            pos = int(self.nxt[pos])
        return out

    def nbytes(self, int_bytes: int = 4, char_bytes: int = 1) -> int:
        """Memory footprint using the paper's element sizes.

        The paper's prototype uses 32-bit ``INDEX``/dictionary entries and
        1-byte characters, which is what the default arguments model (our
        NumPy arrays are int64 for indexing convenience; the *accounted*
        size is the C layout the paper describes).
        """
        dict_bytes = self.first.shape[0] * int_bytes
        index_bytes = self.nxt.shape[0] * int_bytes
        seq_bytes = self.bank.seq.shape[0] * char_bytes
        return dict_bytes + index_bytes + seq_bytes


@dataclass(frozen=True)
class CommonCodes:
    """Seed codes present in two indexes, in increasing code order.

    For each common code ``codes[k]``, its occurrences in index 1 are
    ``index1.positions[start1[k] : start1[k] + count1[k]]`` and likewise in
    index 2.  This is the work list of ORIS step 2.
    """

    codes: np.ndarray
    start1: np.ndarray
    count1: np.ndarray
    start2: np.ndarray
    count2: np.ndarray

    @property
    def n_codes(self) -> int:
        return int(self.codes.shape[0])

    @property
    def n_pairs(self) -> int:
        """Total number of hit pairs (sum over codes of count1*count2)."""
        return int((self.count1 * self.count2).sum())


class CsrSeedIndex:
    """Compressed (sorted-by-code) seed index used by the vectorised engine.

    Attributes
    ----------
    positions:
        ``int64`` global positions of every indexed window, sorted by
        (seed code, position).
    sorted_codes:
        Seed code of each entry of :attr:`positions` (non-decreasing).
    unique_codes / code_starts / code_counts:
        Per-distinct-code extents into :attr:`positions`.
    """

    __slots__ = (
        "bank",
        "w",
        "span",
        "mask",
        "positions",
        "sorted_codes",
        "unique_codes",
        "code_starts",
        "code_counts",
        "codes_at",
        "_indexed_mask",
        "_cutoff_codes",
    )

    def __init__(
        self,
        bank: Bank,
        w: int,
        low_complexity_mask: np.ndarray | None = None,
        stride: int = 1,
        mask: SpacedSeedMask | SubsetSeedMask | None = None,
    ):
        """Build the index.

        With a spaced- or subset-seed ``mask``, ``w`` is ignored: codes
        are the mask's reduced codes, and windows cover its full span
        (:attr:`span` vs :attr:`w` diverge; the extension kernels use the
        span for offsets and the codes for ordering).
        """
        self.bank = bank
        self.mask = mask
        if mask is not None:
            self.w = int(mask.weight)
            self.span = mask.span
            if isinstance(mask, SubsetSeedMask):
                codes = subset_seed_codes(bank.seq, mask)
            else:
                codes = spaced_seed_codes(bank.seq, mask)
            ok = valid_window_mask(
                bank, mask.span, low_complexity_mask, stride
            )
            ok &= codes < mask.invalid_code()
        else:
            self.w = int(w)
            self.span = int(w)
            codes = seed_codes(bank.seq, w)
            # Window validity falls out of the code computation (invalid
            # windows carry the sentinel); only the filter mask and stride
            # need extra passes.
            ok = codes < invalid_code(self.w)
            ok &= _extra_window_mask(bank, self.w, low_complexity_mask, stride)
        #: Seed code of *every* bank position (invalid sentinel where there
        #: is no valid window).  The ungapped extension kernel uses this for
        #: the ordered-seed cutoff test, so it must cover all positions, not
        #: only indexed ones.
        self.codes_at = codes
        self.positions = sort_positions_by_code(codes, np.nonzero(ok)[0])
        self.sorted_codes = codes[self.positions]
        self.unique_codes, self.code_starts, self.code_counts = _unique_runs(
            self.sorted_codes
        )
        self._indexed_mask = None
        self._cutoff_codes = None

    @classmethod
    def from_arrays(
        cls,
        bank: Bank,
        w: int,
        span: int,
        mask: SpacedSeedMask | SubsetSeedMask | None,
        positions: np.ndarray,
        sorted_codes: np.ndarray,
        unique_codes: np.ndarray,
        code_starts: np.ndarray,
        code_counts: np.ndarray,
        codes_at: np.ndarray,
    ) -> "CsrSeedIndex":
        """Reassemble an index from already-built arrays (no sorting).

        This is the deserialisation path (:mod:`repro.index.persist`): the
        arrays are trusted to satisfy the CSR invariants the constructor
        would otherwise establish.  Arrays may be read-only views (e.g.
        onto an ``mmap``\\ ed archive); nothing here writes to them.
        """
        index = cls.__new__(cls)
        index.bank = bank
        index.w = int(w)
        index.span = int(span)
        index.mask = mask
        index.positions = positions
        index.sorted_codes = sorted_codes
        index.unique_codes = unique_codes
        index.code_starts = code_starts
        index.code_counts = code_counts
        index.codes_at = codes_at
        index._indexed_mask = None
        index._cutoff_codes = None
        return index

    @property
    def indexed_mask(self) -> np.ndarray:
        """Boolean array over the bank: True where a window is indexed.

        This is the *enumerability* predicate of the ordered-seed cutoff
        (see :mod:`repro.align.ungapped`): a window excluded by validity,
        the low-complexity filter, or an asymmetric stride can never
        anchor a step-2 pair.
        """
        if self._indexed_mask is None:
            mask = np.zeros(self.bank.seq.shape[0], dtype=bool)
            mask[self.positions] = True
            self._indexed_mask = mask
        return self._indexed_mask

    @property
    def cutoff_codes(self) -> np.ndarray:
        """Seed codes with non-enumerable windows raised to the sentinel.

        Passed as ``codes1`` to the extension kernels so the cutoff only
        defers to seeds this index can actually produce.
        """
        if self._cutoff_codes is None:
            bad = (
                self.mask.invalid_code()
                if self.mask is not None
                else invalid_code(self.w)
            )
            self._cutoff_codes = np.where(self.indexed_mask, self.codes_at, bad)
        return self._cutoff_codes

    @property
    def n_indexed(self) -> int:
        """Number of indexed windows."""
        return int(self.positions.shape[0])

    def positions_of(self, code: int) -> np.ndarray:
        """Occurrence positions of one seed code, ascending (maybe empty)."""
        k = np.searchsorted(self.unique_codes, code)
        if k == len(self.unique_codes) or self.unique_codes[k] != code:
            return np.empty(0, dtype=np.int64)
        s = self.code_starts[k]
        return self.positions[s : s + self.code_counts[k]]

    def common_codes(self, other: "CsrSeedIndex") -> CommonCodes:
        """Codes present in both indexes, ascending, with extents in each.

        This realises the paper's step-2 outer loop ("for all 4**W possible
        seed s") without touching the codes that occur in only one bank,
        which the loop would skip anyway.
        """
        if other.w != self.w or other.mask != self.mask:
            raise ValueError(
                "cannot intersect indexes with different widths or masks "
                f"({self.w}/{self.mask} vs {other.w}/{other.mask})"
            )
        # Both code lists are sorted and unique, so a binary search of each
        # code of index 1 into index 2 is the merge join; the -1 past the
        # end (no code) catches codes above index 2's last.
        u1, u2 = self.unique_codes, other.unique_codes
        j = np.searchsorted(u2, u1)
        i1 = np.nonzero(np.append(u2, -1)[j] == u1)[0]
        i2 = j[i1]
        codes = u1[i1]
        return CommonCodes(
            codes=codes,
            start1=self.code_starts[i1],
            count1=self.code_counts[i1],
            start2=other.code_starts[i2],
            count2=other.code_counts[i2],
        )

    def nbytes(self, int_bytes: int = 4, char_bytes: int = 1) -> int:
        """Accounted memory footprint in the paper's C element sizes.

        The CSR layout stores one int per indexed position (positions) plus
        per-distinct-code extents; like the linked layout it is ~4 bytes per
        position + 1 byte per character + a code table.
        """
        return (
            self.positions.shape[0] * int_bytes
            + self.unique_codes.shape[0] * (int_bytes * 2)
            + self.bank.seq.shape[0] * char_bytes
        )

    def record_metrics(self, registry, label: str) -> None:
        """Record step-1 shape metrics into a :class:`MetricsRegistry`.

        ``label`` distinguishes the two banks (``"bank1"``/``"bank2"``).
        The occurrences-per-code histogram is the quantity step 2's
        cartesian product is quadratic in, so it is the first thing to
        look at when a comparison is unexpectedly slow.
        """
        registry.inc(f"step1.windows_indexed.{label}", self.n_indexed)
        registry.inc(
            f"step1.distinct_codes.{label}", int(self.unique_codes.shape[0])
        )
        registry.observe_array(
            f"step1.occurrences_per_code.{label}", self.code_counts
        )


def _unique_runs(sorted_values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(unique values, run starts, run lengths) of a sorted array."""
    n = sorted_values.shape[0]
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty.copy(), empty.copy()
    boundary = np.empty(n, dtype=bool)
    boundary[0] = True
    np.not_equal(sorted_values[1:], sorted_values[:-1], out=boundary[1:])
    starts = np.nonzero(boundary)[0].astype(np.int64)
    counts = np.diff(np.concatenate((starts, [n]))).astype(np.int64)
    return sorted_values[starts].copy(), starts, counts
