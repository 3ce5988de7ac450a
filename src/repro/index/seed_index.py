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
    "valid_window_mask", "position_dtype", "sort_postings",
    "LinkedSeedIndex", "CsrSeedIndex", "CommonCodes",
]


#: Headroom kept below 2**31 by :func:`position_dtype`, so a position
#: plus any window offset or padding a kernel adds to it stays in int32.
POSITION_MARGIN: int = 1 << 16


def position_dtype(n: int) -> np.dtype:
    """Dtype of positions (and posting offsets) into an ``n``-slot bank.

    int32 while ``n`` plus :data:`POSITION_MARGIN` is below ``2**31``
    (the paper's 4-byte ``INDEX`` entries), int64 beyond.
    """
    return np.dtype(np.int32 if n + POSITION_MARGIN < 1 << 31 else np.int64)


def sort_postings(
    codes: np.ndarray, ok: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The CSR postings of the windows ``ok`` of a bank with seed ``codes``.

    Returns ``(positions, unique_codes, code_starts)``: the positions
    where ``ok`` is set, ordered by ``(codes[pos], pos)`` in the bank's
    :func:`position_dtype`; the distinct codes ascending, in the dtype of
    ``codes``; and the ``n_distinct + 1`` offsets of each code's run in
    ``positions``.

    The positions start out ascending and become the low bits of the
    keys ``code << pbits | pos``.  Those are unique, so one in-place
    integer sort gives the ``(code, pos)`` order; the positions are
    masked out of the sorted keys straight into their narrow dtype, and
    the keys shifted back are the sorted codes whose runs give the
    offsets.  When code and position need more than 63 bits, a stable
    argsort of the codes gives the same order.
    """
    pdt = position_dtype(codes.shape[0])
    keys = np.flatnonzero(ok)  # ascending positions: the sort-key buffer
    m = keys.shape[0]
    if m == 0:
        return np.empty(0, pdt), np.empty(0, codes.dtype), np.zeros(1, pdt)
    pbits = int(keys[-1]).bit_length()
    high = codes[keys]
    if int(high.max()).bit_length() + pbits > 63:
        order = np.argsort(high, kind="stable")
        positions = keys[order].astype(pdt)
        keys = high[order].astype(np.int64)
    else:
        high = np.left_shift(high, pbits, dtype=np.int64)
        keys |= high
        del high
        keys.sort()
        positions = np.empty(m, pdt)
        np.bitwise_and(keys, (1 << pbits) - 1, out=positions, casting="unsafe")
        keys >>= pbits
    head = np.empty(m, dtype=bool)
    head[0] = True
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    unique_codes = keys[head].astype(codes.dtype)
    del keys  # the largest scratch array goes before the offsets come
    code_starts = np.empty(unique_codes.shape[0] + 1, pdt)
    code_starts[:-1] = np.flatnonzero(head)
    code_starts[-1] = m
    return positions, unique_codes, code_starts


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
    ok = seed_codes(bank.seq, w) < invalid_code(w)
    ok &= _extra_window_mask(bank, w, low_complexity_mask, stride)
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
    n = bank.seq.shape[0]
    ok = np.ones(n, dtype=bool)
    if low_complexity_mask is not None:
        lcm = np.asarray(low_complexity_mask, dtype=bool)
        if lcm.shape != bank.seq.shape:
            raise ValueError("low_complexity_mask shape does not match bank")
        # A window is discarded if any of its w characters is masked.
        csum = np.zeros(n + 1, dtype=position_dtype(n))
        np.cumsum(lcm, out=csum[1:])
        valid_len = n - w + 1
        if valid_len > 0:
            ok[:valid_len] &= csum[w : w + valid_len] == csum[:valid_len]
    if stride > 1:
        keep = np.zeros(n, dtype=bool)
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
        return int((self.count1.astype(np.int64) * self.count2).sum())


class CsrSeedIndex:
    """Compressed (sorted-by-code) seed index used by the vectorised engine.

    It holds four arrays besides its bank, each int32 where it fits
    (:func:`position_dtype`, :func:`~repro.encoding.code_dtype`) -- about
    16 bytes per nucleotide with the lazy :attr:`indexed_mask`, against
    the paper's 4-byte ``INDEX`` (section 3.1):

    positions:
        Global positions of every indexed window, sorted by (seed code,
        position).
    unique_codes:
        The distinct seed codes, ascending.
    code_starts:
        ``n_distinct + 1`` offsets: the occurrences of ``unique_codes[k]``
        are ``positions[code_starts[k] : code_starts[k + 1]]``.
    cutoff_codes:
        The seed code of *every* bank position, raised to
        :attr:`sentinel` where no window is indexed: the ordered-seed
        cutoff's codes (see :mod:`repro.align.ungapped`).
    """

    __slots__ = (
        "bank",
        "w",
        "span",
        "mask",
        "positions",
        "unique_codes",
        "code_starts",
        "cutoff_codes",
        "_indexed_mask",
    )

    #: The arrays an index holds besides its bank (archive order).
    ARRAY_FIELDS = ("positions", "unique_codes", "code_starts", "cutoff_codes")

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
        if mask is None:
            self.w = self.span = int(w)
            codes = seed_codes(bank.seq, self.w)
        else:
            self.w = int(mask.weight)
            self.span = mask.span
            if isinstance(mask, SubsetSeedMask):
                codes = subset_seed_codes(bank.seq, mask)
            else:
                codes = spaced_seed_codes(bank.seq, mask)
        # Windows with an invalid character already carry the sentinel;
        # raising the filtered and stride-skipped ones too turns the seed
        # codes into the cutoff codes, in place.
        sentinel = self.sentinel
        extra = _extra_window_mask(bank, self.span, low_complexity_mask, stride)
        if extra is not True:
            codes[~extra] = sentinel
        self.cutoff_codes = codes
        self.positions, self.unique_codes, self.code_starts = sort_postings(
            codes, codes < sentinel
        )
        self._indexed_mask = None

    @classmethod
    def from_arrays(
        cls,
        bank: Bank,
        w: int,
        span: int,
        mask: SpacedSeedMask | SubsetSeedMask | None,
        positions: np.ndarray,
        unique_codes: np.ndarray,
        code_starts: np.ndarray,
        cutoff_codes: np.ndarray,
    ) -> "CsrSeedIndex":
        """Reassemble an index from already-built arrays (no sorting).

        This is the deserialisation path (:mod:`repro.index.persist`) and
        the segment-store merge: the arrays are trusted to satisfy the
        CSR invariants the constructor would otherwise establish.  Arrays
        may be read-only views (e.g. onto an ``mmap``\\ ed archive);
        nothing here writes to them.
        """
        index = cls.__new__(cls)
        index.bank = bank
        index.w = int(w)
        index.span = int(span)
        index.mask = mask
        index.positions = positions
        index.unique_codes = unique_codes
        index.code_starts = code_starts
        index.cutoff_codes = cutoff_codes
        index._indexed_mask = None
        return index

    @property
    def sentinel(self) -> int:
        """The invalid code, above every seed code this index can hold."""
        if self.mask is not None:
            return self.mask.invalid_code()
        return invalid_code(self.w)

    @property
    def indexed_mask(self) -> np.ndarray:
        """Boolean array over the bank: True where a window is indexed.

        This is the *enumerability* predicate of the ordered-seed cutoff
        (see :mod:`repro.align.ungapped`): a window excluded by validity,
        the low-complexity filter, or an asymmetric stride can never
        anchor a step-2 pair.  Derived from :attr:`cutoff_codes` on first
        use (1 byte per position).
        """
        if self._indexed_mask is None:
            self._indexed_mask = self.cutoff_codes < self.sentinel
        return self._indexed_mask

    @property
    def code_counts(self) -> np.ndarray:
        """Occurrences of each distinct code (a fresh diff of
        :attr:`code_starts`; step 2 takes counts of common codes only)."""
        return np.diff(self.code_starts)

    @property
    def n_indexed(self) -> int:
        """Number of indexed windows."""
        return int(self.positions.shape[0])

    def positions_of(self, code: int) -> np.ndarray:
        """Occurrence positions of one seed code, ascending (maybe empty)."""
        k = int(np.searchsorted(self.unique_codes, code))
        if k == len(self.unique_codes) or self.unique_codes[k] != code:
            return np.empty(0, dtype=self.positions.dtype)
        return self.positions[self.code_starts[k] : self.code_starts[k + 1]]

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
        # code of index 1 into index 2 is the merge join; a code above
        # index 2's last is clipped onto that last, which differs.
        u1, u2 = self.unique_codes, other.unique_codes
        if u2.shape[0] == 0:
            u1 = u1[:0]
        j = np.searchsorted(u2, u1)
        np.minimum(j, u2.shape[0] - 1, out=j)
        i1 = np.flatnonzero(u2[j] == u1)
        i2 = j[i1]
        s1, s2 = self.code_starts, other.code_starts
        start1, start2 = s1[i1], s2[i2]
        return CommonCodes(
            codes=u1[i1],
            start1=start1,
            count1=s1[i1 + 1] - start1,
            start2=start2,
            count2=s2[i2 + 1] - start2,
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
