"""2-bit packed bank views for the tile-sweep extension kernel.

The paper's section-2.1 encoding is deliberately 2 bits per nucleotide;
this module exploits that at the word level.  A :class:`PackedBank` holds
two parallel bit-packed images of an encoded bank array:

``words``
    ``uint64`` array with 32 nucleotide codes per word (base ``i`` at bits
    ``2*(i % 32)``).  Comparing 32 columns of two banks is one XOR: a
    2-bit group of the XOR is zero iff the bases are equal.
``valid``
    ``uint64`` bitmask with 64 positions per word (bit ``i % 64``), set
    where the bank holds an unambiguous nucleotide.  Ambiguity codes and
    the inter-sequence separators cannot be represented in 2 bits (they
    are packed as ``A``), so matching always goes through this mask.

Both images are padded with :data:`PAD` *invalid* columns on each side,
which lets the kernel extract fixed-width windows overhanging either bank
end without bounds checks -- the overhang reads padding, the validity
mask reports it invalid, and the lane stops exactly where the scalar
kernel's separator test would stop it.

Window extraction (:meth:`PackedBank.gather_words`,
:meth:`PackedBank.gather_valid`) is an unaligned bit-slice: two adjacent
words shift-combined per lane, vectorised over all lanes.  The packed
words then expand to per-column booleans through byte-indexed lookup
tables (:func:`match_columns`, :func:`bit_columns`) -- the popcount-style
trick, except positions are needed rather than counts, so each byte maps
to its 4 (match) or 8 (bit) column flags instead of a sum.
:meth:`PackedBank.gather8` reads the narrow 8-column windows of the
kernel's automaton head the same way, from 16- and 8-bit groups.
"""

from __future__ import annotations

import sys

import numpy as np

from .codes import INVALID

__all__ = [
    "PAD",
    "PackedBank",
    "packed_bank_cached",
    "match_columns",
    "bit_columns",
]

#: Invalid guard columns on each side of the packed image.  A 64-column
#: tile anchored at the last in-contract position (one past either bank
#: end, where extensions stop on the boundary separators) overhangs by at
#: most 63 columns plus one shift-combine word; 128 covers that twice.
PAD = 128

#: byte of a XOR'd packed word -> match flag of each of its 4 base pairs
_MATCH4 = np.zeros((256, 4), dtype=bool)
#: byte of a validity word -> its 8 position bits
_BITS8 = np.zeros((256, 8), dtype=bool)
for _b in range(256):
    for _j in range(4):
        _MATCH4[_b, _j] = ((_b >> (2 * _j)) & 3) == 0
    for _j in range(8):
        _BITS8[_b, _j] = bool((_b >> _j) & 1)


def _le_bytes(words: np.ndarray) -> np.ndarray:
    """View ``(n, k)`` or ``(n,)`` uint64 as ``(n, 8k)`` little-endian bytes."""
    a = np.ascontiguousarray(words)
    if sys.byteorder == "big":  # pragma: no cover - no big-endian CI host
        a = a.byteswap()
    n = a.shape[0]
    return a.view(np.uint8).reshape(n, -1)


def match_columns(xor_words: np.ndarray) -> np.ndarray:
    """Expand XOR'd packed words to per-column match booleans.

    ``xor_words`` is ``(n, k)`` uint64 (32 columns per word); the result
    is ``(n, 32*k)`` bool, True where the two banks' 2-bit codes agree.
    Padding/ambiguity columns may report True here (both pack as ``A``);
    AND with :func:`bit_columns` of the validity words before use.
    """
    return _MATCH4[_le_bytes(xor_words)].reshape(xor_words.shape[0], -1)


def bit_columns(mask_words: np.ndarray) -> np.ndarray:
    """Expand validity bitmask words to ``(n, 64*k)`` per-column booleans."""
    n = mask_words.shape[0]
    return _BITS8[_le_bytes(mask_words)].reshape(n, -1)


class PackedBank:
    """Bit-packed comparison image of one encoded bank array.

    Attributes
    ----------
    n:
        Length of the source bank array (columns before padding).
    pad:
        Guard columns on each side (:data:`PAD`).
    words:
        2-bit packed codes, 32 columns per ``uint64``.
    valid:
        Validity bitmask, 64 columns per ``uint64``.
    """

    __slots__ = ("n", "pad", "words", "valid")

    def __init__(self, seq: np.ndarray, pad: int = PAD):
        seq = np.asarray(seq)
        if seq.ndim != 1:
            raise ValueError("seq must be a 1-D encoded bank array")
        n = int(seq.shape[0])
        total = n + 2 * pad
        ok = seq < INVALID

        # Four 2-bit codes per byte, base i at bits 2*(i % 4), so each
        # 8 bytes read as a little-endian uint64 hold 32 codes, base i at
        # bits 2*(i % 32); validity likewise packs 8 bits per byte.
        n32 = -(-total // 32) + 2  # +2 slack words for shift-combine reads
        codes = np.zeros(n32 * 32, dtype=np.uint8)
        np.copyto(codes[pad : pad + n], seq, where=ok, casting="unsafe")
        quads = codes.reshape(-1, 4)
        packed = quads[:, 3] << 6
        for j in (2, 1, 0):
            packed |= quads[:, j] << 2 * j
        words = packed.view("<u8").astype(np.uint64, copy=False)

        n64 = -(-total // 64) + 2
        vbits = np.zeros(n64 * 64, dtype=bool)
        vbits[pad : pad + n] = ok
        valid = np.packbits(vbits, bitorder="little").view("<u8")
        valid = valid.astype(np.uint64, copy=False)

        self.n = n
        self.pad = int(pad)
        self.words = words
        self.valid = valid

    def gather_words(self, starts: np.ndarray, n_words: int) -> np.ndarray:
        """Per-lane packed windows: ``(len(starts), n_words)`` uint64.

        Word ``k`` of lane ``i`` packs the 32 columns starting at bank
        position ``starts[i] + 32*k`` (2 bits per column, position order
        in the low bits).  ``starts`` may overhang either bank end by up
        to :attr:`pad` - 32·``n_words`` columns; overhang columns pack as
        ``A`` and are reported invalid by :meth:`gather_valid`.
        """
        starts = np.asarray(starts, dtype=np.int64)
        adj = starts + self.pad
        widx = adj >> 5
        sh = ((adj & 31) << 1).astype(np.uint64)
        aligned = sh == 0
        inv = (np.uint64(64) - sh) & np.uint64(63)
        out = np.empty((starts.shape[0], n_words), dtype=np.uint64)
        for k in range(n_words):
            lo = self.words[widx + k]
            hi = self.words[widx + k + 1]
            out[:, k] = np.where(aligned, lo, (lo >> sh) | (hi << inv))
        return out

    def gather_valid(self, starts: np.ndarray) -> np.ndarray:
        """Per-lane 64-column validity bitmask: ``(len(starts),)`` uint64.

        Bit ``j`` of lane ``i`` is set iff bank position
        ``starts[i] + j`` holds an unambiguous nucleotide (padding and
        out-of-bank columns are invalid).
        """
        starts = np.asarray(starts, dtype=np.int64)
        adj = starts + self.pad
        widx = adj >> 6
        sh = (adj & 63).astype(np.uint64)
        inv = (np.uint64(64) - sh) & np.uint64(63)
        lo = self.valid[widx]
        hi = self.valid[widx + 1]
        return np.where(sh == 0, lo, (lo >> sh) | (hi << inv))

    def gather8(self, starts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-lane 8-column windows: ``(codes, valid)``, both uint32.

        ``codes`` packs the 2-bit codes of bank positions ``starts[i]``
        .. ``starts[i] + 7`` in its low 16 bits and ``valid`` their
        validity bits in its low 8 bits, position order from bit 0; the
        higher bits are zero.  The window is read as two adjacent 16-bit
        (code) or 8-bit (validity) groups shifted together, so no shift
        ever spans a whole word.  Overhang rules as :meth:`gather_words`.
        """
        k = np.asarray(starts, dtype=np.int64) + self.pad
        sh = (k & 7).astype(np.uint32)
        k >>= 3
        c16 = _le_bytes(self.words).reshape(-1).view("<u2")
        v8 = _le_bytes(self.valid).reshape(-1)
        codes = c16[1:][k].astype(np.uint32)  # the next group, high half
        codes <<= 16
        codes |= c16[k]
        valid = v8[1:][k].astype(np.uint32)
        valid <<= 8
        valid |= v8[k]
        valid >>= sh
        valid &= 0xFF
        sh <<= 1
        codes >>= sh
        codes &= 0xFFFF
        return codes, valid


#: Small per-process memo for :func:`packed_bank_cached`.  Values keep a
#: strong reference to the source array, so the ``id`` keys stay valid.
_PACK_CACHE: dict[int, tuple[np.ndarray, PackedBank]] = {}
_PACK_CACHE_MAX = 8


def packed_bank_cached(seq: np.ndarray) -> PackedBank:
    """Pack a bank array, memoising per array object.

    Long-lived processes (the serve worker pool, range-task workers
    attached to a shared-memory arena) call the kernel many times over
    the same bank arrays; keying on the array object identity makes
    repacking free for them while staying correct for everyone else --
    the cache holds a strong reference to each source array, so an ``id``
    can never be reused while its entry is alive.
    """
    seq = np.asarray(seq)
    key = id(seq)
    hit = _PACK_CACHE.get(key)
    if hit is not None and hit[0] is seq:
        return hit[1]
    packed = PackedBank(seq)
    if len(_PACK_CACHE) >= _PACK_CACHE_MAX:
        _PACK_CACHE.pop(next(iter(_PACK_CACHE)))
    _PACK_CACHE[key] = (seq, packed)
    return packed
