"""Gapped x-drop extension (paper section 2.3).

Step 3 builds gapped alignments "starting from the middle of an HSP and
performing an extension on both extremities by dynamic programming
techniques.  The extension is controlled by an XDROP value in order to stop
when the score of the alignment significantly decrease.  The final
alignment consists in merging the right and left gapped extensions."

Implementation notes
--------------------

* The DP is a *banded* extension: cells within ``band_radius`` diagonals of
  the anchor are computed, rows are processed one by one, and a lane stops
  when its best row score falls ``xdrop_gapped`` below its best score so
  far (or the whole band dies on separators).
* Gap costs are **linear** (``gap_linear`` per gap column).  The paper only
  says "dynamic programming techniques ... controlled by an XDROP value";
  it does not specify affine costs.  Linear costs admit an exact one-pass
  vectorised in-row relaxation (the running-max trick below), which keeps
  the pure-Python engine fast; the affine Gotoh recurrence is available in
  :mod:`repro.align.classic` for reference.  Both engines of this
  reproduction share this gapped stage, so engine-vs-engine comparisons
  are unaffected by the choice.
* The batch kernel's row sweep keeps only the scores and the move tag of
  every cell (diagonal, up or left), packed at one bit per cell in each of
  two masks.  A lane-parallel traceback then walks every lane back from its
  best cell and counts gap columns, gap openings and diagonal extremes on
  the way; matches and mismatches follow algebraically.  The ``-m 8``
  record needs only these aggregates.  The scalar oracle instead carries
  the aggregates along every cell's winning predecessor.
* Everything is lane-parallel: :func:`batch_gapped_extend` advances many
  extensions at once, one vectorised row step at a time, exactly like the
  ungapped kernel.  A scalar reference implementation
  (:func:`gapped_extend_ref`) with the same semantics is the oracle for
  property tests.

Coordinates: an extension anchored at ``(p1, p2)`` going right consumes
``seq1[p1], seq1[p1]+1, ...``; going left it consumes ``seq1[p1-1],
seq1[p1-2], ...`` (and likewise for ``seq2``), so an HSP middle can be
extended both ways and merged without double-counting any column.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..encoding import INVALID
from .scoring import ScoringScheme

__all__ = [
    "GappedExtension",
    "gapped_extend_ref",
    "batch_gapped_extend",
    "BatchGappedResult",
    "DEFAULT_BAND_RADIUS",
]

#: Default band half-width (diagonals each side of the anchor diagonal).
DEFAULT_BAND_RADIUS: int = 16

#: Score used for "impossible" cells; small enough to never win, large
#: enough that repeated additions cannot wrap an int64.
_NEG = -(1 << 40)

#: Same sentinel for the int32 batch kernel.
_NEG32 = -(1 << 30)

# Move tags for the `lastmove` annotation.
_MOVE_NONE = 0
_MOVE_DIAG = 1
_MOVE_UP = 2  # consumes seq1 only (gap column in seq2)
_MOVE_LEFT = 3  # consumes seq2 only (gap column in seq1)


@dataclass(frozen=True, slots=True)
class GappedExtension:
    """Result of a one-sided gapped extension.

    ``consumed1``/``consumed2`` count the characters of each sequence
    covered by the best-scoring prefix of the extension; annotations cover
    exactly those columns.  ``min_dd``/``max_dd`` are the extreme *diagonal
    offsets* relative to the anchor diagonal (0 means no gap drift).
    """

    score: int
    consumed1: int
    consumed2: int
    matches: int
    mismatches: int
    gap_columns: int
    gap_openings: int
    min_dd: int
    max_dd: int


def _linear_gap(scoring: ScoringScheme) -> int:
    """Per-column linear gap penalty used by this kernel.

    Chosen as ``gap_open`` (default 5): between the affine cost of a
    1-column gap (7) and the marginal cost of extending one (2) under the
    BLASTN defaults.
    """
    return scoring.gap_open


def gapped_extend_ref(
    seq1: np.ndarray,
    seq2: np.ndarray,
    p1: int,
    p2: int,
    direction: int,
    scoring: ScoringScheme,
    band_radius: int = DEFAULT_BAND_RADIUS,
    max_rows: int = 1 << 20,
) -> GappedExtension:
    """Scalar reference banded x-drop extension (test oracle).

    ``direction`` is +1 (rightwards) or -1 (leftwards).
    """
    if direction not in (+1, -1):
        raise ValueError("direction must be +1 or -1")
    match, mismatch = scoring.match, scoring.mismatch
    gap = _linear_gap(scoring)
    xdrop = scoring.xdrop_gapped
    R = band_radius
    width = 2 * R + 1
    n1, n2 = seq1.shape[0], seq2.shape[0]

    def char1(i: int) -> int:
        idx = p1 + i if direction > 0 else p1 - 1 - i
        if 0 <= idx < n1:
            return int(seq1[idx])
        return INVALID

    def char2(j: int) -> int:
        idx = p2 + j if direction > 0 else p2 - 1 - j
        if 0 <= idx < n2:
            return int(seq2[idx])
        return INVALID

    # Cell annotations: (score, matches, mismatches, gapcols, gapopens,
    # minK, maxK, lastmove); band-relative column k encodes j = i + k - R.
    dead = (_NEG, 0, 0, 0, 0, R, R, _MOVE_NONE)
    prev = [dead] * width
    prev[R] = (0, 0, 0, 0, 0, R, R, _MOVE_NONE)
    best = (0, -1, R, (0, 0, 0, 0, R, R))  # score, i, k, annotations

    for i in range(max_rows):
        cur = [dead] * width
        row_best = _NEG
        a1 = char1(i)
        for k in range(width):
            j = i + k - R
            if j < 0:
                continue
            a2 = char2(j)
            # Diagonal move.
            cand = dead
            ps = prev[k][0]
            if ps > _NEG and a1 < INVALID and a2 < INVALID:
                if a1 == a2:
                    s = ps + match
                    cand = (s, prev[k][1] + 1, prev[k][2], prev[k][3],
                            prev[k][4], min(prev[k][5], k), max(prev[k][6], k),
                            _MOVE_DIAG)
                else:
                    s = ps - mismatch
                    cand = (s, prev[k][1], prev[k][2] + 1, prev[k][3],
                            prev[k][4], min(prev[k][5], k), max(prev[k][6], k),
                            _MOVE_DIAG)
            # Up move (consume seq1 only) from prev[k+1].
            if k + 1 < width and prev[k + 1][0] > _NEG and a1 < INVALID:
                p = prev[k + 1]
                s = p[0] - gap
                if s > cand[0]:
                    opens = p[4] + (0 if p[7] == _MOVE_UP else 1)
                    cand = (s, p[1], p[2], p[3] + 1, opens,
                            min(p[5], k), max(p[6], k), _MOVE_UP)
            # Left move (consume seq2 only) from cur[k-1].
            if k - 1 >= 0 and cur[k - 1][0] > _NEG and a2 < INVALID:
                p = cur[k - 1]
                s = p[0] - gap
                if s > cand[0]:
                    opens = p[4] + (0 if p[7] == _MOVE_LEFT else 1)
                    cand = (s, p[1], p[2], p[3] + 1, opens,
                            min(p[5], k), max(p[6], k), _MOVE_LEFT)
            cur[k] = cand
            if cand[0] > row_best:
                row_best = cand[0]
            if cand[0] > best[0]:
                best = (cand[0], i, k, cand[1:7])
        if row_best <= best[0] - xdrop or row_best <= _NEG:
            break
        # Classic x-drop cell pruning (Zhang et al.): cells more than xdrop
        # below the best score so far are dropped from the band.
        cur = [c if c[0] > best[0] - xdrop else dead for c in cur]
        prev = cur

    score, bi, bk, ann = best
    if bi < 0:
        return GappedExtension(0, 0, 0, 0, 0, 0, 0, 0, 0)
    consumed1 = bi + 1
    consumed2 = bi + bk - R + 1
    m, x, gc, go, mink, maxk = ann
    return GappedExtension(
        score=int(score),
        consumed1=int(consumed1),
        consumed2=int(consumed2),
        matches=int(m),
        mismatches=int(x),
        gap_columns=int(gc),
        gap_openings=int(go),
        min_dd=int(mink - R),
        max_dd=int(maxk - R),
    )


@dataclass(slots=True)
class BatchGappedResult:
    """Columnar results of :func:`batch_gapped_extend` (one row per lane)."""

    score: np.ndarray
    consumed1: np.ndarray
    consumed2: np.ndarray
    matches: np.ndarray
    mismatches: np.ndarray
    gap_columns: np.ndarray
    gap_openings: np.ndarray
    min_dd: np.ndarray
    max_dd: np.ndarray
    #: Total lane-row steps executed (work metric for benches).
    steps: int


def batch_gapped_extend(
    seq1: np.ndarray,
    seq2: np.ndarray,
    p1: np.ndarray,
    p2: np.ndarray,
    direction: int | np.ndarray,
    scoring: ScoringScheme,
    band_radius: int = DEFAULT_BAND_RADIUS,
    max_rows: int = 1 << 20,
) -> BatchGappedResult:
    """Lane-parallel banded x-drop gapped extension.

    Same semantics as :func:`gapped_extend_ref`, advanced one row per
    vectorised step across all still-active lanes.  ``direction`` may be a
    scalar (+1/-1) or a per-lane array, so left and right extensions of a
    wave of HSPs run as one batch.

    Implementation notes (the kernel is memory-bandwidth bound, so the hot
    loop is written to minimise full-band passes):

    * all band state is int32 and band-major (one contiguous row of lanes
      per band column), so per-lane values broadcast along rows and band
      shifts are row slices; column gather indices advance by one in-place
      add per row;
    * gathers use ``ndarray.take(..., mode="clip")``: out-of-range indices
      clamp onto the separator byte guaranteed at both ends of a bank
      array;
    * substitution scores and invalid-character handling are folded into a
      single table gather (invalid pairings score ``-BIGPEN``, far below
      the x-drop floor, which replaces per-move validity masks);
    * instead of masking moves out of dead cells, every row starts by
      clamping cells up to the x-drop floor and ends by dropping the cells
      at or below it ``BIGPEN`` lower (classic x-drop band pruning, also
      done by the scalar oracle), which bounds sentinel drift;
    * left moves are closed with a max-plus prefix scan down the band
      (linear gap costs make a run of left moves a running maximum);
    * the sweep keeps only scores: each row appends its lanes' up and left
      move masks to a :class:`_MoveTrace` (a left move beats an up move,
      as the last write would; every other cell is diagonal, so ties go
      to the diagonal), and the best cell is tracked as (score, row,
      column);
    * after the sweep, :func:`_trace_back` rebuilds gap columns, gap
      openings and the band extremes from each lane's best cell;
      matches/mismatches are recovered algebraically from (score, gap
      columns, consumed lengths).
    """
    p1 = np.asarray(p1, dtype=np.int64)
    p2 = np.asarray(p2, dtype=np.int64)
    n = p1.shape[0]
    dirs = np.broadcast_to(np.asarray(direction, dtype=np.int64), (n,)).copy()
    if not np.isin(dirs, (-1, 1)).all():
        raise ValueError("direction must be +1 or -1 (scalar or per lane)")
    match = np.int32(scoring.match)
    mismatch = np.int32(scoring.mismatch)
    gap = np.int32(_linear_gap(scoring))
    xdrop = np.int32(scoring.xdrop_gapped)
    R = band_radius
    width = 2 * R + 1
    NEG = np.int32(_NEG32)
    BIGPEN = np.int32(1 << 20)

    # Outputs (empty-extension defaults).
    out = BatchGappedResult(
        score=np.zeros(n, dtype=np.int64),
        consumed1=np.zeros(n, dtype=np.int64),
        consumed2=np.zeros(n, dtype=np.int64),
        matches=np.zeros(n, dtype=np.int64),
        mismatches=np.zeros(n, dtype=np.int64),
        gap_columns=np.zeros(n, dtype=np.int64),
        gap_openings=np.zeros(n, dtype=np.int64),
        min_dd=np.zeros(n, dtype=np.int64),
        max_dd=np.zeros(n, dtype=np.int64),
        steps=0,
    )
    if n == 0:
        return out

    # Substitution table over character pairs (index = c1 << 3 | c2): the
    # match/mismatch score, or -BIGPEN when either character is invalid.
    subt = np.full(64, -BIGPEN, dtype=np.int32)
    for a in range(4):
        for b in range(4):
            subt[(a << 3) | b] = match if a == b else -mismatch
    # Per-character score of an up/left move consuming that character:
    # -gap, or -gap - BIGPEN for an invalid character.
    gappen = np.full(8, -gap, dtype=np.int32)
    gappen[INVALID:] -= BIGPEN
    # Shifts of the in-row left-move scan.  A run of left moves loses
    # `gap` per column, and starts from a live cell at most `match` above
    # the previous best: once it spans (xdrop + match) / gap columns it
    # is below the x-drop floor, so the scan's reach (doubling per shift)
    # need not exceed that, nor the band width.
    reach = width
    if gap > 0:
        reach = min(width, -(-(int(xdrop) + int(match)) // int(gap)))
    scan_shifts = []
    shift = 1
    while shift < reach:
        scan_shifts.append(shift)
        shift *= 2

    # Best-cell search key layout (see the sweep's best tracking).
    kbits = width.bit_length()
    kmask = (1 << kbits) - 1
    key_fits_int32 = (int(xdrop) + int(match) + 1) << kbits < 1 << 31
    key_type = np.int32 if key_fits_int32 else np.int64
    kkey = (kmask - np.arange(width, dtype=key_type))[:, None]

    # Active-lane state, band-major: H[k, l] is band column k of lane l,
    # so per-lane values broadcast along contiguous rows and shifts
    # along the band are whole-row slices.
    idx = np.arange(n, dtype=np.int64)
    adir = dirs.astype(np.int32)
    H = np.full((width, n), NEG, dtype=np.int32)
    H[R] = 0
    trace = _MoveTrace()

    best_score = np.zeros(n, dtype=np.int32)
    best_i = np.full(n, -1, dtype=np.int64)
    best_k = np.full(n, R, dtype=np.int64)

    # Incremental gather indices: char i of seq1 along the extension lives
    # at base1 + adir*i; seq2 column j at base2 + adir*j (j = i + k - R).
    base1 = np.where(adir > 0, p1, p1 - 1)
    i1 = base1.copy()  # row 0
    karr = np.arange(width, dtype=np.int64)
    base2 = np.where(adir > 0, p2, p2 - 1)
    j2 = base2[None, :] + dirs[None, :] * (karr - R)[:, None]

    finished = np.zeros(n, dtype=bool)
    n_finished = 0
    steps = 0
    i = 0
    while idx.size and i < max_rows:
        steps += idx.size - n_finished
        floor = best_score[idx] - xdrop

        c1 = seq1.take(i1, mode="clip")
        c2 = seq2.take(j2, mode="clip")

        # Diagonal candidate: one table gather folds match/mismatch and
        # invalid-character handling.
        diag = H + subt.take((c1 << 3) | c2)

        # Up candidate (previous row, band column k+1); consuming seq1.
        up = np.empty_like(H)
        up[-1] = NEG
        np.add(H[1:], gappen.take(c1), out=up[:-1])
        if i < R:
            # Columns with jrel = i + k - R < 0 have consumed no seq2 yet:
            # they are dead (the scalar oracle's `if j < 0`).  An up move
            # into them would let a left move out of them start the path
            # with a deletion.
            up[: R - i] = NEG

        # Cells at or below the x-drop floor are dead, so H is clamped up
        # to the floor: a left move out of a clamped cell can never beat
        # the floor.  Tags are only ever read on live cells, where an up
        # move won exactly when it beat the diagonal move.
        moves = np.empty((2 * width, idx.size), dtype=bool)  # up, left
        np.greater(up, diag, out=moves[:width])
        H = np.maximum(diag, up, out=diag)
        np.maximum(H, floor, out=H)

        # Left moves (consuming seq2), closed in one max-plus prefix scan
        # down the band: cell k takes the best of the cells k' <= k, less
        # the entry score of every column in (k', k].
        cost = gappen.take(c2)
        run = H.copy()
        for s in scan_shifts:
            np.maximum(run[s:], run[:-s] + cost[s:], out=run[s:])
            if s != scan_shifts[-1]:
                joined = np.empty_like(cost)
                np.add(cost[s:], cost[:-s], out=joined[s:])
                cost = joined
        np.greater(run, H, out=moves[width:])
        H = run
        trace.append(idx, moves)

        # Best tracking.  Every cell lies in [floor, floor + xdrop + match]
        # (no move gains more than `match` on the previous best), so one
        # max over (H - floor) << kbits | (kmask - k) gives each lane's
        # row best and its first best column.
        key = np.subtract(H, floor, dtype=key_type)
        key <<= kbits
        key += kkey
        top = key.max(axis=0)
        row_best = (top >> kbits) + floor
        improved = row_best > best_score[idx]
        if improved.any():
            gi = idx[improved]
            best_score[gi] = row_best[improved]
            best_i[gi] = i
            best_k[gi] = kmask - (top[improved] & kmask)
            floor = best_score[idx] - xdrop

        # X-drop cell pruning + lane retirement: a dead cell drops BIGPEN
        # below the floor, so nothing it feeds in the next row can live.
        # Compression (the multi-array gather) is batched until a third of
        # the lanes have finished.
        H -= (H <= floor) * BIGPEN
        newly_done = row_best <= floor
        if newly_done.any():
            finished |= newly_done
            n_finished = int(finished.sum())
            if 3 * n_finished >= idx.size:
                keep = ~finished
                idx = idx[keep]
                adir = adir[keep]
                i1 = i1[keep]
                j2 = j2[:, keep]
                H = H[:, keep]
                finished = np.zeros(idx.size, dtype=bool)
                n_finished = 0

        # Advance the incremental gather indices to the next row.
        i1 = i1 + adir
        j2 += adir
        i += 1

    gc, go, min_k, max_k = _trace_back(trace, best_i, best_k, R)

    # Fill outputs.  Matches/mismatches are recovered from the identities
    # (over the best path):
    #     consumed1 = m + x + gc_up          consumed2 = m + x + gc_left
    #     gc = gc_up + gc_left               score = match*m - mismatch*x
    #                                                - gap*gc
    # which give gc_up = (gc + consumed1 - consumed2) / 2 (exact integers),
    # m + x = consumed1 - gc_up, and then m from the score equation.
    has = best_i >= 0
    out.score[:] = best_score.astype(np.int64)
    out.consumed1[has] = best_i[has] + 1
    out.consumed2[has] = best_i[has] + best_k[has] - R + 1
    gc = gc[has]
    gc_up = (gc + out.consumed1[has] - out.consumed2[has]) // 2
    aligned = out.consumed1[has] - gc_up  # m + x
    m = (out.score[has] + int(gap) * gc + int(mismatch) * aligned) // (
        int(match) + int(mismatch)
    )
    out.matches[has] = m
    out.mismatches[has] = aligned - m
    out.gap_columns[has] = gc
    out.gap_openings[has] = go[has]
    out.min_dd[has] = min_k[has] - R
    out.max_dd[has] = max_k[has] - R
    out.steps = steps
    return out


#: Size of one :class:`_MoveTrace` storage chunk.
_TRACE_CHUNK = 1 << 20


class _MoveTrace:
    """The per-row move masks of a :func:`batch_gapped_extend` sweep.

    Row ``i`` holds the sweep's active-lane index array (sorted, and shared
    by every row until the next lane compression) and its band-major up
    and left masks, packed eight lanes per byte.  The packed rows are
    copied into large preallocated chunks: thousands of small per-row
    arrays would fragment the heap.
    """

    __slots__ = ("rows", "_chunk", "_used")

    def __init__(self) -> None:
        self.rows: list[tuple[np.ndarray, np.ndarray]] = []
        self._chunk = np.empty(0, dtype=np.uint8)
        self._used = 0

    def append(self, idx: np.ndarray, moves: np.ndarray) -> None:
        """Record one row: lanes ``idx`` and the (2 * width, lanes) move
        masks, up masks first."""
        packed = np.packbits(moves, axis=1)
        size = packed.size
        if self._used + size > self._chunk.size:
            self._chunk = np.empty(max(_TRACE_CHUNK, size), dtype=np.uint8)
            self._used = 0
        stored = self._chunk[self._used : self._used + size]
        self._used += size
        stored[:] = packed.reshape(-1)
        self.rows.append((idx, stored))


def _trace_back(
    trace: _MoveTrace, best_i: np.ndarray, best_k: np.ndarray, R: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Walk every lane from its best cell back to the anchor.

    Returns per lane the gap columns, gap openings and the minimum and
    maximum band column of the path (the anchor column ``R`` included).
    Lanes walk together, one row per pass from the deepest best row up;
    a lane joins at its own best row.  Inside a row a left move steps to
    column k-1 of the same row; an up move drops to column k+1 of the row
    above, a diagonal move to column k.  A gap move opens a gap when the
    move after it on the path (already visited) differs, which counts
    each run of equal gap moves once, as the scalar oracle does.
    """
    n = best_i.size
    width = 2 * R + 1
    gc = np.zeros(n, dtype=np.int64)
    go = np.zeros(n, dtype=np.int64)
    min_k = np.full(n, R, dtype=np.int64)
    max_k = np.full(n, R, dtype=np.int64)
    lanes = np.flatnonzero(best_i >= 0)
    if lanes.size == 0:
        return gc, go, min_k, max_k
    # Walkers in decreasing best row: those present at row r are a prefix.
    order = lanes[np.argsort(-best_i[lanes], kind="stable")]
    neg_row = -best_i[order]
    k = best_k[order]
    w_gc = np.zeros(order.size, dtype=np.int64)
    w_go = np.zeros(order.size, dtype=np.int64)
    w_min = np.minimum(k, R)
    w_max = np.maximum(k, R)
    last = np.full(order.size, _MOVE_NONE, dtype=np.int8)
    bit = (0x80 >> np.arange(8)).astype(np.uint8)
    tag_of = np.array([_MOVE_DIAG, _MOVE_UP, _MOVE_LEFT, _MOVE_LEFT], dtype=np.int8)

    def tags(stored, stride, at, b, kw):
        """Move tags of band columns ``kw`` of the lanes whose bits sit at
        byte ``at`` (mask ``b``) of each packed mask row."""
        byte = kw * stride + at
        is_up = (stored.take(byte) & b) != 0
        is_left = (stored.take(byte + width * stride) & b) != 0
        return tag_of.take(is_up + 2 * is_left)

    for r in range(int(-neg_row[0]), -1, -1):
        count = int(np.searchsorted(neg_row, -r, side="right"))
        row_idx, stored = trace.rows[r]
        stride = (row_idx.size + 7) >> 3  # bytes per packed mask row
        pos = np.searchsorted(row_idx, order[:count])
        at = pos >> 3
        b = bit.take(pos & 7)
        kc = k[:count]
        tag = tags(stored, stride, at, b, kc)
        is_gap = tag != _MOVE_DIAG
        w_gc[:count] += is_gap
        w_go[:count] += is_gap & (tag != last[:count])
        last[:count] = tag
        w = np.flatnonzero(tag == _MOVE_LEFT)
        while w.size:
            kw = k[w] - 1
            k[w] = kw
            w_min[w] = np.minimum(w_min[w], kw)
            tag = tags(stored, stride, at[w], b[w], kw)
            is_gap = tag != _MOVE_DIAG
            w_gc[w] += is_gap
            w_go[w] += is_gap & (tag != last[w])
            last[w] = tag
            w = w[tag == _MOVE_LEFT]
        # Every walker now sits on an up or diagonal cell: leave the row.
        kc += last[:count] == _MOVE_UP
        np.maximum(w_max[:count], kc, out=w_max[:count])

    gc[order] = w_gc
    go[order] = w_go
    min_k[order] = w_min
    max_k[order] = w_max
    return gc, go, min_k, max_k
