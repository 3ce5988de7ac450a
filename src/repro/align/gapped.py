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
* The sweep's scores are relative to each lane's best so far, so every
  value it forms is bounded by constants of the scoring and the band,
  and its state is int16 wherever that bound allows (the defaults do).
  Its characters and their scores come from tapes gathered once every
  ``_TAPE_ROWS`` rows, which each row reads as band-shaped views.
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

from dataclasses import dataclass, fields

import numpy as np

from ..encoding import INVALID
from .scoring import ScoringScheme

__all__ = [
    "GappedExtension",
    "gapped_extend_ref",
    "batch_gapped_extend",
    "BatchGappedResult",
    "DEFAULT_BAND_RADIUS",
    "LANE_FIELDS",
]

#: Default band half-width (diagonals each side of the anchor diagonal).
DEFAULT_BAND_RADIUS: int = 16

#: Score used for "impossible" cells; small enough to never win, large
#: enough that repeated additions cannot wrap an int64.
_NEG = -(1 << 40)

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
    #: Band rows swept, whatever their lane count (the sweep's fixed cost).
    rows: int = 0

    def lanes(self, which: slice | np.ndarray) -> "BatchGappedResult":
        """The results of lanes *which*: views for a slice, copies for an
        index array.  ``steps`` and ``rows`` are 0: a batch's rows do not
        split by lane."""
        return BatchGappedResult(
            **{f: getattr(self, f)[which] for f in LANE_FIELDS}, steps=0
        )


#: The per-lane columns of a :class:`BatchGappedResult`.
LANE_FIELDS = tuple(
    f.name for f in fields(BatchGappedResult) if f.name not in ("steps", "rows")
)

#: Rows of characters one tape gather serves in :func:`batch_gapped_extend`.
_TAPE_ROWS = 32


def _score_dtype(
    scoring: ScoringScheme, band_radius: int
) -> type[np.signedinteger]:
    """The integer type of :func:`batch_gapped_extend`'s band state.

    Every value the sweep forms lies in ``[-span, span]`` with ``span =
    max(3 * (xdrop + match) + 2, (xdrop + match + 1) << kbits)``, where
    ``kbits`` is the bit length of the band width (DESIGN §5 derives
    it).  The narrowest signed type that holds it is int16 at the default
    scoring and band.
    """
    xm = scoring.xdrop_gapped + scoring.match
    kbits = (2 * band_radius + 1).bit_length()
    span = max(3 * xm + 2, (xm + 1) << kbits)
    for dtype in (np.int16, np.int32):
        if span <= np.iinfo(dtype).max:
            return dtype
    return np.int64


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

    Implementation notes (each row is a fixed number of passes over the
    band, so the hot loop is written to make each pass cheap):

    * band state is band-major (one contiguous row of lanes per band
      column), so per-lane values broadcast along rows and band shifts
      are row slices;
    * scores are relative to each lane's best so far: every live cell
      lies in ``(-xdrop, match]``, the x-drop floor is the constant
      ``-xdrop``, and a lane whose best rises has the rise subtracted
      from its band.  ``big = xdrop + match + 1`` drops any live cell
      below the floor; it scores a move that consumes an invalid
      character, it is what a pruned cell loses, and it caps the
      mismatch and gap penalties (a capped penalty still kills, so no
      live cell changes).  Values are then bounded by constants, and the
      state is int16 wherever :func:`_score_dtype` allows;
    * characters come from tapes: every ``_TAPE_ROWS`` rows one gather
      reads the seq1 character of each row and the seq2 characters of
      every band cell of those rows (``take(..., mode="clip")``:
      out-of-range positions clamp onto the separator byte guaranteed
      at both ends of a bank array), and derives the mismatch-or-invalid
      score and one left-move cost per scan shift.  A row reads
      ``(width, lanes)`` views of them; its diagonal score adds
      ``match + mismatch`` where the seq2 character equals the lane's
      seq1 character.  A lane reading an invalid seq1 character has its
      band killed first, on the rare rows that hold one;
    * cells are clamped up to the floor after the diagonal and up moves
      (a left move out of a clamped cell can never beat the floor) and
      dropped by ``big`` once at or below it at the end of the row
      (classic x-drop band pruning, also done by the scalar oracle);
      both compare against preallocated same-shape arrays, which NumPy
      runs several times faster than a scalar or per-lane operand;
    * left moves are closed with a max-plus prefix scan down the band
      (linear gap costs make a run of left moves a running maximum);
    * the sweep keeps only scores: each row appends its lanes' up and left
      move masks to a :class:`_MoveTrace` (a left move beats an up move,
      as the last write would; every other cell is diagonal, so ties go
      to the diagonal), and the best cell is tracked as (score, row,
      column) in active-lane order;
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
    match, mismatch = scoring.match, scoring.mismatch
    gap = _linear_gap(scoring)
    xdrop = scoring.xdrop_gapped
    R = band_radius
    width = 2 * R + 1

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

    dtype = _score_dtype(scoring, R)
    big = xdrop + match + 1
    mis = min(mismatch, big)
    dead = dtype(-big)
    gap_score = dtype(-min(gap, big))
    bonus = dtype(match + mis)
    # Shifts of the in-row left-move scan.  A run of left moves loses
    # `gap` per column, and starts from a live cell at most `match` above
    # the best: once it spans (xdrop + match) / gap columns it is below
    # the x-drop floor, so the scan's reach (doubling per shift) need not
    # exceed that, nor the band width.
    reach = width
    if gap > 0:
        reach = min(width, -(-(xdrop + match) // gap))
    scan_shifts = []
    shift = 1
    while shift < reach:
        scan_shifts.append(shift)
        shift *= 2

    # Best-cell search key: H << kbits | (kmask - k) orders cells by
    # score, then by first column.
    kbits = width.bit_length()
    kmask = (1 << kbits) - 1
    kcol = (kmask - np.arange(width)).astype(dtype)[:, None]

    # Active lanes (ascending ids) and their state: H[k, l] is band
    # column k of active lane l, relative to the lane's best score.
    idx = np.arange(n)
    base1 = np.where(dirs > 0, p1, p1 - 1)
    base2 = np.where(dirs > 0, p2, p2 - 1)
    H = np.full((width, n), dead, dtype=dtype)
    H[R] = 0
    # Each lane's best score, its row, and the search key of its column
    # (score 0 at the anchor column R until a row improves on it).
    best = np.zeros(n, dtype=np.int64)
    best_i = np.full(n, -1, dtype=np.int64)
    best_key = np.full(n, kmask - R, dtype=dtype)
    lane_i = best_i.copy()
    lane_key = best_key.copy()

    def tapes(i0: int):
        """Characters and scores of rows ``[i0, i0 + _TAPE_ROWS)``: the
        seq1 character of each row and lane, its invalid mask and the
        rows holding one, and per seq2 tape row ``t`` (band column ``k``
        of row ``i0 + r`` reads row ``r + k``) the mismatch-or-invalid
        score and the left-move cost of each scan shift."""

        def gather(seq, base, first, rows):
            chars = np.empty((rows, idx.size), dtype=seq.dtype)
            pos = base + dirs * first
            for row in chars:
                seq.take(pos, out=row, mode="clip")
                pos += dirs
            return chars

        c1 = gather(seq1, base1, i0, _TAPE_ROWS)
        c2 = gather(seq2, base2, i0 - R, _TAPE_ROWS + width - 1)
        bad = c1 >= INVALID
        valid = c2 < INVALID
        neq = valid.astype(dtype)
        neq *= dtype(big - mis)
        neq -= dtype(big)
        cost = valid.astype(dtype)
        cost *= dtype(big + gap_score)
        cost -= dtype(big)
        costs = [cost]
        for s in scan_shifts[:-1]:
            joined = np.zeros_like(cost)
            np.add(cost[s:], cost[:-s], out=joined[s:])
            cost = joined
            costs.append(cost)
        return c1, bad, bad.any(axis=1), c2, neq, costs

    def buffers(lanes: int):
        """Per-row scratch for *lanes* active lanes (the up moves' last
        band column stays dead), and the same-shape floor and key-column
        operands."""
        shape = (width, lanes)
        return (
            np.empty(shape, dtype=dtype),
            np.full(shape, dead, dtype=dtype),
            np.empty(shape, dtype=dtype),
            np.empty(shape, dtype=bool),
            np.empty((2 * width, lanes), dtype=bool),
            np.full(shape, -xdrop, dtype=dtype),
            np.broadcast_to(kcol, shape).copy(),
        )

    D, U, K, mask, moves, floor, kkey = buffers(n)
    trace = _MoveTrace()
    trace.epoch(idx)
    finished = np.zeros(n, dtype=bool)
    n_finished = 0
    steps = 0
    i = i0 = tape_end = 0
    while idx.size and i < max_rows:
        if i == tape_end:
            c1t, bad, bad_rows, c2t, neqt, costs = tapes(i)
            i0, tape_end = i, i + _TAPE_ROWS
        r = i - i0
        steps += idx.size - n_finished
        if bad_rows[r]:
            # An invalid seq1 character ends the lane's every path.
            H[:, bad[r]] = dead

        # Diagonal candidate: the mismatch-or-invalid score, plus
        # match + mismatch where the characters are equal.
        np.equal(c2t[r : r + width], c1t[r], out=mask)
        np.multiply(mask, bonus, out=D)
        D += H
        D += neqt[r : r + width]

        # Up candidate (previous row, band column k+1); consuming seq1.
        np.add(H[1:], gap_score, out=U[:-1])
        if i < R:
            # Columns with jrel = i + k - R < 0 have consumed no seq2 yet:
            # they are dead (the scalar oracle's `if j < 0`).  An up move
            # into them would let a left move out of them start the path
            # with a deletion.
            U[: R - i] = dead

        # Tags are only ever read on live cells, where an up move won
        # exactly when it beat the diagonal move.
        np.greater(U, D, out=moves[:width])
        np.maximum(D, U, out=D)
        np.maximum(D, floor, out=D)

        # Left moves (consuming seq2), closed in one max-plus prefix scan
        # down the band into H: cell k takes the best of the cells
        # k' <= k, less the entry cost of every column in (k', k].
        src = D
        for s, cost in zip(scan_shifts, costs):
            np.add(src[:-s], cost[r + s : r + width], out=K[s:])
            np.maximum(src[s:], K[s:], out=H[s:])
            if src is D:
                H[:s] = D[:s]
                src = H
        if src is D:
            H[:] = D
        np.greater(H, D, out=moves[width:])
        trace.append(moves)

        # Best tracking: one max over the key gives each lane's row best
        # and its first best column.
        np.multiply(H, dtype(1 << kbits), out=K)
        K += kkey
        top = K.max(axis=0)
        row_best = top >> kbits
        improved = row_best > 0
        if improved.any():
            rise = np.maximum(row_best, 0)
            H -= rise
            best += rise
            np.copyto(best_i, i, where=improved)
            np.copyto(best_key, top, where=improved)

        # X-drop cell pruning + lane retirement: a dead cell drops `big`
        # below the floor, so nothing it feeds in the next row can live.
        # Compression (the multi-array gather) is batched until a third of
        # the lanes have finished.
        np.less_equal(H, floor, out=mask)
        np.multiply(mask, dead, out=D)
        H += D
        newly_done = row_best <= -xdrop
        if newly_done.any():
            finished |= newly_done
            n_finished = int(finished.sum())
            if 3 * n_finished >= idx.size:
                gone = idx[finished]
                out.score[gone] = best[finished]
                lane_i[gone] = best_i[finished]
                lane_key[gone] = best_key[finished]
                keep = ~finished
                idx, dirs = idx[keep], dirs[keep]
                base1, base2 = base1[keep], base2[keep]
                best, best_i, best_key = best[keep], best_i[keep], best_key[keep]
                H = H.compress(keep, axis=1)
                D, U, K, mask, moves, floor, kkey = buffers(idx.size)
                trace.epoch(idx)
                finished = np.zeros(idx.size, dtype=bool)
                n_finished = 0
                tape_end = i + 1  # the tapes hold the dropped lanes
        i += 1
    out.score[idx] = best
    lane_i[idx] = best_i
    lane_key[idx] = best_key
    best_i = lane_i
    best_k = kmask - (lane_key.astype(np.int64) & kmask)

    gc, go, min_k, max_k = _trace_back(trace, best_i, best_k, R)

    # Fill outputs.  Matches/mismatches are recovered from the identities
    # (over the best path):
    #     consumed1 = m + x + gc_up          consumed2 = m + x + gc_left
    #     gc = gc_up + gc_left               score = match*m - mismatch*x
    #                                                - gap*gc
    # which give gc_up = (gc + consumed1 - consumed2) / 2 (exact integers),
    # m + x = consumed1 - gc_up, and then m from the score equation.
    has = best_i >= 0
    out.consumed1[has] = best_i[has] + 1
    out.consumed2[has] = best_i[has] + best_k[has] - R + 1
    gc = gc[has]
    gc_up = (gc + out.consumed1[has] - out.consumed2[has]) // 2
    aligned = out.consumed1[has] - gc_up  # m + x
    m = (out.score[has] + gap * gc + mismatch * aligned) // (match + mismatch)
    out.matches[has] = m
    out.mismatches[has] = aligned - m
    out.gap_columns[has] = gc
    out.gap_openings[has] = go[has]
    out.min_dd[has] = min_k[has] - R
    out.max_dd[has] = max_k[has] - R
    out.steps = steps
    out.rows = i
    return out


#: Size of one :class:`_MoveTrace` storage chunk.
_TRACE_CHUNK = 1 << 20


class _MoveTrace:
    """The per-row move masks of a :func:`batch_gapped_extend` sweep.

    Row ``i`` holds its band-major up and left masks over the sweep's
    active lanes, packed eight lanes per byte.  The active lanes change
    only at a compression, which starts an *epoch*: ``epochs`` holds each
    epoch's first row and its sorted active-lane index array.  The packed
    rows are copied into large preallocated chunks: thousands of small
    per-row arrays would fragment the heap.
    """

    __slots__ = ("rows", "epochs", "_chunk", "_used")

    def __init__(self) -> None:
        self.rows: list[np.ndarray] = []
        self.epochs: list[tuple[int, np.ndarray]] = []
        self._chunk = np.empty(0, dtype=np.uint8)
        self._used = 0

    def epoch(self, idx: np.ndarray) -> None:
        """Start an epoch: the next rows cover the active lanes ``idx``."""
        self.epochs.append((len(self.rows), idx))

    def append(self, moves: np.ndarray) -> None:
        """Record one row: the (2 * width, lanes) move masks, up masks
        first."""
        packed = np.packbits(moves, axis=1)
        size = packed.size
        if self._used + size > self._chunk.size:
            self._chunk = np.empty(max(_TRACE_CHUNK, size), dtype=np.uint8)
            self._used = 0
        stored = self._chunk[self._used : self._used + size]
        self._used += size
        stored[:] = packed.reshape(-1)
        self.rows.append(stored)


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
    # Walkers in decreasing best row: those present at row r are a prefix
    # of count[r] walkers.
    order = lanes[np.argsort(-best_i[lanes], kind="stable")]
    deepest = int(best_i[order[0]])
    count = np.searchsorted(
        -best_i[order], -np.arange(deepest + 1), side="right"
    )
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

    ends = [first for first, _ in trace.epochs[1:]] + [len(trace.rows)]
    for (first, row_idx), end in reversed(list(zip(trace.epochs, ends))):
        top = min(end, deepest + 1) - 1
        if top < first:
            continue
        # Walker byte and bit positions, fixed for the epoch.
        stride = (row_idx.size + 7) >> 3  # bytes per packed mask row
        pos = np.searchsorted(row_idx, order[: count[first]])
        at_all = pos >> 3
        b_all = bit.take(pos & 7)
        for r in range(top, first - 1, -1):
            c = int(count[r])
            stored = trace.rows[r]
            at, b, kc = at_all[:c], b_all[:c], k[:c]
            tag = tags(stored, stride, at, b, kc)
            is_gap = tag != _MOVE_DIAG
            w_gc[:c] += is_gap
            w_go[:c] += is_gap & (tag != last[:c])
            last[:c] = tag
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
            kc += last[:c] == _MOVE_UP
            np.maximum(w_max[:c], kc, out=w_max[:c])

    gc[order] = w_gc
    go[order] = w_go
    min_k[order] = w_min
    max_k[order] = w_max
    return gc, go, min_k, max_k
