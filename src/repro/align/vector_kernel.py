"""Block- and tile-sweep ungapped extension over 2-bit packed banks.

:func:`batch_extend_vector` is a drop-in replacement for
:func:`repro.align.ungapped.batch_extend` that processes extension columns
many at a time instead of one per NumPy pass.  While many lanes are live
(the *head*), each pass advances every lane 8 columns through a
precomputed x-drop automaton (:func:`_block_tables`); the thinned tail
then runs in tiles of up to 64 columns.  Per tile and per lane it

1. extracts a 64-column window of both banks from their
   :class:`~repro.encoding.packed.PackedBank` images (two packed-word
   gathers + one XOR + a byte-LUT expansion yield the per-column match
   flags; a parallel validity gather masks separators/ambiguity),
2. turns the match flags into prefix scores with one ``cumsum``, running
   maxima with one ``maximum.accumulate``, match-run lengths with a
   last-mismatch ``maximum.accumulate``, and the ordered-seed cutoff /
   x-drop / separator stop conditions as whole-tile boolean masks,
3. finds each lane's first stop column, commits the exact
   pre-stop outputs, and carries surviving lanes into the next tile.

The per-lane semantics are identical to the scalar kernel -- same stop
column, same best score/offset, same cutoff verdict, same ``steps``
accounting (each lane counts the columns it examined, stop column
included).  The one intentional divergence: lanes killed by the cutoff
report the best score/offset reached *before* the cut column rather than
through it; both values are dead (``kept`` is False), and the scalar
reference returns no value at all for such lanes.

Why tiles work (exactness argument)
-----------------------------------

All stop conditions are monotone within a lane: the first column where
``invalid | cutoff | x-drop`` holds is the column the scalar kernel stops
at, and nothing the scalar kernel computes after its stop column exists
at all.  Computing the whole 64-column tile *speculatively* and then
discarding columns at/after the first stop therefore reproduces the
scalar outputs exactly: prefix scores, maxima and run lengths over
columns strictly before the stop never depend on the discarded suffix,
and the stop reasons are mutually exclusive where it matters (a cutoff
column is a valid match whose deficit is under the x-drop, so reading
the cutoff mask at the stop column cannot confuse a separator or x-drop
stop for a cut).

Why the head's automaton is exact
---------------------------------

Over a string of match/mismatch columns the scalar kernel is a finite
automaton.  Its x-drop state is the deficit ``d = maxi - score``, an
integer in ``[0, xdrop)`` while the lane lives; its cutoff state is the
match run, which only matters up to ``w``.  Everything the scalar
kernel computes over a block -- the first x-drop column, the rise of
``maxi``, the last improving column, the deficit and run after any
prefix, the columns where a full seed word re-forms -- is a function of
that finite state, the block's 8-bit match pattern and the prefix
length, so tables indexed by exactly those reproduce it.  The first
invalid column is a function of the 8-bit validity pattern.  The one
input the tables cannot hold, the start code, is compared sparsely at
the candidate columns before the x-drop/separator stop, as the tile path
does.  The stop column is the minimum of the three, and each lane
commits its outputs over the prefix before it, so the head inherits the
tiles' exactness argument above, with the same cut-lane divergence.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..encoding.packed import PackedBank, bit_columns, match_columns
from .scoring import ScoringScheme
from .ungapped import DEFAULT_MAX_EXTEND, BatchExtensionResult

__all__ = ["TILE", "batch_extend_vector", "extend_filter_vector", "VectorStageResult"]

#: Steady-state columns per sweep (two packed words; one validity word).
TILE = 64

#: Tile widths of the first sweeps.  Most extensions stop within a few
#: columns (x-drop on diverged flanks, or the ordered cutoff inside
#: repeats), so early tiles are kept narrow to bound speculative work on
#: the short-lived lane mass; the lanes that survive into the 64-column
#: steady state are the long tail, by then heavily compressed.  All lanes
#: of a call start together, so the schedule can key on the shared
#: extension depth instead of per-lane ages.
_TILE_SCHEDULE = (8, 16, 32)

#: Above this many live lanes the kernel runs its *head*: every live lane
#: advances :data:`_BLOCK` columns per NumPy pass through the x-drop
#: automaton of :func:`_block_tables`, whose work per lane is a handful
#: of table lookups however many columns the block holds.  With the lane
#: mass still alive, that column-free cost is what counts; below the mark
#: the fixed per-pass overhead dominates instead, and the surviving long
#: tail moves to the widening tiles.
_SCALAR_HEAD_LANES = 1024

#: Sentinel for masked-out prefix scores; far below any reachable score.
_NEG = np.int64(-(1 << 62))

#: Columns per head pass: one byte of match flags per lane.
_BLOCK = 8

_BYTE = np.arange(256, dtype=np.uint8)
_BYTE_BITS = (_BYTE[:, None] >> np.arange(_BLOCK, dtype=np.uint8)) & 1
#: Bit reversal of a byte (a left scan reads its window backwards).
_REV8 = np.packbits(_BYTE_BITS, axis=1, bitorder="big").reshape(-1)
#: Index of the lowest clear bit of a byte (8 when all are set).
_FIRST_CLEAR = np.where(_BYTE == 255, _BLOCK, _BYTE_BITS.argmin(axis=1))
_FIRST_CLEAR = _FIRST_CLEAR.astype(np.uint8)
#: Match flags of 8 columns from the XOR of two 16-bit code windows:
#: bit ``j`` is set iff 2-bit group ``j`` of the XOR is zero.  Built
#: from the 4 flags of each byte (the low byte holds columns 0-3).
_NIBBLE = np.zeros(256, dtype=np.uint8)
for _j in range(4):
    _NIBBLE |= (((_BYTE >> (2 * _j)) & 3) == 0).astype(np.uint8) << _j
_MATCH8 = (_NIBBLE[None, :] | (_NIBBLE[:, None] << 4)).reshape(-1)
#: ``_LOW_BITS[c]`` keeps the bits of columns ``0 .. c-1``.
_LOW_BITS = ((1 << np.arange(_BLOCK + 1)) - 1).astype(np.uint8)
for _t in (_MATCH8, _REV8, _FIRST_CLEAR, _LOW_BITS):
    _t.setflags(write=False)


@dataclass(frozen=True)
class _BlockTables:
    """The head's x-drop automaton over one block of 8 columns.

    A live lane's x-drop state is its deficit ``d = maxi - score`` in
    ``[0, xdrop)``.  The tables map ``(state, c)`` -- state = row of the
    deficit * 256 + the block's match pattern, ``c`` a prefix length in
    ``0..8`` -- to what the scalar kernel computes over the block's
    first ``c`` columns:

    ``gain``   rise of the running maximum, ``maxi' - maxi``;
    ``last``   last improving column + 1 (0: no improvement);
    ``delta``  change of the deficit, ``d' - d``;

    and a state to ``xcol``, the first column whose deficit reaches
    ``xdrop`` (8: none).  Deficits collapse to rows exactly: a block can
    raise the maximum only from ``d < near`` (= 8·match) and reach the
    x-drop only from ``d > far0`` (= xdrop - 1 - 8·mismatch), so every
    deficit in ``[near, far0]`` behaves alike up to its offset, which
    ``delta`` carries.  That bounds the tables by the scoring, not by
    ``xdrop``.

    The contiguous-seed cutoff's state is the match run, capped at ``w``
    (beyond it only ``run >= w`` matters): ``run * 256 + pattern``
    indexes ``cand`` (bit ``j``: column ``j`` re-forms a full seed word)
    and, with ``c``, ``run`` (the capped run after ``c`` columns).
    """

    near: int
    far0: int
    gain: np.ndarray  # (rows * 256, 9), smallest int holding ±8·score
    last: np.ndarray  # (rows * 256, 9) int8
    delta: np.ndarray  # (rows * 256, 9), as gain
    xcol: np.ndarray  # (rows * 256,) uint8
    cand: np.ndarray  # ((w + 1) * 256,) uint8
    run: np.ndarray  # ((w + 1) * 256, 9), smallest uint holding w

    def rows(self, d: np.ndarray) -> np.ndarray:
        """Table row of each deficit."""
        if self.far0 == self.near:
            return d
        return d - np.clip(d - self.near, 0, self.far0 - self.near)


@functools.lru_cache(maxsize=8)
def _block_tables(match: int, mismatch: int, xdrop: int, w: int) -> _BlockTables:
    """Build (once per scoring and seed width) the head's automaton.

    The arrays are read-only: the cache shares them between calls.
    """
    near = min(_BLOCK * match, xdrop)
    far0 = max(near, xdrop - 1 - _BLOCK * mismatch)
    rep = np.concatenate([np.arange(near), np.arange(far0, xdrop)])[:, None]
    shape = (rep.shape[0], 256, _BLOCK + 1)
    small = np.min_scalar_type(-_BLOCK * max(match, mismatch) - 1)
    gain = np.zeros(shape, dtype=small)
    last = np.zeros(shape, dtype=np.int8)
    delta = np.zeros(shape, dtype=small)
    xcol = np.full(shape[:2], _BLOCK, dtype=np.uint8)
    s = np.broadcast_to(-rep, shape[:2])  # score relative to entry maxi
    m = np.zeros(shape[:2], dtype=np.int64)
    lst = np.zeros(shape[:2], dtype=np.int64)
    run = np.broadcast_to(np.arange(w + 1)[:, None], (w + 1, 256))
    cand = np.zeros((w + 1, 256), dtype=np.uint8)
    runs = np.zeros((w + 1, 256, _BLOCK + 1), dtype=np.min_scalar_type(w))
    runs[:, :, 0] = run
    for j in range(_BLOCK):
        eq = _BYTE_BITS[:, j] == 1
        s = s + np.where(eq, match, -mismatch)
        lst = np.where(s > m, j + 1, lst)
        m = np.maximum(m, s)
        xcol[(xcol == _BLOCK) & (m - s >= xdrop)] = j
        gain[:, :, j + 1] = m
        last[:, :, j + 1] = lst
        delta[:, :, j + 1] = m - s - rep
        run = np.where(eq, np.minimum(run + 1, w), 0)
        cand |= (eq & (run >= w)).astype(np.uint8) << j
        runs[:, :, j + 1] = run
    tables = [
        a.reshape(-1, *a.shape[2:]) for a in (gain, last, delta, xcol, cand, runs)
    ]
    for a in tables:
        a.setflags(write=False)
    return _BlockTables(near, far0, *tables)


def _best_after(best: np.ndarray, last: np.ndarray, ext: int) -> np.ndarray:
    """Best offsets after a block prefix whose last improvement is ``last``.

    ``last`` is a column + 1, or 0 where the prefix never improved; an
    improvement always lies past the old best offset, which is at most
    ``ext``, so the maximum picks it.
    """
    new = np.add(last, ext, dtype=np.int64)
    new *= last > 0
    return np.maximum(new, best, out=new)


def _seed_cuts(
    codes1: np.ndarray,
    codes2: np.ndarray | None,
    ok2: np.ndarray | None,
    s1: np.ndarray,
    s2: np.ndarray,
    start: np.ndarray,
    left: bool,
) -> np.ndarray:
    """Whether the hit seeds starting at ``s1``/``s2`` cut their lanes.

    The paper's line-18 test: the seed's code is below the lane's start
    code (or equal, on the left), and the seed is one step 2 enumerates
    -- a bank-2 window in ``ok2``, or, for spaced and subset seeds,
    equal codes in both banks.
    """
    cc1 = codes1[s1]
    cuts = cc1 <= start if left else cc1 < start
    if codes2 is not None:
        cuts &= codes2[s2] == cc1
    elif ok2 is not None:
        cuts &= ok2[s2]
    return cuts


def _block_flags(
    packed1: PackedBank,
    packed2: PackedBank,
    g1: np.ndarray,
    g2: np.ndarray,
    left: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Match and validity bytes of each lane's next 8 scanned columns.

    ``g1``/``g2`` are the windows' first bank positions.  Bit ``j`` of
    both (uint8) arrays describes the ``j``-th column the lane examines;
    match bits are masked by validity, since padding and ambiguity codes
    pack as ``A``.
    """
    x, valid = packed1.gather8(g1)
    x2, v2 = packed2.gather8(g2)
    x ^= x2
    valid &= v2
    pat = _MATCH8[x]
    pat &= valid
    if left:  # the window is in bank order: reverse to scan order
        return _REV8[pat], _REV8[valid]
    return pat, valid.astype(np.uint8)


def _run_block(
    tabs: _BlockTables, run: np.ndarray, pat: np.ndarray, tcur: int
) -> tuple[np.ndarray, np.ndarray]:
    """Contiguous-seed cutoff over one block: ``(cand, run after tcur)``.

    ``cand`` marks the columns where a full seed word re-forms; the run
    after ``tcur`` columns is only read for lanes carried through.  A
    function of its own, so the int64 table index dies on return.
    """
    rstate = np.multiply(run, 256, dtype=np.int64)
    rstate += pat
    return tabs.cand[rstate], tabs.run[:, tcur][rstate]


def _extend_dir_tiles(
    packed1: PackedBank,
    packed2: PackedBank,
    seq1: np.ndarray,
    seq2: np.ndarray,
    codes1: np.ndarray,
    p1: np.ndarray,
    p2: np.ndarray,
    start_codes: np.ndarray,
    w: int,
    scoring: ScoringScheme,
    left: bool,
    max_extend: int,
    ordered_cutoff: bool,
    ok2: np.ndarray | None,
    codes2: np.ndarray | None,
    initial_scores: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """One-sided block/tile sweep; same contract as ``_batch_extend_dir``."""
    n = p1.shape[0]
    match = np.int64(scoring.match)
    mismatch = np.int64(scoring.mismatch)
    xdrop = np.int64(scoring.xdrop_ungapped)
    if initial_scores is None:
        init = np.full(n, scoring.seed_score(w), dtype=np.int64)
    else:
        init = np.asarray(initial_scores, dtype=np.int64)

    out_score = init.copy()
    out_offset = np.zeros(n, dtype=np.int64)
    out_cut = np.zeros(n, dtype=bool)

    # Active-lane state (compressed after each block and tile).  In the
    # head, q1/q2 are the first bank positions of the next 8-column
    # window (bank order, so a left scan's window ends at its next
    # column); the tiles use the next scanned column.
    idx = np.arange(n, dtype=np.int64)
    if left:
        q1 = p1 - _BLOCK
        q2 = p2 - _BLOCK
    else:
        q1 = p1 + w
        q2 = p2 + w
    tabs = _block_tables(
        int(scoring.match), int(scoring.mismatch), int(scoring.xdrop_ungapped), w
    )
    maxi = init.copy()
    # Deficit below maxi (score = maxi - d), in [0, xdrop) while live.
    d = np.zeros(n, dtype=np.min_scalar_type(-int(xdrop) - 1))
    best = np.zeros(n, dtype=np.int64)
    run = np.full(n, w, dtype=tabs.run.dtype)

    spaced = codes2 is not None
    steps = 0
    ext = 0

    # Head: 8-column blocks through the x-drop automaton while the lane
    # population is large.  Per block and lane, the state (deficit row
    # and match pattern) indexes the block's first x-drop column and,
    # for the prefix before the lane's stop, the gain, last improving
    # column and deficit change the scalar kernel computes column by
    # column.
    while idx.size > _SCALAR_HEAD_LANES and ext < max_extend:
        tcur = min(_BLOCK, max_extend - ext)
        pat, valid = _block_flags(packed1, packed2, q1, q2, left)
        state = np.multiply(tabs.rows(d), 256, dtype=np.int64)
        state += pat
        js = np.minimum(tabs.xcol[state], _FIRST_CLEAR[valid])
        np.minimum(js, tcur, out=js)  # first stop column, or tcur

        # -- ordered-seed cutoff: the candidate columns before the
        # x-drop/separator stop, tested column by column over the lanes
        # that still hold one, so a cut lane tests nothing past its cut
        # (candidates are valid matches: their seed starts are in range)
        cut = None
        if ordered_cutoff:
            if spaced:
                cand = pat.copy()
            else:
                cand, run = _run_block(tabs, run, pat, tcur)
            cand &= _LOW_BITS[js]
            cut = np.zeros(idx.size, dtype=bool)
            for j in range(int(cand.max(initial=0)).bit_length()):
                t = np.flatnonzero(cand & (1 << j))
                # seed start of column j, from the window's first position
                lag = _BLOCK - 1 - j if left else j - (w - 1)
                t = t[
                    _seed_cuts(
                        codes1, codes2, ok2, q1[t] + lag, q2[t] + lag,
                        start_codes[idx[t]], left,
                    )
                ]
                cut[t] = True
                js[t] = j
                cand[t] = 0
        steps += int(np.minimum(js + 1, tcur).sum())

        # -- commit lanes stopping inside the block, over the columns
        # strictly before the stop ------------------------------------ #
        done = js < tcur
        if done.any():
            sel = np.flatnonzero(done)
            lanes = idx[sel]
            at = state[sel]
            at *= _BLOCK + 1
            at += js[sel]
            out_score[lanes] = maxi[sel] + tabs.gain.ravel()[at]
            out_offset[lanes] = _best_after(best[sel], tabs.last.ravel()[at], ext)
            if cut is not None:
                out_cut[lanes] = cut[sel]
            del lanes, at  # before the compression's copies
            sel = np.flatnonzero(~done)  # the lanes carried on
            idx = idx[sel]
            q1 = q1[sel]
            q2 = q2[sel]
            maxi = maxi[sel]
            d = d[sel]
            best = best[sel]
            run = run[sel]
            state = state[sel]

        # -- carry the others through the whole block ------------------ #
        maxi = maxi + tabs.gain[:, tcur][state]
        best = _best_after(best, tabs.last[:, tcur][state], ext)
        d = d + tabs.delta[:, tcur][state]
        if left:
            q1 = q1 - tcur
            q2 = q2 - tcur
        else:
            q1 = q1 + tcur
            q2 = q2 + tcur
        ext += tcur
    if left:  # back to the next scanned column
        q1 = q1 + (_BLOCK - 1)
        q2 = q2 + (_BLOCK - 1)
    score = maxi - d
    codes = start_codes[idx]

    tile_no = 0
    while idx.size and ext < max_extend:
        T = (
            _TILE_SCHEDULE[tile_no]
            if tile_no < len(_TILE_SCHEDULE)
            else TILE
        )
        tile_no += 1
        tcur = min(T, max_extend - ext)
        cols = np.arange(T, dtype=np.int64)

        # -- match/validity flags for T columns of every lane ----------- #
        # The window is gathered in bank order; a left scan walks it
        # backwards, so its columns are reversed to scan order (column j
        # of the tile is always the j-th column *examined*).
        nwords = -(-T // 32)
        g1 = q1 - (T - 1) if left else q1
        g2 = q2 - (T - 1) if left else q2
        x = packed1.gather_words(g1, nwords)
        x ^= packed2.gather_words(g2, nwords)
        eq = match_columns(x)[:, :T]
        valid = bit_columns(
            packed1.gather_valid(g1) & packed2.gather_valid(g2)
        )[:, :T]
        if left:
            eq = eq[:, ::-1]
            valid = valid[:, ::-1]
        eq = eq & valid  # padding/ambiguity pack as 'A': mask them out

        # -- prefix scores, running maxima, improvements ---------------- #
        s = np.cumsum(np.where(eq, match, -mismatch), axis=1)
        s += score[:, None]
        m = np.maximum.accumulate(s, axis=1)
        np.maximum(m, maxi[:, None], out=m)
        mprev = np.empty_like(m)
        mprev[:, 0] = maxi
        mprev[:, 1:] = m[:, :-1]
        improved = s > mprev  # a mismatch column can never improve

        # -- ordered-seed cutoff mask ----------------------------------- #
        run_j = None
        if ordered_cutoff:
            if spaced:
                cand = eq  # anchoring is decided by code equality below
            else:
                # Run length after column j: columns since the last
                # mismatch, or the carried run plus the whole prefix.
                lastmis = np.maximum.accumulate(
                    np.where(eq, 0, cols[None, :] + 1), axis=1
                )
                run_j = np.where(
                    lastmis > 0,
                    (cols[None, :] + 1) - lastmis,
                    run[:, None] + cols[None, :] + 1,
                )
                cand = eq & (run_j >= w)
            cut = np.zeros_like(eq)
            li, cj = np.nonzero(cand)
            if li.size:
                # Candidate columns are valid matches, so their seed
                # start positions are in range by construction -- the
                # sparse gather needs no bounds handling.
                if left:
                    sp1 = q1[li] - cj
                    sp2 = q2[li] - cj
                else:
                    sp1 = q1[li] + cj - (w - 1)
                    sp2 = q2[li] + cj - (w - 1)
                cut[li, cj] = _seed_cuts(
                    codes1, codes2, ok2, sp1, sp2, codes[li], left
                )
        else:
            cut = None

        # -- first stop column per lane --------------------------------- #
        stop = ~valid | ((m - s) >= xdrop)
        if cut is not None:
            stop |= cut
        js = np.where(stop.any(axis=1), stop.argmax(axis=1), T)
        if tcur < T:
            np.minimum(js, tcur, out=js)
        steps += int(np.minimum(js + 1, tcur).sum())

        # -- commit outputs over columns strictly before the stop ------- #
        before = cols[None, :] < js[:, None]
        lane_max = np.maximum(maxi, np.where(before, s, _NEG).max(axis=1))
        impb = improved & before
        lastimp = T - 1 - impb[:, ::-1].argmax(axis=1)
        lane_best = np.where(impb.any(axis=1), ext + lastimp + 1, best)

        done = js < tcur
        if done.any():
            sidx = idx[done]
            out_score[sidx] = lane_max[done]
            out_offset[sidx] = lane_best[done]
            if cut is not None:
                out_cut[sidx] = cut[np.nonzero(done)[0], js[done]]
            keep = ~done
            idx = idx[keep]
            q1 = q1[keep]
            q2 = q2[keep]
            codes = codes[keep]
            score = s[keep][:, tcur - 1]
            maxi = lane_max[keep]
            best = lane_best[keep]
            run = run_j[keep][:, tcur - 1] if run_j is not None else run[keep]
        else:
            score = s[:, tcur - 1]
            maxi = lane_max
            best = lane_best
            if run_j is not None:
                run = run_j[:, tcur - 1]
        if left:
            q1 = q1 - tcur
            q2 = q2 - tcur
        else:
            q1 = q1 + tcur
            q2 = q2 + tcur
        ext += tcur

    # Lanes still active at max_extend: flush their current best.
    if idx.size:
        out_score[idx] = maxi
        out_offset[idx] = best
    return out_score, out_offset, out_cut, steps


def _extend_both(
    seq1: np.ndarray,
    seq2: np.ndarray,
    codes1: np.ndarray,
    p1: np.ndarray,
    p2: np.ndarray,
    start_codes: np.ndarray,
    w: int,
    scoring: ScoringScheme,
    max_extend: int,
    ordered_cutoff: bool,
    ok2: np.ndarray | None,
    codes2: np.ndarray | None,
    initial_scores: np.ndarray | None,
    packed1: PackedBank | None,
    packed2: PackedBank | None,
) -> BatchExtensionResult:
    p1 = np.asarray(p1, dtype=np.int64)
    p2 = np.asarray(p2, dtype=np.int64)
    start_codes = np.asarray(start_codes, dtype=np.int64)
    if not (p1.shape == p2.shape == start_codes.shape):
        raise ValueError("p1, p2, start_codes must have identical shapes")
    if packed1 is None:
        packed1 = PackedBank(seq1)
    if packed2 is None:
        packed2 = packed1 if seq2 is seq1 else PackedBank(seq2)

    lscore, loff, lcut, lsteps = _extend_dir_tiles(
        packed1, packed2, seq1, seq2, codes1, p1, p2, start_codes, w,
        scoring, left=True, max_extend=max_extend,
        ordered_cutoff=ordered_cutoff, ok2=ok2, codes2=codes2,
        initial_scores=initial_scores,
    )
    # Mirror the scalar short-circuit: left-cut lanes skip the right scan.
    if initial_scores is None:
        base = np.full(p1.shape[0], scoring.seed_score(w), dtype=np.int64)
    else:
        base = np.asarray(initial_scores, dtype=np.int64)
    survivors = np.nonzero(~lcut)[0]
    rscore = base.copy()
    roff = np.zeros(p1.shape[0], dtype=np.int64)
    rcut = np.zeros(p1.shape[0], dtype=bool)
    rsteps = 0
    if survivors.size:
        rs, ro, rc, rsteps = _extend_dir_tiles(
            packed1, packed2, seq1, seq2, codes1,
            p1[survivors], p2[survivors], start_codes[survivors], w, scoring,
            left=False, max_extend=max_extend, ordered_cutoff=ordered_cutoff,
            ok2=ok2, codes2=codes2,
            initial_scores=None if initial_scores is None else base[survivors],
        )
        rscore[survivors] = rs
        roff[survivors] = ro
        rcut[survivors] = rc
    return BatchExtensionResult(
        kept=~(lcut | rcut),
        start1=p1 - loff,
        end1=p1 + w + roff,
        start2=p2 - loff,
        end2=p2 + w + roff,
        score=lscore + rscore - base,
        steps=lsteps + rsteps,
        cut_left=lcut,
        cut_right=rcut,
    )


def batch_extend_vector(
    seq1: np.ndarray,
    seq2: np.ndarray,
    codes1: np.ndarray,
    p1: np.ndarray,
    p2: np.ndarray,
    start_codes: np.ndarray,
    w: int,
    scoring: ScoringScheme,
    max_extend: int = DEFAULT_MAX_EXTEND,
    ordered_cutoff: bool = True,
    ok2: np.ndarray | None = None,
    codes2: np.ndarray | None = None,
    initial_scores: np.ndarray | None = None,
    packed1: PackedBank | None = None,
    packed2: PackedBank | None = None,
) -> BatchExtensionResult:
    """Tile-sweep twin of :func:`repro.align.ungapped.batch_extend`.

    Same parameters and :class:`BatchExtensionResult` contract as the
    scalar batch kernel, plus optional pre-packed bank images
    (``packed1``/``packed2``) so repeated calls over the same banks skip
    repacking.  Lane order is preserved, making downstream HSP tables
    byte-identical between kernels.
    """
    return _extend_both(
        seq1, seq2, codes1, p1, p2, start_codes, w, scoring,
        max_extend, ordered_cutoff, ok2, codes2, initial_scores,
        packed1, packed2,
    )


@dataclass(slots=True)
class VectorStageResult:
    """Compacted step-2 chunk outcome with S1 applied inside the kernel.

    The coordinate arrays contain only the surviving lanes (cutoff passed
    in both directions *and* score >= S1), in original lane order, so the
    resulting HSP table is byte-identical to the scalar path's
    filter-after-extend sequence.  The dropped lanes are summarised by
    the funnel counts, which satisfy
    ``n_cut_left + n_cut_right + n_below_s1 + len(start1) == n_lanes``.
    """

    start1: np.ndarray
    end1: np.ndarray
    start2: np.ndarray
    end2: np.ndarray
    score: np.ndarray
    n_lanes: int
    n_cut_left: int
    n_cut_right: int
    n_below_s1: int
    steps: int


def extend_filter_vector(
    seq1: np.ndarray,
    seq2: np.ndarray,
    codes1: np.ndarray,
    p1: np.ndarray,
    p2: np.ndarray,
    start_codes: np.ndarray,
    w: int,
    scoring: ScoringScheme,
    s1_threshold: int,
    max_extend: int = DEFAULT_MAX_EXTEND,
    ordered_cutoff: bool = True,
    ok2: np.ndarray | None = None,
    codes2: np.ndarray | None = None,
    initial_scores: np.ndarray | None = None,
    packed1: PackedBank | None = None,
    packed2: PackedBank | None = None,
) -> VectorStageResult:
    """Extend a chunk and apply the S1 threshold before HSPs leave.

    This is the engine's step-2 entry point for the vector kernel: the
    dead lanes (cut or under-threshold) are compacted away here, so the
    caller appends the arrays to its HSP table as-is and only touches
    per-chunk scalars otherwise.
    """
    res = _extend_both(
        seq1, seq2, codes1, p1, p2, start_codes, w, scoring,
        max_extend, ordered_cutoff, ok2, codes2, initial_scores,
        packed1, packed2,
    )
    keep = res.kept & (res.score >= s1_threshold)
    n_lanes = res.kept.shape[0]
    n_cut_left = int(res.cut_left.sum())
    n_cut_right = int(res.cut_right.sum())
    return VectorStageResult(
        start1=res.start1[keep],
        end1=res.end1[keep],
        start2=res.start2[keep],
        end2=res.end2[keep],
        score=res.score[keep],
        n_lanes=n_lanes,
        n_cut_left=n_cut_left,
        n_cut_right=n_cut_right,
        n_below_s1=n_lanes - n_cut_left - n_cut_right - int(keep.sum()),
        steps=res.steps,
    )
