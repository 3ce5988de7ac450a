"""Ungapped x-drop extension with the ordered-seed cutoff (paper 2.2).

This module is the heart of the reproduction: it implements the paper's
``extend_left`` (and its right-hand mirror) twice --

* :func:`extend_left_ref` / :func:`extend_right_ref` /
  :func:`extend_hit_ref`: direct scalar transcriptions of the paper's C
  pseudo-code, kept deliberately simple and used as the behavioural oracle
  in tests;
* :func:`batch_extend`: a NumPy lane-parallel kernel that extends thousands
  of hit pairs simultaneously (one vectorised step per extension column),
  which is what makes the engine usable in pure Python.  Property-based
  tests assert it agrees with the scalar oracle pair-for-pair.

A third implementation, :func:`repro.align.vector_kernel.batch_extend_vector`,
sweeps 64 columns per NumPy pass over 2-bit packed banks and is the
engine's default (``OrisParams.kernel == "vector"``); this module's
:func:`batch_extend` remains the ``--kernel scalar`` fallback and the
mid-level differential reference between the scalar oracle and the tile
kernel.  :func:`get_batch_kernel` maps the parameter value to the
callable.

Ordered-seed cutoff semantics (the paper's key invariant)
----------------------------------------------------------

While extending a hit of seed code ``c`` and width ``W``, we track ``L``,
the length of the current run of consecutive matching characters (``L``
starts at ``W``: the seed itself).  Whenever ``L >= W``, the ``W``-window
ending (left scan) or starting (right scan) at the current column is an
exact match on both sequences -- i.e. another *hit seed* inside the same
prospective HSP.  If that seed's code is **lower** than ``c`` (or equal,
on the left side), this HSP's canonical generator is that other seed, so
the whole extension is aborted and no HSP is reported:

* left scan aborts on ``code <= c`` (paper's ``extend_left``, line 18 --
  ``<=`` makes the *leftmost* occurrence canonical among equal codes);
* right scan aborts on ``code < c`` (strict, otherwise the canonical
  leftmost occurrence would abort on seeing its own duplicates to the
  right and nobody would generate the HSP).

Together these guarantee each HSP is generated exactly once, from its
lowest-code, leftmost seed: the paper's "unique HSPs" property, which the
test suite checks by enumeration against a brute-force HSP catalogue.

One refinement over the paper's published listing: the cutoff only fires
on seeds that step 2 would actually *enumerate*.  A candidate seed whose
word is absent from either bank's index -- because the low-complexity
filter discarded it, or because asymmetric indexing (section 3.4) skips
odd positions of one bank -- can never generate the HSP, so deferring to
it would silently lose the alignment.  Callers express this through the
``codes1`` array (set ineligible bank-1 windows to a huge sentinel) and
the optional ``ok2`` mask over bank-2 window starts.  With fully-indexed
banks both default to "everything eligible" and the semantics reduce to
the paper's listing exactly.

Extensions hard-stop when they touch an invalid character (``N`` or a bank
separator), so alignments never cross sequence boundaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..encoding import INVALID
from .scoring import ScoringScheme

__all__ = [
    "CUTOFF",
    "ExtensionResult",
    "extend_left_ref",
    "extend_right_ref",
    "extend_hit_ref",
    "extend_left_spaced_ref",
    "extend_right_spaced_ref",
    "extend_hit_spaced_ref",
    "span_initial_score",
    "batch_extend",
    "BatchExtensionResult",
    "get_batch_kernel",
]


def get_batch_kernel(kernel: str):
    """Resolve an ``OrisParams.kernel`` value to its batch-extend callable.

    Both callables share the :func:`batch_extend` signature and
    :class:`BatchExtensionResult` contract (the vector one additionally
    accepts pre-packed banks).  Imported lazily to keep this module free
    of a cycle with :mod:`repro.align.vector_kernel`.
    """
    if kernel == "vector":
        from .vector_kernel import batch_extend_vector

        return batch_extend_vector
    if kernel == "scalar":
        return batch_extend
    raise ValueError(f"unknown kernel {kernel!r}")

#: Sentinel returned by the scalar reference functions when the ordered-seed
#: cutoff fires (the paper's ``return -1``).
CUTOFF = None

#: Default bound on extension length per direction.  The paper bounds its
#: extension by a caller-supplied ``length`` (remaining search space); in a
#: bank with separators the x-drop or a separator always stops us first, so
#: this is a safety net, not a tuning knob.
DEFAULT_MAX_EXTEND = 1 << 30


@dataclass(frozen=True, slots=True)
class ExtensionResult:
    """Outcome of one scalar one-sided extension."""

    score: int  # best score reached (including the seed's own score)
    offset: int  # columns extended to reach the best score


def extend_left_ref(
    seq1: np.ndarray,
    seq2: np.ndarray,
    codes1: np.ndarray,
    p1: int,
    p2: int,
    w: int,
    start_code: int,
    scoring: ScoringScheme,
    max_extend: int = DEFAULT_MAX_EXTEND,
    ok2: np.ndarray | None = None,
) -> ExtensionResult | None:
    """Scalar left extension; transcription of the paper's ``extend_left``.

    ``p1``/``p2`` point at the first character of the seed in each bank.
    Returns :data:`CUTOFF` (``None``) when a hit seed with code
    ``<= start_code`` is found inside a fully-matched window, otherwise the
    best score and the offset achieving it.
    """
    match, mismatch = scoring.match, scoring.mismatch
    xdrop = scoring.xdrop_ungapped
    score = maxi = scoring.seed_score(w)
    best_offset = 0
    run = w  # the paper's L: consecutive matches, seeded with the hit itself
    q1, q2 = p1 - 1, p2 - 1
    ext = 0
    while maxi - score < xdrop and ext < max_extend:
        c1, c2 = seq1[q1], seq2[q2]
        if c1 >= INVALID or c2 >= INVALID:
            break  # sequence boundary: hard stop
        if c1 == c2:
            score += match
            run += 1
            if score > maxi:
                maxi = score
                best_offset = ext + 1
            if (
                run >= w
                and codes1[q1] <= start_code
                and (ok2 is None or ok2[q2])
            ):
                return CUTOFF
        else:
            score -= mismatch
            run = 0
        q1 -= 1
        q2 -= 1
        ext += 1
    return ExtensionResult(score=int(maxi), offset=int(best_offset))


def extend_right_ref(
    seq1: np.ndarray,
    seq2: np.ndarray,
    codes1: np.ndarray,
    p1: int,
    p2: int,
    w: int,
    start_code: int,
    scoring: ScoringScheme,
    max_extend: int = DEFAULT_MAX_EXTEND,
    ok2: np.ndarray | None = None,
) -> ExtensionResult | None:
    """Scalar right extension (mirror of :func:`extend_left_ref`).

    The cutoff here is *strict* (``code < start_code``); see module docs.
    """
    match, mismatch = scoring.match, scoring.mismatch
    xdrop = scoring.xdrop_ungapped
    score = maxi = scoring.seed_score(w)
    best_offset = 0
    run = w
    q1, q2 = p1 + w, p2 + w
    ext = 0
    while maxi - score < xdrop and ext < max_extend:
        c1, c2 = seq1[q1], seq2[q2]
        if c1 >= INVALID or c2 >= INVALID:
            break
        if c1 == c2:
            score += match
            run += 1
            if score > maxi:
                maxi = score
                best_offset = ext + 1
            if (
                run >= w
                and codes1[q1 - w + 1] < start_code
                and (ok2 is None or ok2[q2 - w + 1])
            ):
                return CUTOFF
        else:
            score -= mismatch
            run = 0
        q1 += 1
        q2 += 1
        ext += 1
    return ExtensionResult(score=int(maxi), offset=int(best_offset))


def extend_hit_ref(
    seq1: np.ndarray,
    seq2: np.ndarray,
    codes1: np.ndarray,
    p1: int,
    p2: int,
    w: int,
    scoring: ScoringScheme,
    max_extend: int = DEFAULT_MAX_EXTEND,
    ok2: np.ndarray | None = None,
) -> tuple[int, int, int, int, int] | None:
    """Full bidirectional scalar extension of one hit.

    Returns ``(start1, end1, start2, end2, score)`` in global coordinates,
    or ``None`` when the ordered-seed cutoff fired in either direction.
    The seed's own score is counted once.
    """
    start_code = int(codes1[p1])
    left = extend_left_ref(
        seq1, seq2, codes1, p1, p2, w, start_code, scoring, max_extend, ok2
    )
    if left is CUTOFF:
        return None
    right = extend_right_ref(
        seq1, seq2, codes1, p1, p2, w, start_code, scoring, max_extend, ok2
    )
    if right is CUTOFF:
        return None
    score = left.score + right.score - scoring.seed_score(w)
    return (
        p1 - left.offset,
        p1 + w + right.offset,
        p2 - left.offset,
        p2 + w + right.offset,
        score,
    )


def extend_left_spaced_ref(
    seq1: np.ndarray,
    seq2: np.ndarray,
    cut_codes1: np.ndarray,
    cut_codes2: np.ndarray,
    p1: int,
    p2: int,
    span: int,
    start_code: int,
    initial_score: int,
    scoring: ScoringScheme,
    max_extend: int = DEFAULT_MAX_EXTEND,
) -> ExtensionResult | None:
    """Scalar left extension under a spaced seed (test oracle).

    The candidate-seed test of the contiguous case (match-run length
    ``>= w``) is replaced by direct *code equality*: a spaced seed
    anchors at the scan position iff both banks' spaced codes there are
    equal (eligibility is already folded into the cutoff-code arrays as a
    sentinel, which can never satisfy ``<= start_code``).
    """
    match, mismatch = scoring.match, scoring.mismatch
    xdrop = scoring.xdrop_ungapped
    score = maxi = initial_score
    best_offset = 0
    q1, q2 = p1 - 1, p2 - 1
    ext = 0
    while maxi - score < xdrop and ext < max_extend:
        c1, c2 = seq1[q1], seq2[q2]
        if c1 >= INVALID or c2 >= INVALID:
            break
        if c1 == c2:
            score += match
            if score > maxi:
                maxi = score
                best_offset = ext + 1
            cc = cut_codes1[q1]
            if cc <= start_code and cut_codes2[q2] == cc:
                return CUTOFF
        else:
            score -= mismatch
        q1 -= 1
        q2 -= 1
        ext += 1
    return ExtensionResult(score=int(maxi), offset=int(best_offset))


def extend_right_spaced_ref(
    seq1: np.ndarray,
    seq2: np.ndarray,
    cut_codes1: np.ndarray,
    cut_codes2: np.ndarray,
    p1: int,
    p2: int,
    span: int,
    start_code: int,
    initial_score: int,
    scoring: ScoringScheme,
    max_extend: int = DEFAULT_MAX_EXTEND,
) -> ExtensionResult | None:
    """Scalar right extension under a spaced seed (strict cutoff)."""
    match, mismatch = scoring.match, scoring.mismatch
    xdrop = scoring.xdrop_ungapped
    score = maxi = initial_score
    best_offset = 0
    q1, q2 = p1 + span, p2 + span
    ext = 0
    while maxi - score < xdrop and ext < max_extend:
        c1, c2 = seq1[q1], seq2[q2]
        if c1 >= INVALID or c2 >= INVALID:
            break
        if c1 == c2:
            score += match
            if score > maxi:
                maxi = score
                best_offset = ext + 1
            t1 = q1 - span + 1
            cc = cut_codes1[t1]
            if cc < start_code and cut_codes2[q2 - span + 1] == cc:
                return CUTOFF
        else:
            score -= mismatch
        q1 += 1
        q2 += 1
        ext += 1
    return ExtensionResult(score=int(maxi), offset=int(best_offset))


def span_initial_score(
    seq1: np.ndarray,
    seq2: np.ndarray,
    p1: np.ndarray,
    p2: np.ndarray,
    span: int,
    scoring: ScoringScheme,
) -> np.ndarray:
    """Exact score of the seed span columns for each hit pair.

    Contiguous seeds are exact matches, so their initial score is just
    ``w * match``; a spaced seed only guarantees its sampled positions,
    so the span is re-scored (don't-care columns may mismatch).
    Vectorised: ``span`` passes over the lanes.
    """
    p1 = np.asarray(p1, dtype=np.int64)
    p2 = np.asarray(p2, dtype=np.int64)
    score = np.zeros(p1.shape[0], dtype=np.int64)
    for j in range(span):
        c1 = seq1[p1 + j]
        c2 = seq2[p2 + j]
        score += np.where(c1 == c2, scoring.match, -scoring.mismatch)
    return score


def extend_hit_spaced_ref(
    seq1: np.ndarray,
    seq2: np.ndarray,
    cut_codes1: np.ndarray,
    cut_codes2: np.ndarray,
    p1: int,
    p2: int,
    span: int,
    scoring: ScoringScheme,
    max_extend: int = DEFAULT_MAX_EXTEND,
) -> tuple[int, int, int, int, int] | None:
    """Full bidirectional scalar spaced-seed extension of one hit."""
    start_code = int(cut_codes1[p1])
    init = int(
        span_initial_score(
            seq1, seq2, np.asarray([p1]), np.asarray([p2]), span, scoring
        )[0]
    )
    left = extend_left_spaced_ref(
        seq1, seq2, cut_codes1, cut_codes2, p1, p2, span, start_code, init,
        scoring, max_extend,
    )
    if left is CUTOFF:
        return None
    right = extend_right_spaced_ref(
        seq1, seq2, cut_codes1, cut_codes2, p1, p2, span, start_code, init,
        scoring, max_extend,
    )
    if right is CUTOFF:
        return None
    score = left.score + right.score - init
    return (
        p1 - left.offset,
        p1 + span + right.offset,
        p2 - left.offset,
        p2 + span + right.offset,
        score,
    )


@dataclass(slots=True)
class BatchExtensionResult:
    """Columnar outcome of a batch bidirectional extension.

    ``kept`` flags lanes that survived the cutoff in both directions; the
    coordinate arrays are only meaningful where ``kept`` is True.
    """

    kept: np.ndarray  # bool (n,)
    start1: np.ndarray  # int64 (n,)
    end1: np.ndarray
    start2: np.ndarray
    end2: np.ndarray
    score: np.ndarray  # int64 (n,)
    #: Number of lane-steps executed (profiling/ablation metric: total work)
    steps: int
    #: Lanes killed by the ordered-seed cutoff during the left scan.
    cut_left: np.ndarray | None = None
    #: Lanes killed during the right scan (disjoint from ``cut_left``: the
    #: right scan only runs on left-scan survivors).
    cut_right: np.ndarray | None = None


def _batch_extend_dir(
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
    """One-sided lane-parallel extension.

    Returns ``(best_score, best_offset, cut, steps)`` over all lanes.
    ``cut`` marks lanes killed by the ordered-seed cutoff.  Lane semantics
    match the scalar reference exactly (asserted by property tests).
    """
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

    # Active-lane state (compressed each iteration).
    idx = np.arange(n, dtype=np.int64)
    if left:
        q1 = p1.astype(np.int64) - 1
        q2 = p2.astype(np.int64) - 1
        step = -1
    else:
        q1 = p1.astype(np.int64) + w
        q2 = p2.astype(np.int64) + w
        step = 1
    score = init.copy()
    maxi = score.copy()
    best = np.zeros(n, dtype=np.int64)
    run = np.full(n, w, dtype=np.int64)
    codes = start_codes.astype(np.int64)

    steps = 0
    ext = 0
    while idx.size and ext < max_extend:
        steps += idx.size
        c1 = seq1[q1]
        c2 = seq2[q2]
        valid = (c1 < INVALID) & (c2 < INVALID)
        eq = (c1 == c2) & valid

        score = np.where(eq, score + match, score - mismatch)
        run = np.where(eq, run + 1, 0)
        improved = score > maxi
        maxi = np.where(improved, score, maxi)
        best = np.where(improved & eq, ext + 1, best)

        if ordered_cutoff:
            if left:
                seed1, seed2 = q1, q2
                lower = codes1[seed1] <= codes
            else:
                seed1, seed2 = q1 - (w - 1), q2 - (w - 1)
                lower = codes1[seed1] < codes
            if codes2 is not None:
                # Spaced-seed mode: a candidate anchors here iff the two
                # banks' spaced codes are equal (eligibility is folded in
                # as a sentinel that can never be <= a real start code).
                cut_now = eq & lower & (codes1[seed1] == codes2[seed2])
            else:
                if ok2 is not None:
                    lower = lower & ok2[seed2]
                cut_now = eq & (run >= w) & lower
        else:
            cut_now = np.zeros(idx.size, dtype=bool)

        xstop = (maxi - score) >= xdrop
        stop = ~valid | cut_now | xstop

        if stop.any():
            stopped = stop
            sidx = idx[stopped]
            out_score[sidx] = maxi[stopped]
            out_offset[sidx] = best[stopped]
            out_cut[sidx] = cut_now[stopped]
            keep = ~stopped
            idx = idx[keep]
            q1 = q1[keep]
            q2 = q2[keep]
            score = score[keep]
            maxi = maxi[keep]
            best = best[keep]
            run = run[keep]
            codes = codes[keep]

        q1 = q1 + step
        q2 = q2 + step
        ext += 1

    # Lanes still active at max_extend: flush their current best.
    if idx.size:
        out_score[idx] = maxi
        out_offset[idx] = best
    return out_score, out_offset, out_cut, steps


def batch_extend(
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
) -> BatchExtensionResult:
    """Bidirectional lane-parallel ungapped extension of many hits.

    Parameters
    ----------
    seq1, seq2:
        Encoded bank arrays (with separators).
    codes1:
        Per-position seed codes of bank 1 (``CsrSeedIndex.cutoff_codes``,
        any integer dtype), used by the ordered-seed cutoff test.
    p1, p2:
        Hit seed positions (global), one lane per hit pair.
    start_codes:
        Seed code of each lane's hit (all equal when the caller batches a
        single code; the kernel supports mixed-code batches so step 2 can
        process many consecutive codes per call).
    ordered_cutoff:
        Disable to measure the paper's counterfactual ("without such a
        condition the same HSP would be produced in multiple copies") --
        used by the ablation bench, never by the engine.
    codes2:
        Bank-2 cutoff codes: supplying them switches the cutoff to
        spaced-seed semantics (code equality instead of the contiguous
        match-run test); ``w`` is then the mask's *span* and
        ``initial_scores`` the exact span scores (see
        :func:`span_initial_score`).
    """
    p1 = np.asarray(p1, dtype=np.int64)
    p2 = np.asarray(p2, dtype=np.int64)
    start_codes = np.asarray(start_codes, dtype=np.int64)
    if not (p1.shape == p2.shape == start_codes.shape):
        raise ValueError("p1, p2, start_codes must have identical shapes")

    lscore, loff, lcut, lsteps = _batch_extend_dir(
        seq1, seq2, codes1, p1, p2, start_codes, w, scoring,
        left=True, max_extend=max_extend, ordered_cutoff=ordered_cutoff,
        ok2=ok2, codes2=codes2, initial_scores=initial_scores,
    )
    # Mirror the scalar short-circuit: lanes already cut on the left are not
    # extended rightwards (same result, less work).
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
        rs, ro, rc, rsteps = _batch_extend_dir(
            seq1, seq2, codes1,
            p1[survivors], p2[survivors], start_codes[survivors], w, scoring,
            left=False, max_extend=max_extend, ordered_cutoff=ordered_cutoff,
            ok2=ok2, codes2=codes2,
            initial_scores=None if initial_scores is None else base[survivors],
        )
        rscore[survivors] = rs
        roff[survivors] = ro
        rcut[survivors] = rc
    kept = ~(lcut | rcut)
    score = lscore + rscore - base
    start1 = p1 - loff
    end1 = p1 + w + roff
    start2 = p2 - loff
    end2 = p2 + w + roff
    return BatchExtensionResult(
        kept=kept,
        start1=start1,
        end1=end1,
        start2=start2,
        end2=end2,
        score=score,
        steps=lsteps + rsteps,
        cut_left=lcut,
        cut_right=rcut,
    )
