"""Hit-pair enumeration for step 2 (the paper's two inner loops).

For every seed code present in both banks, step 2 examines the cartesian
product of its occurrence positions ("If X1 and X2 are respectively the
number of occurrences in bank1 and bank2, then there are X1 x X2 hit
extensions to compute").  The vectorised engine materialises those products
in *chunks* of roughly ``chunk_pairs`` lanes so the extension kernel always
works on large batches, while preserving the paper's strictly increasing
seed-code order across chunks (each chunk covers a contiguous, ascending
range of codes; lanes within a chunk carry their own ``start_code``, which
is all the ordered cutoff needs).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ..index.seed_index import CommonCodes, CsrSeedIndex

__all__ = [
    "PairChunk",
    "iter_pair_chunks",
    "pair_costs",
    "segmented_cartesian",
    "split_balanced_ranges",
]


@dataclass(frozen=True, slots=True)
class PairChunk:
    """A batch of hit pairs covering an ascending range of seed codes."""

    p1: np.ndarray  # int64 positions in bank 1
    p2: np.ndarray  # int64 positions in bank 2
    codes: np.ndarray  # int64 seed code per lane (non-decreasing)

    @property
    def n_pairs(self) -> int:
        return int(self.p1.shape[0])


def segmented_cartesian(
    positions1: np.ndarray,
    positions2: np.ndarray,
    start1: np.ndarray,
    count1: np.ndarray,
    start2: np.ndarray,
    count2: np.ndarray,
    codes: np.ndarray,
) -> PairChunk:
    """Vectorised cartesian product over many code segments at once.

    For segment ``k`` the product of
    ``positions1[start1[k] : +count1[k]]`` and
    ``positions2[start2[k] : +count2[k]]`` is emitted in row-major order
    (bank-1 position varying slowest), matching the paper's nested loops.
    """
    t = count1.astype(np.int64) * count2
    total = int(t.sum())
    if total == 0:
        z = np.empty(0, dtype=np.int64)
        return PairChunk(p1=z, p2=z.copy(), codes=z.copy())
    seg_off = np.concatenate(([0], np.cumsum(t)))[:-1]
    # Global slot -> segment id (repeat) and rank within segment.
    seg_id = np.repeat(np.arange(t.shape[0], dtype=np.int64), t)
    rank = np.arange(total, dtype=np.int64) - seg_off[seg_id]
    b = count2[seg_id]
    i = rank // b
    j = rank - i * b
    # The index arrays may be int32; the lanes are int64.
    p1 = positions1[start1[seg_id] + i].astype(np.int64)
    p2 = positions2[start2[seg_id] + j].astype(np.int64)
    return PairChunk(p1=p1, p2=p2, codes=codes[seg_id].astype(np.int64))


def pair_costs(
    common: CommonCodes, max_occurrences: int | None = None
) -> np.ndarray:
    """Per-code step-2 cost: the paper's ``X1 x X2`` extension count.

    Codes that ``max_occurrences`` would drop in :func:`iter_pair_chunks`
    cost nothing (they never reach the extension kernel), so the balanced
    splitter sees exactly the work the workers will do.
    """
    c1 = common.count1.astype(np.int64)
    c2 = common.count2.astype(np.int64)
    costs = c1 * c2
    if max_occurrences is not None:
        costs[(c1 > max_occurrences) | (c2 > max_occurrences)] = 0
    return costs


def split_balanced_ranges(
    costs: np.ndarray, n_chunks: int
) -> list[tuple[int, int]]:
    """Split ``range(len(costs))`` into contiguous chunks of ~equal cost.

    Seed occurrence counts are heavy-tailed, so equal *code-count* ranges
    (``np.linspace``) concentrate most of the X1*X2 pair work in a few
    chunks.  This splitter places boundaries at cost quantiles instead
    (``searchsorted`` over the prefix sum), preserving the ascending code
    order inside every chunk -- the ordered-seed cutoff only needs that
    intra-chunk order, so the partition policy is free.

    Guarantee: among chunks it returns, ``max(cost) / min(cost) <= 1.5``
    whenever total cost is positive.  One indivisible pathological code
    can force fewer chunks than requested (its cost bounds the achievable
    maximum from below, so balance is restored by merging neighbours);
    the degenerate floor is a single chunk, whose ratio is trivially 1.
    """
    if n_chunks < 1:
        raise ValueError("n_chunks must be >= 1")
    n_codes = int(costs.shape[0])
    if n_codes == 0:
        return []
    costs = costs.astype(np.int64)
    csum = np.cumsum(costs)
    total = int(csum[-1])
    if total == 0:
        # No pair work anywhere: any split is balanced; keep it cheap.
        return [(0, n_codes)]
    c_max = int(costs.max())
    # A chunk containing the heaviest code costs >= c_max, so with more
    # than total/c_max chunks some other chunk must fall below c_max/1.5.
    n_eff = max(1, min(n_chunks, total // c_max, n_codes))
    while True:
        targets = total * np.arange(1, n_eff, dtype=np.float64) / n_eff
        cuts = np.searchsorted(csum, targets, side="left") + 1
        bounds = np.concatenate(([0], np.unique(cuts), [n_codes]))
        bounds = np.unique(bounds)
        chunk_costs = np.diff(np.concatenate(([0], csum[bounds[1:] - 1])))
        nonzero = chunk_costs[chunk_costs > 0]
        if n_eff == 1 or (
            nonzero.size > 0
            and float(nonzero.max()) / float(nonzero.min()) <= 1.5
        ):
            break
        n_eff -= 1
    out: list[tuple[int, int]] = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        if hi > lo:
            out.append((int(lo), int(hi)))
    return out


def iter_pair_chunks(
    index1: CsrSeedIndex,
    index2: CsrSeedIndex,
    common: CommonCodes,
    chunk_pairs: int,
    max_occurrences: int | None = None,
) -> Iterator[PairChunk]:
    """Yield pair chunks over the common codes, in ascending code order.

    ``max_occurrences`` silently drops codes that occur more than that many
    times in either bank (repeat protection; ``None`` keeps everything, the
    paper's behaviour).  Codes with huge products are split across chunks
    only at code boundaries, so one pathological code may exceed
    ``chunk_pairs`` -- acceptable because the kernel is O(lanes) in memory
    and chunking is a throughput knob, not a correctness one.
    """
    codes = common.codes
    c1 = common.count1
    c2 = common.count2
    s1 = common.start1
    s2 = common.start2
    if max_occurrences is not None:
        keep = (c1 <= max_occurrences) & (c2 <= max_occurrences)
        codes, c1, c2, s1, s2 = codes[keep], c1[keep], c2[keep], s1[keep], s2[keep]
    if codes.shape[0] == 0:
        return
    products = c1.astype(np.int64) * c2
    # Greedy split: cut a new chunk whenever the running product total
    # passes chunk_pairs.  np.searchsorted over the cumulative sum gives
    # all boundaries without a Python loop per code.
    csum = np.cumsum(products)
    boundaries = [0]
    target = chunk_pairs
    while target < csum[-1]:
        cut = int(np.searchsorted(csum, target, side="left")) + 1
        if cut <= boundaries[-1]:
            cut = boundaries[-1] + 1
        boundaries.append(min(cut, codes.shape[0]))
        target = (csum[boundaries[-1] - 1] if boundaries[-1] > 0 else 0) + chunk_pairs
    if boundaries[-1] != codes.shape[0]:
        boundaries.append(codes.shape[0])
    for lo, hi in zip(boundaries[:-1], boundaries[1:]):
        if lo >= hi:
            continue
        yield segmented_cartesian(
            index1.positions,
            index2.positions,
            s1[lo:hi],
            c1[lo:hi],
            s2[lo:hi],
            c2[lo:hi],
            codes[lo:hi],
        )
