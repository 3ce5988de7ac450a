"""Order statistics and span arithmetic shared by the benchmark scripts.

Pure functions over lists of numbers or span tuples, so the runner, the
comparer and the tests all use one definition of "median", "tail" and
"self time".
"""

from __future__ import annotations

import statistics

#: Percentiles tried, highest first, when picking a timing's tail.
TAIL_PERCENTILES = (99, 95, 90, 75, 50)


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    values = list(values)
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def percentile(values, p: int) -> float:
    """The ``p``-th percentile (1..99), inclusive method."""
    values = list(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def tail(values, min_beyond: int = 10) -> tuple[int, float] | None:
    """The highest percentile with at least ``min_beyond`` samples above it.

    Returns ``(p, value)``, or ``None`` when even the median has fewer
    than ``min_beyond`` samples beyond it.
    """
    values = sorted(values)
    for p in TAIL_PERCENTILES:
        value = percentile(values, p)
        if sum(v > value for v in values) >= min_beyond:
            return p, value
    return None


def self_times(spans) -> dict[str, float]:
    """Total self time per span name.

    ``spans`` is a sequence of ``(name, start, end, parent)`` where
    ``parent`` indexes the enclosing span (``None`` for a root).  A span's
    self time is its duration minus the part of its interval that its
    direct children cover (overlapping children count once).
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    totals: dict[str, float] = {}
    for i, (name, start, end, _parent) in enumerate(spans):
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start = max(c_start, cursor)
            c_end = min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        totals[name] = totals.get(name, 0.0) + (end - start) - covered
    return totals
