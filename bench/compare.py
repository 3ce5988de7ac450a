"""Compare two sets of benchmark results: parent (A) against change (B).

Usage::

    python3 bench/compare.py A.jsonl B.jsonl

Each file holds the JSON lines ``run.py --out`` appends, one per
workload run.  Run the two commits alternately, at least ten times each
(see bench/README.md); the i-th untraced run of a workload in A is
paired with the i-th in B.  One row is printed per workload and
end-to-end metric: each side's median and quartiles, the share of pairs
the change won, and a verdict using the bounds in ``BENCHMARK.json``:

``improved``
    the change won at least 9 of 10 pairs (ties count for neither) and
    the medians differ by more than the parent's quartile distance;
``regressed``
    the change's median is worse than the parent's by more than the bound;
``unresolved``
    the parent's own spread is wider than the bound, and not every run of
    the change beats every run of the parent;
``unchanged``
    none of the above.

Exit code 1 when any row regressed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from summary import quartiles, relative_spread

ROOT = Path(__file__).resolve().parent.parent
WIN_SHARE = 0.9


def load(path: str) -> dict[str, list[dict]]:
    """Untraced runs per workload, in file order."""
    runs: dict[str, list[dict]] = {}
    for line in Path(path).read_text().splitlines():
        if line.strip():
            result = json.loads(line)
            if not result["trace"]:
                runs.setdefault(result["workload"], []).append(result)
    return runs


def verdict(a: list[float], b: list[float], better: str, bound: float):
    """``(verdict, win share)`` for parent values ``a`` and change values ``b``."""
    sign = 1.0 if better == "higher" else -1.0

    def gain(x: float, y: float) -> float:  # > 0 when y is better than x
        return sign * (y - x)

    pairs = list(zip(a, b))
    wins = sum(gain(x, y) > 0 for x, y in pairs) / len(pairs)
    q1, med_a, q3 = quartiles(a)
    med_b = quartiles(b)[1]
    all_better = all(gain(x, y) > 0 for x in a for y in b)
    if relative_spread(a) > bound and not all_better:
        return "unresolved", wins
    if -gain(med_a, med_b) > bound * abs(med_a):
        return "regressed", wins
    if wins >= WIN_SHARE and gain(med_a, med_b) > q3 - q1:
        return "improved", wins
    return "unchanged", wins


def values(runs: list[dict], metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in runs if metric in r["metrics"]]


def cell(xs: list[float]) -> str:
    q1, med, q3 = quartiles(xs)
    return f"{med:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parent, change = load(argv[0]), load(argv[1])
    regressed = False
    print(
        f"{'workload':18s} {'metric':16s} {'parent median [q1, q3]':>30s} "
        f"{'change median [q1, q3]':>30s} {'wins':>5s}  verdict"
    )
    for workload in parent:
        if workload not in change:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a = values(parent[workload], name)
            b = values(change[workload], name)
            if not a or not b:
                continue
            result, wins = verdict(a, b, metric["better"], metric["bound"])
            regressed |= result == "regressed"
            print(
                f"{workload:18s} {name:16s} {cell(a):>30s} {cell(b):>30s} "
                f"{wins:5.2f}  {result} (pairs={min(len(a), len(b))}, "
                f"bound {metric['bound']:.0%})"
            )
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
