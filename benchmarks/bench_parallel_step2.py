"""Experiment: seed-space parallel step 2 (paper section 4).

"The outer loop of step 2 which considers all the possible 4^W seeds can
be run in parallel since seed order prevents identical HSPs to be
generated."

This bench verifies the decomposition's exactness at several worker
counts and measures the overhead/speed-up.  (On the single-core container
these runs use, fork+merge overhead dominates; the point established here
is correctness and the work partition -- the paper's claim is about the
absence of inter-worker coordination, which the exactness check is.)

    python benchmarks/bench_parallel_step2.py
    pytest benchmarks/bench_parallel_step2.py --benchmark-only
"""

from __future__ import annotations

import os
import time

from _shared import FULL_SCALE, QUICK_SCALE, _cached_bank, print_and_return
from repro.core import OrisEngine, OrisParams
from repro.runtime.scheduler import RuntimeConfig, compare_resilient
from repro.eval import render_table

WORKER_COUNTS = (1, 2, 4)


def run_sweep(scale: float, pair=("EST1", "EST2")):
    b1 = _cached_bank(pair[0], scale)
    b2 = _cached_bank(pair[1], scale)
    t0 = time.perf_counter()
    seq = OrisEngine(OrisParams()).compare(b1, b2)
    t_seq = time.perf_counter() - t0
    seq_lines = [r.to_line() for r in seq.records]
    rows = [("sequential", 1, t_seq, len(seq.records), "-")]
    for n in WORKER_COUNTS[1:]:
        t0 = time.perf_counter()
        par = compare_resilient(b1, b2, OrisParams(), RuntimeConfig(n_workers=n))
        wall = time.perf_counter() - t0
        exact = [r.to_line() for r in par.records] == seq_lines
        rows.append((f"parallel x{n}", n, wall, len(par.records),
                     "exact" if exact else "MISMATCH"))
    return rows


def make_table(scale: float) -> tuple[str, list]:
    rows = run_sweep(scale)
    text = render_table(
        ["variant", "workers", "time (s)", "records", "vs sequential"],
        rows,
        title=f"Parallel step 2 (cpu count here: {os.cpu_count()}; scale {scale})",
    )
    return text, rows


def check_shape(rows) -> None:
    assert all(r[4] in ("-", "exact") for r in rows), "partition must be exact"


def bench_parallel_two_workers(benchmark):
    b1 = _cached_bank("EST1", QUICK_SCALE)
    b2 = _cached_bank("EST2", QUICK_SCALE)
    res = benchmark.pedantic(
        lambda: compare_resilient(
            b1, b2, OrisParams(), RuntimeConfig(n_workers=2)
        ),
        rounds=1,
        iterations=1,
    )
    assert res.records


def bench_sequential_reference(benchmark):
    b1 = _cached_bank("EST1", QUICK_SCALE)
    b2 = _cached_bank("EST2", QUICK_SCALE)
    res = benchmark.pedantic(
        lambda: OrisEngine(OrisParams()).compare(b1, b2), rounds=1, iterations=1
    )
    assert res.records


def main() -> None:
    text, rows = make_table(FULL_SCALE)
    print_and_return(text)
    check_shape(rows)
    print_and_return("shape check: all worker counts exact: OK\n")


if __name__ == "__main__":
    main()
