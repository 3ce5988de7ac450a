"""Scaling of the shared-memory parallel step 2 (paper section 4).

Three questions, answered on a deliberately *skewed* bank pair (a few
low-complexity codes carry most of the X1*X2 pair cost, the regime the
paper's EST banks live in):

1. **Is every parallel run exact?**  Wall-clock numbers for every
   (workers x start-method) cell of ``compare_resilient`` are measured,
   each checked record for record against the serial engine.  Speedups
   are only asserted on hosts with >= 8 cores.

2. **Does the arena actually shrink the fan-out?**  The pickled spawn
   payload must be >= 10x smaller than the concrete payload it replaces.

3. **Does the vector kernel pay?**  Single-core scalar-vs-vector timing
   of the step-2 extension kernel over the same hit-pair chunks.

The pair-cost-balanced planner's modelled win over an equal-code-count
split is recorded in ``BENCH_step2.json``.

    python benchmarks/bench_parallel_scaling.py            # full tier
    python benchmarks/bench_parallel_scaling.py --quick    # CI tier
    pytest benchmarks/bench_parallel_scaling.py --benchmark-only

``main()`` appends one data point to ``BENCH_step2.json`` at the repo
root (schema ``scoris-bench/1``) so the series is trackable across
commits; CI uploads it as an artifact.
"""

from __future__ import annotations

import json
import os
import pickle
import platform
import sys
import time
import warnings
from pathlib import Path

import numpy as np

from _shared import print_and_return
from repro.align.evalue import karlin_params
from repro.align.ungapped import batch_extend
from repro.align.vector_kernel import batch_extend_vector
from repro.core import OrisEngine, OrisParams
from repro.core.pairs import iter_pair_chunks
from repro.core.parallel import (
    build_range_payload,
    plan_ranges,
    publish_range_payload,
)
from repro.data.synthetic import random_dna
from repro.encoding import packed_bank_cached
from repro.eval import render_table
from repro.runtime.scheduler import RuntimeConfig, compare_resilient

BENCH_FILE = Path(__file__).resolve().parent.parent / "BENCH_step2.json"

WORKER_COUNTS = (1, 2, 4, 8)

#: The arena's bar: concrete payload pickle vs shared-memory payload.
MIN_PICKLE_SHRINK = 10.0
#: Single-core kernel bar: the tile-sweep vector kernel must beat the
#: scalar lane kernel by this factor on the skewed pair's step-2 work.
MIN_KERNEL_SPEEDUP = 3.0
#: Measured wall-clock bar at 8 workers -- only meaningful on hosts that
#: actually have >= 8 cores, so the check is gated on ``os.cpu_count()``
#: (this repo's reference container is single-core; there the cells are
#: recorded as informational and the bar reports itself skipped).
MIN_WALL_SPEEDUP_AT_8 = 2.0


def make_skewed_pair(repeats: int, seed: int = 20080117):
    """A bank pair whose pair-cost distribution is heavily skewed.

    The skew mimics EST poly-A tails (the dominant repeat in real mRNA
    libraries): a near-poly-A repeat shared by both banks puts
    ``repeats``^2 pair cost on each of 12 A-rich seed codes, which sort
    to the very *bottom* of the code space.  The cheap bulk is a shared
    homologous segment drawn from the C/G/T sub-alphabet, so every one
    of its codes sorts *above* the heavy cluster.  An equal-code-count
    split would pile the entire heavy cluster into its first chunk,
    while the pair-cost-balanced planner isolates one heavy code per
    chunk.  Filtering is disabled so the skew
    reaches the planner (the paper handles such codes with
    ``max_occurrences``; here they *are* the workload).
    """
    from repro.io.bank import Bank

    rng = np.random.default_rng(seed)
    # Period-12 near-poly-A repeat: with w=11 this yields exactly 12
    # distinct codes (pure-A plus one C at each offset), each occurring
    # ~`repeats` times => uniform per-code cost repeats^2.
    heavy = ("A" * 11 + "C") * repeats
    # Cheap shared segment, one pair per code, total cost ~= one heavy
    # code's cost so the balanced planner keeps full granularity.
    n_cheap = repeats * repeats
    cheap = "".join(rng.choice(list("CGT"), size=n_cheap))
    b1 = Bank.from_strings(
        [("q_heavy", heavy + cheap), ("q_tail", random_dna(rng, 400))]
    )
    b2 = Bank.from_strings(
        [("s_heavy", heavy + cheap), ("s_tail", random_dna(rng, 400))]
    )
    return b1, b2


def skewed_params() -> OrisParams:
    return OrisParams(filter_kind="none")


def measure_pickle_shrink(bank1, bank2, params: OrisParams) -> dict:
    """Concrete vs shared-memory payload pickle sizes."""
    engine = OrisEngine(params)
    i1, i2 = engine._build_indexes(bank1, bank2)
    common = i1.common_codes(i2)
    threshold = engine._resolve_hsp_min_score(bank1, bank2, karlin_params(params.scoring))
    payload = build_range_payload(i1, i2, common, params, threshold)
    arena, shm_payload = publish_range_payload(payload)
    try:
        concrete = len(pickle.dumps(payload))
        shared = len(pickle.dumps(shm_payload))
    finally:
        arena.close()
    return {
        "concrete_bytes": concrete,
        "shm_bytes": shared,
        "shrink": concrete / shared,
    }


def measure_kernel_cell(bank1, bank2, params: OrisParams, repeat: int = 5) -> dict:
    """Single-core scalar-vs-vector timing of the step-2 extension kernel.

    Both kernels run over the *same* pre-enumerated hit-pair chunks (so
    index build and pair enumeration are excluded), and their outputs are
    checked identical lane for lane before any number is reported.
    """
    engine = OrisEngine(params)
    i1, i2 = engine._build_indexes(bank1, bank2)
    common = i1.common_codes(i2)
    w = i1.span
    seq1, seq2 = i1.bank.seq, i2.bank.seq
    codes1 = i1.cutoff_codes
    spaced = i1.mask is not None
    codes2 = i2.cutoff_codes if spaced else None
    ok2 = None if spaced else i2.indexed_mask
    chunks = [
        (c.p1.copy(), c.p2.copy(), c.codes.copy())
        for c in iter_pair_chunks(
            i1, i2, common, params.chunk_pairs, params.max_occurrences
        )
    ]
    n_pairs = sum(c[0].size for c in chunks)

    def run(kernel: str):
        packed1 = packed_bank_cached(seq1) if kernel == "vector" else None
        packed2 = packed_bank_cached(seq2) if kernel == "vector" else None
        outputs = []
        for p1, p2, codes in chunks:
            if kernel == "vector":
                res = batch_extend_vector(
                    seq1, seq2, codes1, p1, p2, codes, w, params.scoring,
                    ordered_cutoff=params.ordered_cutoff, ok2=ok2,
                    codes2=codes2, packed1=packed1, packed2=packed2,
                )
            else:
                res = batch_extend(
                    seq1, seq2, codes1, p1, p2, codes, w, params.scoring,
                    ordered_cutoff=params.ordered_cutoff, ok2=ok2,
                    codes2=codes2,
                )
            outputs.append(res)
        return outputs

    times = {}
    outputs = {}
    for kernel in ("scalar", "vector"):
        run(kernel)  # warm (packs banks, touches caches)
        best = float("inf")
        for _ in range(repeat):
            t0 = time.perf_counter()
            outputs[kernel] = run(kernel)
            best = min(best, time.perf_counter() - t0)
        times[kernel] = best

    identical = True
    for a, b in zip(outputs["scalar"], outputs["vector"]):
        kept = a.kept
        if not (
            np.array_equal(a.kept, b.kept)
            and np.array_equal(a.cut_left, b.cut_left)
            and np.array_equal(a.cut_right, b.cut_right)
            and a.steps == b.steps
            and all(
                np.array_equal(getattr(a, f)[kept], getattr(b, f)[kept])
                for f in ("start1", "end1", "start2", "end2", "score")
            )
        ):
            identical = False
    return {
        "scalar_seconds": times["scalar"],
        "vector_seconds": times["vector"],
        "speedup": times["scalar"] / times["vector"],
        "pairs": n_pairs,
        "identical": identical,
    }


def wall_clock_sweep(bank1, bank2, params, workers, start_methods) -> list[dict]:
    """Measured cells; every one is checked exact against the serial run.

    Each cell records the host's ``os.cpu_count()`` and the *effective*
    worker count (the pool clamps to the number of planned ranges), so a
    point taken on a 1-core CI runner is never mistaken for a genuine
    scaling measurement when the series is compared across machines.
    """
    engine = OrisEngine(params)
    seq = engine.compare(bank1, bank2)
    seq_lines = [r.to_line() for r in seq.records]
    i1, i2 = engine._build_indexes(bank1, bank2)
    common = i1.common_codes(i2)
    cpus = os.cpu_count() or 1
    cells = []
    for method in start_methods:
        for n in workers:
            config = RuntimeConfig(n_workers=n, start_method=method)
            ranges = plan_ranges(
                common, n * config.tasks_per_worker, params
            )
            t0 = time.perf_counter()
            with warnings.catch_warnings():
                # Off-fork start methods warn by design; the sweep asks
                # for them knowingly.
                warnings.simplefilter("ignore", RuntimeWarning)
                par = compare_resilient(bank1, bank2, params, config)
            wall = time.perf_counter() - t0
            exact = [r.to_line() for r in par.records] == seq_lines
            cells.append(
                {
                    "workers": n,
                    "effective_workers": min(n, len(ranges)),
                    "cpu_count": cpus,
                    "start_method": method,
                    "wall_seconds": wall,
                    "records": len(par.records),
                    "exact": exact,
                }
            )
    return cells


def wall_speedups(cells: list[dict]) -> dict[str, float]:
    """Measured speedup over the 1-worker cell (fork column)."""
    walls = {
        c["workers"]: c["wall_seconds"]
        for c in cells
        if c["start_method"] == "fork"
    }
    base = walls.get(1)
    if base is None:
        return {}
    return {str(n): base / t for n, t in sorted(walls.items())}


def run_experiment(quick: bool) -> dict:
    repeats = 45 if quick else 150
    bank1, bank2 = make_skewed_pair(repeats)
    params = skewed_params()
    shrink = measure_pickle_shrink(bank1, bank2, params)
    kernel = measure_kernel_cell(bank1, bank2, params)
    cells = wall_clock_sweep(
        bank1,
        bank2,
        params,
        workers=(1, 2) if quick else WORKER_COUNTS,
        start_methods=("fork",) if quick else ("fork", "spawn"),
    )
    return {
        "quick": quick,
        "repeats": repeats,
        "cpu_count": os.cpu_count() or 1,
        "pickle": shrink,
        "kernel": kernel,
        "cells": cells,
        "wall_speedup": wall_speedups(cells),
    }


def render(point: dict) -> str:
    cell_rows = [
        (f"{c['workers']}/{c.get('effective_workers', c['workers'])}",
         c["start_method"], f"{c['wall_seconds']:.3f}",
         c["records"], "exact" if c["exact"] else "MISMATCH")
        for c in point["cells"]
    ]
    cell_table = render_table(
        ["workers (asked/eff)", "start", "time (s)", "records", "vs serial"],
        cell_rows,
        title="Measured cells (single-core container: wall times informational)",
    )
    pk = point["pickle"]
    kn = point["kernel"]
    wall = ", ".join(
        f"{n}w {s:.2f}x" for n, s in point.get("wall_speedup", {}).items()
    )
    cores = point.get("cpu_count", 1)
    wall_note = (
        f"measured wall speedup ({wall}) on a {cores}-core host"
        + ("" if cores >= 8 else " -- informational, bar gated on >= 8 cores")
    )
    return (
        f"{cell_table}\n"
        f"payload pickle: concrete {pk['concrete_bytes']:,} B, "
        f"shm {pk['shm_bytes']:,} B, shrink {pk['shrink']:.0f}x "
        f"(bar {MIN_PICKLE_SHRINK:.0f}x)\n"
        f"step-2 kernel: scalar {kn['scalar_seconds']*1e3:.1f} ms, "
        f"vector {kn['vector_seconds']*1e3:.1f} ms over {kn['pairs']:,} "
        f"pairs => {kn['speedup']:.2f}x "
        f"({'identical output' if kn['identical'] else 'OUTPUT MISMATCH'}; "
        f"bar {MIN_KERNEL_SPEEDUP:.0f}x)\n"
        f"{wall_note}\n"
    )


def check_shape(point: dict) -> list[str]:
    problems = []
    if point["pickle"]["shrink"] < MIN_PICKLE_SHRINK:
        problems.append(
            f"pickle shrink {point['pickle']['shrink']:.1f}x below bar "
            f"{MIN_PICKLE_SHRINK:.0f}x"
        )
    bad = [c for c in point["cells"] if not c["exact"]]
    if bad:
        problems.append(f"{len(bad)} cells diverged from the serial engine")
    kn = point["kernel"]
    if not kn["identical"]:
        problems.append("vector kernel output diverged from scalar kernel")
    if kn["speedup"] < MIN_KERNEL_SPEEDUP:
        problems.append(
            f"vector kernel speedup {kn['speedup']:.2f}x below bar "
            f"{MIN_KERNEL_SPEEDUP:.0f}x"
        )
    # The wall-clock bar needs real cores; on smaller hosts the cells
    # stay informational rather than asserting a physical impossibility.
    if point.get("cpu_count", 1) >= 8:
        at8 = point.get("wall_speedup", {}).get("8")
        if at8 is not None and at8 < MIN_WALL_SPEEDUP_AT_8:
            problems.append(
                f"measured speedup at 8 workers {at8:.2f}x below bar "
                f"{MIN_WALL_SPEEDUP_AT_8:.0f}x"
            )
    return problems


def bench_scaling_quick(benchmark):
    point = benchmark.pedantic(lambda: run_experiment(quick=True), rounds=1, iterations=1)
    assert check_shape(point) == []


def append_bench_point(point: dict) -> None:
    """Append one measurement to BENCH_step2.json (schema scoris-bench/1)."""
    if BENCH_FILE.is_file():
        doc = json.loads(BENCH_FILE.read_text(encoding="utf-8"))
        if doc.get("schema") != "scoris-bench/1":
            raise SystemExit(f"{BENCH_FILE} has unknown schema {doc.get('schema')!r}")
    else:
        doc = {"schema": "scoris-bench/1", "points": []}
    doc["points"].append(
        {
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "python": platform.python_version(),
            "bench": "parallel_scaling",
            **point,
        }
    )
    BENCH_FILE.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    quick = "--quick" in argv
    point = run_experiment(quick)
    print_and_return(render(point))
    append_bench_point(point)
    print(f"appended data point to {BENCH_FILE}")
    problems = check_shape(point)
    for p in problems:
        print(f"FAIL: {p}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
