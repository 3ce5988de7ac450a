"""The ORIS benchmark: one command, five workloads, checked outputs.

Usage (from the repository root)::

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S]
                         [--trace 0|1] [--out results.jsonl]

``--workload`` runs one workload; without it every workload runs in
turn.  ``--trace 0`` (default) prints the end-to-end metrics declared in
``BENCHMARK.json``; ``--trace 1`` is a separate run that prints the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
are a readable report.  ``--out`` appends the full result (host record,
sample counts, failures) as one JSON line per workload.  The exit code
is 0 only when every correctness check passed.

The benchmark reaches the program only through public entry points
(``repro.io.validate.load_bank``, ``OrisEngine.compare``,
``compare_resilient``, the ``serve`` command and ``OrisClient``); the
program sees nothing but the FASTA files generated from ``--seed``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter

import summary
from harness import (
    BENCH,
    PAIR_SEED_STRIDE,
    ROOT,
    SRC,
    Checks,
    shm_segments,
    spawn,
    stop,
)

DEFAULT_SEED = 20080407
CHILD_TIMEOUT_S = 140.0


@dataclass(frozen=True)
class BatchWorkload:
    """Bank-vs-bank comparisons of generated pairs in a measured child."""

    banks: tuple[str, str]
    mode: str  # "engine" (OrisEngine.compare) | "resilient" (2 workers)
    n_pairs: int  # distinct input pairs; comparisons cycle through them
    reference: str | None  # cross-check of pair 0: "scalar" | "serial"
    expect_empty: bool  # the paper's 0-alignment pair


@dataclass(frozen=True)
class ServeWorkload:
    """A ``serve`` daemon on EST7 under a closed-loop client load."""

    mutate: bool


# Why each workload exists is recorded in BENCHMARK.json and
# bench/README.md.  EST pairs vary a lot in homology from seed to seed,
# so those workloads compare many distinct pairs per run and the run
# metric averages over them; H10 x BCT work is nearly seed-independent.
WORKLOADS = {
    "est1_est2": BatchWorkload(("EST1", "EST2"), "engine", 24, "scalar", False),
    "h10_bct": BatchWorkload(("H10", "BCT"), "engine", 4, None, True),
    "est1_est2_w2": BatchWorkload(("EST1", "EST2"), "resilient", 24, "serial", False),
    "serve_est7": ServeWorkload(mutate=False),
    "serve_est7_mutate": ServeWorkload(mutate=True),
}


# ---------------------------------------------------------------------- #
# Batch workloads
# ---------------------------------------------------------------------- #


def run_batch(name, wl, seed, seconds, trace, work, checks, expected):
    """One batch workload; returns ``(end_to_end, info)``."""
    from repro.data import load_bank

    pairs = []
    for k in range(wl.n_pairs):
        paths = []
        for bank_name in wl.banks:
            path = work / f"{bank_name}-{k}.fa"
            load_bank(bank_name, seed=seed + PAIR_SEED_STRIDE * k).to_fasta(path)
            paths.append(str(path))
        pairs.append(paths)
    spec_path = work / "spec.json"
    out_path = work / "child.json"
    spec_path.write_text(
        json.dumps(
            {
                "mode": wl.mode,
                "pairs": pairs,
                "seconds": seconds,
                "min_reps": 2,
                "trace": trace,
                "work_dir": str(work),
                "reference": wl.reference,
                "expect_empty": wl.expect_empty,
            }
        )
    )
    shm_before = shm_segments()
    proc = spawn(
        [sys.executable, str(BENCH / "batch.py"), str(spec_path), str(out_path)], work
    )
    code, strays = stop(proc, CHILD_TIMEOUT_S, sig=None)
    checks.check(code == 0, f"measured child exited {code}")
    checks.check(not strays, "measured child left processes behind")
    checks.check(not shm_segments() - shm_before, "shared-memory segments leaked")
    if code != 0:
        return {}, {}
    res = json.loads(out_path.read_text())
    checks.attempted += res["attempted"]
    checks.failures.extend(res["failures"])
    samples = res["samples"]
    checks.check(bool(samples), "no comparison completed")
    if not samples:
        return {}, {}

    pin = expected.get(name)
    if seed == expected["seed"] and pin:
        first = samples[0]["counts"]
        for key, got in (
            ("records", first["step4.records"]),
            ("hit_pairs", first["step2.hit_pairs"]),
            ("m8_sha256", res["pair0_sha256"]),
        ):
            checks.check(got == pin[key], f"pair 0: {key} {got}, pinned {pin[key]}")

    times = [s["seconds"] for s in samples]
    end_to_end = {
        "setup_s": statistics.median(res["ingest_s"]),
        "latency_p50_ms": statistics.median(times) * 1000.0,
        "ops_per_s": len(times) / sum(times),
        "peak_rss_mb": res["peak_rss_mb"],
    }
    info = {
        "n_comparisons": len(times),
        "n_pairs": wl.n_pairs,
        "compare_s_quartiles": summary.quartiles(times),
        "pair0_sha256": res["pair0_sha256"],
    }
    if trace:
        info["per_layer"] = batch_layers(wl, res)
    return end_to_end, info


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def batch_layers(wl, res) -> dict[str, float]:
    """Per-layer metrics: span self times and program counters, per comparison."""
    traced = res["traced_samples"]
    counts = [s["counts"] for s in traced]
    selfs = res["layer_self_s"]

    def c(name):
        return mean(x.get(name, 0) for x in counts)

    def s(layer):
        return mean(x.get(layer, 0.0) for x in selfs)

    untraced: dict[int, list[float]] = {}
    for sample in res["samples"]:
        untraced.setdefault(sample["pair"], []).append(sample["seconds"])
    overhead = [
        t["seconds"] / statistics.median(untraced[t["pair"]])
        for t in traced
        if t["pair"] in untraced
    ]
    hit_pairs = c("step2.hit_pairs")
    extensions = c("step3.extensions")
    compare_s = mean(t["seconds"] for t in traced)
    layers = {
        "io.ingest_s": statistics.median(res["ingest_s"]),
        "filters.mask_s": s("filters.mask"),
        "index.build_s": s("index.build"),
        "index.common_codes_s": s("index.common_codes"),
        "index.windows_indexed": c("step1.windows_indexed.bank1")
        + c("step1.windows_indexed.bank2"),
        "index.distinct_codes": c("step1.distinct_codes.bank1")
        + c("step1.distinct_codes.bank2"),
        "packed.pack_s": s("packed.pack"),
        "pairs.enumerate_s": s("pairs.enumerate"),
        "pairs.hit_pairs": hit_pairs,
        "vector_kernel.extend_s": s("vector_kernel.extend"),
        "vector_kernel.lane_steps": c("lane_steps"),
        "vector_kernel.cutoff_aborts": c("step2.cutoff_aborts_left")
        + c("step2.cutoff_aborts_right"),
        "vector_kernel.hsp_yield": ratio(c("step2.hsps_kept"), hit_pairs),
        "gapped.kernel_s": s("gapped.kernel"),
        "gapped.lane_rows": c("lane_rows"),
        "gapped.extensions": extensions,
        "gapped_stage.self_s": s("gapped_stage"),
        "containment.skipped": c("step3.skipped_contained"),
        "gapped_stage.useful_ratio": ratio(c("step4.records"), extensions),
        "records.display_s": s("records.display"),
        "records.evalue_filtered": c("step4.evalue_filtered"),
        "compare.self_s": s("compare"),
        "trace.coverage_ratio": 1.0 - ratio(s("compare"), compare_s),
        "trace.overhead_ratio": statistics.median(overhead) if overhead else 0.0,
    }
    if wl.mode == "resilient":
        layers |= {
            "runtime.step2_wall_s": c("time.step2_ungapped_seconds"),
            "runtime.parent_serial_s": c("time.step1_index_seconds")
            + c("time.step3_gapped_seconds")
            + c("time.step4_display_seconds"),
            "runtime.queue_wait_s_mean": c("scheduler.queue_wait_seconds"),
            "runtime.task_s_mean": c("scheduler.task_seconds"),
            "runtime.retries": c("scheduler.retries"),
            "runtime.journal_bytes": c("journal_bytes"),
            "shm.bytes_published": c("shm.bytes_published"),
        }
    return layers


# ---------------------------------------------------------------------- #
# Driver
# ---------------------------------------------------------------------- #


def host_record() -> dict:
    """What a result needs to be normalised against another host's."""
    import numpy

    def calibrate() -> float:  # fixed single-threaded interpreter loop
        t0 = perf_counter()
        acc = 0
        for i in range(2_000_000):
            acc += i * i
        return perf_counter() - t0

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "calibration_s": min(calibrate() for _ in range(3)),
    }


def git_commit() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def run_workload(name, seed, seconds, trace, host, spec) -> dict:
    import serve_load

    wl = WORKLOADS[name]
    expected = json.loads((BENCH / "expected.json").read_text())
    checks = Checks()
    work = BENCH / ".work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if isinstance(wl, ServeWorkload):
            end_to_end, info = serve_load.run(
                name, wl.mutate, seed, seconds, trace, work, checks, expected
            )
        else:
            end_to_end, info = run_batch(
                name, wl, seed, seconds, trace, work, checks, expected
            )
    except Exception as exc:  # a crashed workload is a failed operation
        traceback.print_exc()
        checks.check(False, f"{type(exc).__name__}: {exc}")
        end_to_end, info = {}, {}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    values = end_to_end
    if trace:
        # A layer this workload does not run did no work: it reads 0.
        layers = info.pop("per_layer", {})
        values = dict.fromkeys(units, 0.0) | layers if layers else {}
    missing = sorted(set(units) - set(values))
    checks.check(not missing, f"metrics missing: {missing}")
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host": host,
        "info": info,
        "correct": not checks.failures,
        "attempted": max(checks.attempted, 1),
        "failed": len(checks.failures),
        "failures": checks.failures,
        "metrics": {
            k: {"value": values[k], "unit": u} for k, u in units.items() if k in values
        },
    }


def report(result: dict) -> None:
    print(f"== {result['workload']} seed={result['seed']} trace={int(result['trace'])}")
    for key, value in result["info"].items():
        print(f"   {key}: {value}")
    for name, m in result["metrics"].items():
        print(f"   {name:30s} {m['value']:14.6g} {m['unit']}")
    for failure in result["failures"]:
        print(f"   FAILED: {failure}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run the ORIS benchmark.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"run.py: no program sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = [args.workload] if args.workload else list(WORKLOADS)
    host = host_record()
    print(f"host: {json.dumps(host)}")
    trace = bool(args.trace)
    results = []
    for name in names:
        results.append(run_workload(name, args.seed, seconds, trace, host, spec))
        report(results[-1])
    if args.out:
        with open(args.out, "a", encoding="utf-8") as fh:
            for result in results:
                fh.write(json.dumps(result) + "\n")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {
            f"{r['workload']}.{k}": m for r in results for k, m in r["metrics"].items()
        }
    line = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
