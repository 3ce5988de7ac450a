"""Measured child process of the batch workloads.

Usage: ``python bench/batch.py SPEC.json RESULT.json`` with the program's
``src`` on ``PYTHONPATH``.  ``run.py`` writes the spec and reads the
result; running in a child keeps the benchmark's own input generation
out of the program's peak RSS and gives every workload fresh per-process
memos.

The child compares one pair untimed as a warm-up, then compares pairs
in order, cycling, until ``seconds`` have passed and at least
``min_reps`` comparisons ran.  Every comparison ingests its pair from
FASTA first, timed apart as set-up: set-up samples then spread over the
whole run, and each comparison gets fresh banks, as a command-line run
does (the 2-bit packing memo is keyed on the array object).  With
``trace`` set, each pair is compared twice in a row, untraced then
traced, so the overhead ratio compares like with like.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
from time import perf_counter

import spans
import summary
from harness import Checks
from repro.core.engine import OrisEngine
from repro.core.params import OrisParams
from repro.io.bank import Bank
from repro.io.m8 import format_m8
from repro.io.validate import load_bank
from repro.obs.metrics import check_funnel
from repro.runtime.scheduler import RuntimeConfig, compare_resilient

#: Registry counters copied into every sample.
COUNTERS = (
    "step1.windows_indexed.bank1",
    "step1.windows_indexed.bank2",
    "step1.distinct_codes.bank1",
    "step1.distinct_codes.bank2",
    "step2.hit_pairs",
    "step2.cutoff_aborts_left",
    "step2.cutoff_aborts_right",
    "step2.hsps_kept",
    "step3.extensions",
    "step3.skipped_contained",
    "step3.alignments",
    "step4.records",
    "step4.evalue_filtered",
    "scheduler.retries",
    "shm.bytes_published",
)
GAUGES = (
    "time.step1_index_seconds",
    "time.step2_ungapped_seconds",
    "time.step3_gapped_seconds",
    "time.step4_display_seconds",
)
HISTOGRAMS = ("scheduler.queue_wait_seconds", "scheduler.task_seconds")


def digest(records) -> str:
    return hashlib.sha256(format_m8(records).encode()).hexdigest()


class Comparer:
    """One comparison through the workload's public entry point."""

    def __init__(self, mode: str, work_dir: str):
        self.mode = mode
        self.work_dir = work_dir
        self.engine = OrisEngine()
        self.calls = 0
        self.checkpoint: str | None = None  # journal directory of the last call

    def __call__(self, bank1: Bank, bank2: Bank):
        if self.mode == "engine":
            return self.engine.compare(bank1, bank2)
        self.calls += 1
        self.checkpoint = os.path.join(self.work_dir, f"checkpoint-{self.calls}")
        return compare_resilient(
            bank1,
            bank2,
            OrisParams(),
            RuntimeConfig(n_workers=2, checkpoint_dir=self.checkpoint),
        )

    def journal_bytes(self) -> int:
        if self.checkpoint is None:
            return 0
        return sum(
            os.path.getsize(os.path.join(self.checkpoint, f))
            for f in os.listdir(self.checkpoint)
        )


def sample_of(result, seconds: float, pair: int, comparer: Comparer) -> dict:
    m = result.metrics
    hist = {}
    for name in HISTOGRAMS:
        if name in m:
            h = m.histogram(name)
            hist[name] = h.total / h.count if h.count else 0.0
    return {
        "pair": pair,
        "seconds": seconds,
        "sha256": digest(result.records),
        "counts": {
            **{name: int(m.value(name, 0)) for name in COUNTERS},
            **{name: float(m.value(name, 0.0) or 0.0) for name in GAUGES},
            **hist,
            "lane_steps": result.counters.ungapped_steps,
            "lane_rows": result.counters.gapped_steps,
            "journal_bytes": comparer.journal_bytes(),
        },
    }


def ingest(paths) -> tuple[list[Bank], float]:
    t0 = perf_counter()
    banks = [load_bank(path)[0] for path in paths]
    return banks, perf_counter() - t0


def main(spec_path: str, out_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    pairs = spec["pairs"]
    checks = Checks()
    compare = Comparer(spec["mode"], spec["work_dir"])
    compare(*ingest(pairs[0])[0])  # warm-up

    ingest_s: list[float] = []
    samples: list[dict] = []
    traced_samples: list[dict] = []
    layer_self: list[dict[str, float]] = []
    shas: dict[int, str] = {}
    errors: list[str] = []
    runs = (False, True) if spec["trace"] else (False,)
    deadline = perf_counter() + spec["seconds"]
    i = 0
    while i < spec["min_reps"] or perf_counter() < deadline:
        k = i % len(pairs)
        for traced in runs:
            (bank1, bank2), seconds = ingest(pairs[k])
            ingest_s.append(seconds)
            recorder = spans.SpanRecorder()
            try:
                t0 = perf_counter()
                if traced:
                    with spans.traced(recorder), recorder.span("compare"):
                        result = compare(bank1, bank2)
                else:
                    result = compare(bank1, bank2)
                dt = perf_counter() - t0
            except Exception as exc:  # a raised comparison is a failed operation
                errors.append(f"pair {k}: {type(exc).__name__}: {exc}")
                continue
            sample = sample_of(result, dt, k, compare)
            if traced:
                traced_samples.append(sample)
                layer_self.append(summary.self_times(recorder.spans))
            else:
                samples.append(sample)
            for problem in check_funnel(result.metrics):
                checks.check(False, f"pair {k}: funnel: {problem}")
            checks.check(
                shas.setdefault(k, sample["sha256"]) == sample["sha256"],
                f"pair {k}: output differs between repetitions",
            )
            if spec["expect_empty"]:
                checks.check(not result.records, f"pair {k}: expected no records")
        i += 1
    checks.operations(len(samples) + len(traced_samples), errors)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    reference = spec["reference"]
    if reference and 0 in shas:
        kernel = "scalar" if reference == "scalar" else "vector"
        ref = OrisEngine(OrisParams(kernel=kernel)).compare(*ingest(pairs[0])[0])
        checks.check(
            digest(ref.records) == shas[0],
            f"pair 0: m8 differs from the {reference} reference",
        )

    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "ingest_s": ingest_s,
                "samples": samples,
                "traced_samples": traced_samples,
                "layer_self_s": layer_self,
                "pair0_sha256": shas.get(0),
                "attempted": checks.attempted,
                "failures": checks.failures,
                "peak_rss_mb": peak_rss_mb,
            },
            fh,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
