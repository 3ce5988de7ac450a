"""Tests of the benchmark itself: ``python -m pytest bench -q``."""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

import pytest

from harness import ROOT, SRC

sys.path.insert(0, str(SRC))

import compare  # noqa: E402
import spans  # noqa: E402
import summary  # noqa: E402


def test_quartiles_match_statistics():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    q1, med, q3 = summary.quartiles(values)
    assert [q1, med, q3] == statistics.quantiles(values, n=4)
    assert med == statistics.median(values)
    assert summary.quartiles([7.0]) == (7.0, 7.0, 7.0)
    assert summary.relative_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(
        (4.5 - 1.5) / 3.0
    )


def test_tail_is_highest_percentile_with_ten_beyond():
    hundred = [float(i) for i in range(1, 101)]
    p, value = summary.tail(hundred)
    assert p == 90
    assert sum(v > value for v in hundred) == 10
    assert summary.tail([float(i) for i in range(1, 1001)])[0] == 99
    p, value = summary.tail([float(i) for i in range(1, 21)])
    assert p == 50 and value == 10.5
    assert summary.tail([float(i) for i in range(1, 16)]) is None


def test_self_times_subtract_covered_child_time():
    spans_ = [
        ("compare", 0.0, 10.0, None),
        ("a", 1.0, 4.0, 0),
        ("b", 3.0, 6.0, 0),  # overlaps a: the union 1..6 counts once
        ("leaf", 2.0, 3.0, 1),
        ("a", 8.0, 9.0, 0),
        ("b", 9.5, 12.0, 0),  # clipped to the parent's end
    ]
    got = summary.self_times(spans_)
    assert got["compare"] == pytest.approx(10.0 - 5.0 - 1.0 - 0.5)
    assert got["a"] == pytest.approx((3.0 - 1.0) + 1.0)
    assert got["b"] == pytest.approx(3.0 + 2.5)
    assert got["leaf"] == pytest.approx(1.0)


def test_tracing_wrappers_do_not_change_output():
    from repro.core import engine as engine_module
    from repro.core.engine import OrisEngine
    from repro.data import load_bank
    from repro.io.m8 import format_m8

    bank1 = load_bank("EST1", scale=0.005)
    bank2 = load_bank("EST2", scale=0.005)
    plain = format_m8(OrisEngine().compare(bank1, bank2).records)
    originals = {
        attr: getattr(engine_module, attr)
        for module, attr, _layer in spans.CALL_SITES
        if module == "repro.core.engine"
    }
    recorder = spans.SpanRecorder()
    with spans.traced(recorder), recorder.span("compare"):
        traced = format_m8(OrisEngine().compare(bank1, bank2).records)
    assert plain and traced == plain
    assert all(getattr(engine_module, a) is f for a, f in originals.items())
    layers = {s[0] for s in recorder.spans}
    assert {"index.build", "pairs.enumerate", "vector_kernel.extend",
            "gapped.kernel", "records.display"} <= layers
    selfs = summary.self_times(recorder.spans)
    total = recorder.spans[0][2] - recorder.spans[0][1]
    assert sum(selfs.values()) == pytest.approx(total)


def test_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]
    faster = [v * 0.8 for v in parent]
    slower = [v * 1.2 for v in parent]
    assert compare.verdict(parent, faster, "lower", 0.1) == ("improved", 1.0)
    assert compare.verdict(parent, slower, "lower", 0.1)[0] == "regressed"
    assert compare.verdict(parent, slower, "higher", 0.1)[0] == "improved"
    assert compare.verdict(parent, list(parent), "lower", 0.1)[0] == "unchanged"
    noisy = [50.0, 150.0, 80.0, 120.0, 100.0, 60.0, 140.0, 90.0, 110.0, 100.0]
    slightly_slower = [v * 1.05 for v in noisy]
    assert compare.verdict(noisy, slightly_slower, "lower", 0.1)[0] == "unresolved"


def test_quick_run_of_every_workload():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--seconds", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert last["correct"] and last["failed"] == 0 and last["attempted"] > 0
    assert len(last["metrics"]) == 5 * 4
