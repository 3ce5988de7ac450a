"""Property tests for the observability layer (repro.obs).

The load-bearing property: per-worker registries merged in *any* order
and under *any* partition of the underlying events equal the registry
that saw every event serially.  The parallel and resilient runtimes rely
on this when they ship per-task metrics through the scheduler's result
path and merge them in completion order, which varies run to run.

``"last"``-mode gauges are the documented exception (merge order decides
which value wins) and are excluded from the order-invariance property.
"""

from __future__ import annotations

import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import (
    Histogram,
    MetricsRegistry,
    check_funnel,
    configure_tracing,
    disable_tracing,
    format_funnel,
    maybe_profile,
    merged_report,
    profile_files,
    profile_into,
    read_trace,
    span,
)

# --------------------------------------------------------------------- #
# Event strategies
# --------------------------------------------------------------------- #

_NAMES = st.sampled_from(["a", "b.c", "step2.x", "q"])
# Integers keep float arithmetic exact, so serial == merged is equality,
# not approximation.
_INT = st.integers(-(10**6), 10**6)
_POS = st.integers(1, 10**9)

_EVENT = st.one_of(
    st.tuples(st.just("inc"), _NAMES, st.integers(0, 10**6)),
    st.tuples(st.just("gauge_max"), _NAMES, _INT),
    st.tuples(st.just("gauge_min"), _NAMES, _INT),
    st.tuples(st.just("gauge_sum"), _NAMES, st.integers(0, 10**6)),
    st.tuples(st.just("observe"), _NAMES, _INT),
)


def _apply(registry: MetricsRegistry, event) -> None:
    kind, name, value = event
    if kind == "inc":
        registry.inc(f"c.{name}", value)
    elif kind == "observe":
        registry.observe(f"h.{name}", value)
    else:
        mode = kind.removeprefix("gauge_")
        registry.set_gauge(f"g.{mode}.{name}", float(value), mode=mode)


def _replay(events) -> MetricsRegistry:
    registry = MetricsRegistry()
    for event in events:
        _apply(registry, event)
    return registry


class TestMergeInvariance:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        events=st.lists(_EVENT, max_size=60),
        assignment=st.lists(st.integers(0, 4), max_size=60),
        merge_order=st.permutations(list(range(5))),
    )
    def test_any_partition_any_order_equals_serial(
        self, events, assignment, merge_order
    ):
        serial = _replay(events)
        # Partition the event stream over five "workers" (hypothesis picks
        # the assignment), then merge the workers in an arbitrary order.
        parts = [MetricsRegistry() for _ in range(5)]
        for i, event in enumerate(events):
            worker = assignment[i] if i < len(assignment) else 0
            _apply(parts[worker], event)
        merged = MetricsRegistry()
        for k in merge_order:
            merged.merge(parts[k])
        assert merged == serial
        assert merged.as_dict() == serial.as_dict()

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(events=st.lists(_EVENT, max_size=40))
    def test_roundtrip_and_pickle(self, events):
        serial = _replay(events)
        assert MetricsRegistry.from_dict(serial.as_dict()) == serial
        assert MetricsRegistry.from_dict(json.loads(serial.to_json())) == serial
        assert pickle.loads(pickle.dumps(serial)) == serial

    def test_last_gauge_is_merge_order_dependent(self):
        a = MetricsRegistry()
        a.set_gauge("g", 1.0)
        b = MetricsRegistry()
        b.set_gauge("g", 2.0)
        ab = MetricsRegistry().merge(a).merge(b)
        ba = MetricsRegistry().merge(b).merge(a)
        assert ab.value("g") == 2.0
        assert ba.value("g") == 1.0

    def test_merge_none_is_noop(self):
        r = MetricsRegistry()
        r.inc("c", 3)
        before = r.as_dict()
        assert r.merge(None) is r
        assert r.as_dict() == before


class TestHistogramInvariants:
    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(values=st.lists(st.one_of(_INT, _POS), max_size=80))
    def test_bucket_accounting(self, values):
        h = Histogram()
        for v in values:
            h.record(v)
        assert h.count == len(values)
        assert sum(h.counts.values()) + h.n_nonpositive == h.count
        positives = [v for v in values if v > 0]
        if positives:
            assert h.vmin == min(positives)
            assert h.vmax == max(positives)
            for key, n in h.counts.items():
                lo, hi = Histogram.bucket_bounds(key)
                assert n == sum(1 for v in positives if lo <= v < hi)
            assert h.mean == pytest.approx(sum(positives) / len(positives))
        else:
            assert h.vmin is None and h.vmax is None and h.mean is None

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(
        values=st.lists(st.one_of(_INT, _POS), max_size=80),
        split=st.integers(0, 80),
    )
    def test_merge_equals_serial(self, values, split):
        split = min(split, len(values))
        serial = Histogram()
        for v in values:
            serial.record(v)
        left, right = Histogram(), Histogram()
        for v in values[:split]:
            left.record(v)
        # Bulk path on one side so scalar and vectorised recording are
        # exercised against each other.
        right.record_array(values[split:])
        left.merge(right)
        assert left == serial

    def test_bucket_bounds_contain_value(self):
        for v in (0.001, 0.5, 1, 1.5, 2, 3, 1024, 10**9):
            lo, hi = Histogram.bucket_bounds(Histogram.bucket_of(v))
            assert lo <= v < hi


class TestFunnelChecks:
    def test_empty_registry_has_no_violations(self):
        assert check_funnel(MetricsRegistry()) == []

    def test_violation_detected(self):
        r = MetricsRegistry()
        r.inc("step2.hit_pairs", 10)
        r.inc("step2.extensions_started", 11)  # more extensions than hits
        violations = check_funnel(r)
        assert violations, "inconsistent funnel not flagged"

    def test_step3_cannot_extend_more_than_step2_kept(self):
        # The serve registry once merged step 3 but not step 2: twelve
        # extensions out of zero kept HSPs must not pass.
        r = MetricsRegistry()
        r.inc("step3.extensions", 12)
        r.inc("step3.alignments", 6)
        r.inc("step4.records", 6)
        assert check_funnel(r) == [
            "step3 extensions (12) exceed step2 hsps_kept (0)"
        ]

    def test_skipped_hits_balance_a_baseline_funnel(self):
        # A baseline drops some hits on their diagonal before extending.
        r = MetricsRegistry()
        r.inc("step2.hit_pairs", 10)
        r.inc("step2.hits_skipped", 4)
        r.inc("step2.extensions_started", 6)
        r.inc("step2.dropped_below_s1", 2)
        r.inc("step2.hsps_kept", 4)
        assert check_funnel(r) == []
        r.inc("step2.hits_skipped")
        assert check_funnel(r) != []

    def test_format_funnel_mentions_aborts(self):
        r = MetricsRegistry()
        r.inc("step2.extensions_started", 5)
        r.inc("step2.cutoff_aborts_left", 3)
        r.inc("step2.cutoff_aborts_right", 1)
        r.inc("step2.hsps_kept", 1)
        text = format_funnel(r)
        assert "cutoff aborts" in text
        assert "left=3 right=1" in text


# --------------------------------------------------------------------- #
# Tracing
# --------------------------------------------------------------------- #


class TestTracing:
    @pytest.fixture(autouse=True)
    def _reset(self):
        yield
        disable_tracing()

    def test_disabled_span_is_noop(self, tmp_path):
        disable_tracing()
        with span("quiet", foo=1) as s:
            s.set(bar=2)
        assert list(tmp_path.iterdir()) == []

    def test_nested_spans_record_parent_and_depth(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        configure_tracing(trace)
        with span("outer", stage=1):
            with span("inner") as s:
                s.set(n=7)
        disable_tracing()
        events = read_trace(trace)
        assert [e["name"] for e in events] == ["inner", "outer"]
        inner, outer = events
        assert inner["parent"] == outer["span"]
        assert inner["depth"] == 1 and outer["depth"] == 0
        assert outer["parent"] is None
        assert inner["attrs"]["n"] == 7
        assert outer["attrs"]["stage"] == 1
        for e in events:
            assert e["dur"] >= 0.0
            assert e["pid"] > 0

    def test_every_line_is_valid_json(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        configure_tracing(trace)
        for i in range(20):
            with span("work", i=i):
                pass
        disable_tracing()
        with open(trace, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 20
        for line in lines:
            json.loads(line)

    def test_exception_still_emits_span(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        configure_tracing(trace)
        with pytest.raises(RuntimeError):
            with span("doomed"):
                raise RuntimeError("boom")
        disable_tracing()
        assert [e["name"] for e in read_trace(trace)] == ["doomed"]


# --------------------------------------------------------------------- #
# Profiling
# --------------------------------------------------------------------- #


def _busy() -> int:
    return sum(i * i for i in range(20_000))


class TestProfiling:
    def test_profile_into_dumps_pstats(self, tmp_path):
        with profile_into(tmp_path, "unit"):
            _busy()
        files = profile_files(tmp_path)
        assert len(files) == 1
        assert "unit" in files[0]

    def test_merged_report(self, tmp_path):
        for label in ("one", "two"):
            with profile_into(tmp_path, label):
                _busy()
        report = merged_report(tmp_path, top=10)
        assert report is not None
        assert "_busy" in report
        assert "2 dump(s)" in report

    def test_merged_report_empty_dir(self, tmp_path):
        assert merged_report(tmp_path) is None

    def test_maybe_profile_none_is_noop(self, tmp_path):
        with maybe_profile("none", tmp_path, "x"):
            pass
        with maybe_profile(None, tmp_path, "x"):
            pass
        assert profile_files(tmp_path) == []

    def test_maybe_profile_unknown_mode(self, tmp_path):
        with pytest.raises(ValueError):
            with maybe_profile("perf", tmp_path, "x"):
                pass
