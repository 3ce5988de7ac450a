"""The run ledger: one MetricsRegistry per run, read through views.

``ComparisonResult.counters`` and ``.timings`` are read-only views of
``ComparisonResult.metrics`` (repro.core.engine).  These tests pin the
views of all four engines on one fixed pair, check that the three
baselines keep a consistent funnel and real step times, and that the
views cannot be written to.
"""

from dataclasses import FrozenInstanceError, asdict, fields

import pytest

from repro.baselines import BlastnEngine, BlastnParams, BlatEngine
from repro.baselines.blastz import BlastzEngine
from repro.core import ComparisonResult, OrisEngine, WorkCounters
from repro.obs import MetricsRegistry, check_funnel, funnel_dict

ENGINES = {
    "oris": OrisEngine,
    "blastn": BlastnEngine,
    "blat": BlatEngine,
    "blastz": BlastzEngine,
}

#: Every non-zero WorkCounters field on the session ``est_pair`` with
#: default parameters.  These are the values the counters reported when
#: each engine still kept its own ledger beside the registry.
PINNED = {
    "oris": dict(
        n_pairs=42117, n_cut=41238, n_hsps=497, ungapped_steps=348093,
        gapped_steps=138299, n_gapped_extensions=497, n_skipped_contained=2,
        n_alignments=293, n_records=207, n_waves=1,
    ),
    "blastn": dict(
        n_pairs=42117, n_cut=41238, n_hsps=497, ungapped_steps=60602,
        gapped_steps=138299, n_gapped_extensions=497, n_skipped_contained=2,
        n_alignments=293, n_records=207, n_waves=1,
    ),
    "blat": dict(
        n_pairs=3855, n_cut=3359, n_hsps=430, ungapped_steps=55932,
        gapped_steps=134235, n_gapped_extensions=430, n_skipped_contained=2,
        n_alignments=231, n_records=188, n_waves=1,
    ),
    "blastz": dict(
        n_pairs=37558, n_cut=37153, n_hsps=385, ungapped_steps=51765,
        gapped_steps=73958, n_gapped_extensions=229, n_skipped_contained=158,
        n_alignments=173, n_records=173, n_waves=1,
    ),
}


@pytest.fixture(scope="module")
def results(est_pair):
    return {name: engine().compare(*est_pair) for name, engine in ENGINES.items()}


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_counters_pinned(results, name):
    zeros = {f.name: 0 for f in fields(WorkCounters)}
    assert asdict(results[name].counters) == zeros | PINNED[name]
    assert results[name].counters.n_records == len(results[name].records)


@pytest.mark.parametrize("name", sorted(ENGINES))
def test_funnel_is_consistent(results, name):
    metrics = results[name].metrics
    assert check_funnel(metrics) == []
    assert funnel_dict(metrics)["step2.hit_pairs"] > 0


def test_two_hit_drops_balance_the_funnel(est_pair):
    # Hits the two-hit filter drops never start an extension.
    metrics = BlastnEngine(BlastnParams(two_hit=True)).compare(*est_pair).metrics
    assert check_funnel(metrics) == []
    f = funnel_dict(metrics)
    assert f["step2.hits_skipped"] > f["step2.extensions_started"] > 0


@pytest.mark.parametrize("name", ["blastn", "blat", "blastz"])
def test_baseline_step_times_are_recorded(results, name):
    t = results[name].timings
    assert t.index > 0 and t.ungapped > 0 and t.gapped > 0 and t.display > 0
    assert t.total == pytest.approx(t.index + t.ungapped + t.gapped + t.display)


def test_views_are_read_only(results):
    result = results["oris"]
    with pytest.raises(FrozenInstanceError):
        result.counters.n_pairs = 0
    with pytest.raises(FrozenInstanceError):
        result.timings.gapped = 0.0
    with pytest.raises(AttributeError):
        result.counters = None


def test_views_read_the_registry():
    metrics = MetricsRegistry()
    metrics.inc("step2.cutoff_aborts_left", 2)
    metrics.inc("step2.hits_skipped", 3)
    metrics.set_gauge("time.step3_gapped_seconds", 0.5, mode="sum")
    result = ComparisonResult(records=[], alignments=[], metrics=metrics)
    assert result.counters.n_cut == 5
    assert result.timings.gapped == 0.5
    metrics.inc("tile.tiles")
    assert result.counters.n_tiles == 1
