"""Funnel identities under the vector kernel: serial, per-task, merged.

:func:`repro.obs.check_funnel` encodes the step-2 accounting identities
(every hit pair starts one extension; every extension ends in exactly one
bucket).  The vector kernel reports its funnel contributions from
compacted per-chunk summaries rather than per-lane masks, so this module
asserts the identities hold wherever the kernel runs:

* a serial engine run (and equality with the scalar kernel's funnel);
* every individual range task of the parallel decomposition;
* the additive merge of all range tasks (equal to the serial funnel);
* range tasks round-tripped through the checkpoint journal -- the
  ``--resume`` path must restore funnel metrics JSON-exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align.evalue import karlin_params
from repro.align.scoring import ScoringScheme
from repro.core import OrisEngine, OrisParams
from repro.core.parallel import build_range_payload, merge_range_results, run_range
from repro.io.bank import Bank
from repro.obs import MetricsRegistry, check_funnel, funnel_dict
from repro.runtime.checkpoint import CheckpointJournal

_TEXT = st.text(alphabet="ACGTacgtN", min_size=20, max_size=120)


def _even_ranges(n_codes: int, n_tasks: int) -> list[tuple[int, int]]:
    """Equal-code-count contiguous ranges (any partition must do)."""
    bounds = np.linspace(0, n_codes, n_tasks + 1).astype(int)
    return [(int(lo), int(hi)) for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]


def _payload(b1: Bank, b2: Bank, params: OrisParams):
    engine = OrisEngine(params)
    i1, i2 = engine._build_indexes(b1, b2)
    common = i1.common_codes(i2)
    threshold = engine._resolve_hsp_min_score(
        b1, b2, karlin_params(params.scoring)
    )
    return build_range_payload(i1, i2, common, params, threshold)


class TestSerialFunnel:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(s1=_TEXT, s2=_TEXT, w=st.sampled_from([4, 5, 6]), ordered=st.booleans())
    def test_vector_funnel_balances_and_matches_scalar(self, s1, s2, w, ordered):
        b1 = Bank.from_strings([("a", s1)])
        b2 = Bank.from_strings([("b", s2)])
        scoring = ScoringScheme(match=1, mismatch=2, xdrop_ungapped=8)
        funnels = {}
        for kernel in ("vector", "scalar"):
            params = OrisParams(
                w=w,
                scoring=scoring,
                filter_kind="none",
                hsp_min_score=scoring.seed_score(w) + 1,
                ordered_cutoff=ordered,
                kernel=kernel,
            )
            registry = MetricsRegistry()
            OrisEngine(params).hsp_table(b1, b2, registry)
            assert check_funnel(registry) == [], kernel
            funnels[kernel] = funnel_dict(registry)
        assert funnels["vector"] == funnels["scalar"]


class TestParallelFunnel:
    @pytest.fixture(scope="class")
    def workload(self, est_pair):
        params = OrisParams(kernel="vector")
        payload = _payload(*est_pair, params)
        serial = MetricsRegistry()
        OrisEngine(params).hsp_table(*est_pair, serial)
        return payload, serial

    def test_every_task_funnel_balances(self, workload):
        payload, _ = workload
        results = [
            run_range(payload, lo, hi)
            for lo, hi in _even_ranges(payload.n_codes, 5)
        ]
        for res in results:
            assert res.metrics is not None
            assert check_funnel(res.metrics) == []

    def test_merged_funnel_equals_serial(self, workload):
        payload, serial = workload
        results = [
            run_range(payload, lo, hi)
            for lo, hi in _even_ranges(payload.n_codes, 5)
        ]
        merged = MetricsRegistry()
        merge_range_results(results, merged)
        assert check_funnel(merged) == []
        want = funnel_dict(serial)
        got = funnel_dict(merged)
        for name in got:
            if name.startswith("step2.") and name != "step2.seeds_enumerated":
                assert got[name] == want[name], name
        # seeds_enumerated counts per-task code ranges, which cover the
        # common-code space exactly once.
        assert got["step2.seeds_enumerated"] == payload.n_codes

    def test_partition_invariance(self, workload):
        # The merged funnel must not depend on how the code space splits.
        payload, _ = workload
        merged_funnels = []
        for n_tasks in (1, 3, 7):
            results = [
                run_range(payload, lo, hi)
                for lo, hi in _even_ranges(payload.n_codes, n_tasks)
            ]
            merged = MetricsRegistry()
            merge_range_results(results, merged)
            merged_funnels.append(funnel_dict(merged))
        assert merged_funnels[0] == merged_funnels[1] == merged_funnels[2]


class TestResumeFunnelRestoration:
    def test_journal_roundtrip_is_metric_exact(self, est_pair, tmp_path):
        # Funnel counters of a resumed run must equal the uninterrupted
        # run's: the journal stores each task's registry JSON-exactly.
        payload = _payload(*est_pair, OrisParams(kernel="vector"))
        ranges = _even_ranges(payload.n_codes, 4)
        results = [run_range(payload, lo, hi) for lo, hi in ranges]

        fingerprint = {"probe": "funnel-roundtrip"}
        journal = CheckpointJournal(tmp_path)
        journal.create(fingerprint)
        for task_id, ((lo, hi), res) in enumerate(zip(ranges, results)):
            journal.record(task_id, lo, hi, res)
        journal.close()

        restored = CheckpointJournal(tmp_path).load(fingerprint)
        assert sorted(restored) == list(range(len(ranges)))

        direct = MetricsRegistry()
        merge_range_results(results, direct)
        resumed = MetricsRegistry()
        merge_range_results(
            [restored[t] for t in sorted(restored)], resumed
        )
        assert check_funnel(resumed) == []
        assert funnel_dict(resumed) == funnel_dict(direct)
        # Beyond the funnel: every persisted metric restores exactly.
        for task_id, res in enumerate(results):
            assert restored[task_id].metrics == res.metrics
        hsps = np.concatenate([restored[t].start1 for t in sorted(restored)])
        assert np.array_equal(
            hsps, np.concatenate([r.start1 for r in results])
        )
