"""Tests for the resident query daemon (repro.serve).

The load-bearing property is *serving equivalence*: the daemon's answer
for a query must be byte-identical to a single-shot
``OrisEngine.compare`` of that query against the same subject bank,
regardless of which other queries happened to share its micro-batch.
Everything else -- framing, admission, batching, drain -- is contract
plumbing around that invariant.
"""

from __future__ import annotations

import socket
import threading
import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import OrisEngine, OrisParams
from repro.data.synthetic import mutate, random_dna
from repro.io.bank import Bank
from repro.io.m8 import format_m8
from repro.obs import MetricsRegistry
from repro.serve import (
    AdmissionController,
    BatchEngine,
    MicroBatcher,
    OrisClient,
    OrisDaemon,
    PendingQuery,
    ProtocolError,
    ServeConfig,
    ServerDraining,
    recv_frame,
    send_frame,
)
from repro.serve import engine as serve_engine
from repro.serve.engine import STEP3_BATCH_LANES, expand_common_per_query


# --------------------------------------------------------------------- #
# Protocol framing
# --------------------------------------------------------------------- #


class TestProtocol:
    def _pair(self):
        a, b = socket.socketpair()
        a.settimeout(5.0)
        b.settimeout(5.0)
        return a, b

    def test_round_trip(self):
        a, b = self._pair()
        try:
            send_frame(a, {"type": "query", "sequence": "ACGT", "n": 3})
            assert recv_frame(b) == {"type": "query", "sequence": "ACGT", "n": 3}
        finally:
            a.close()
            b.close()

    def test_clean_eof_returns_none(self):
        a, b = self._pair()
        a.close()
        try:
            assert recv_frame(b) is None
        finally:
            b.close()

    def test_mid_frame_eof_raises(self):
        a, b = self._pair()
        try:
            a.sendall(b"\x00\x00\x01\x00" + b"{")  # promises 256, sends 1
            a.close()
            with pytest.raises(ProtocolError, match="mid-frame"):
                recv_frame(b)
        finally:
            b.close()

    def test_oversized_frame_rejected_before_allocation(self):
        a, b = self._pair()
        try:
            a.sendall((1 << 31).to_bytes(4, "big"))
            with pytest.raises(ProtocolError, match="refusing to allocate"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_non_object_payload_rejected(self):
        a, b = self._pair()
        try:
            body = b"[1, 2]"
            a.sendall(len(body).to_bytes(4, "big") + body)
            with pytest.raises(ProtocolError, match="object"):
                recv_frame(b)
        finally:
            a.close()
            b.close()


# --------------------------------------------------------------------- #
# Admission control
# --------------------------------------------------------------------- #


class TestAdmission:
    def _controller(self, **kw):
        kw.setdefault("check_memory", False)
        kw.setdefault("registry", MetricsRegistry())
        return AdmissionController(**kw)

    def test_admit_then_release_tracks_depth(self):
        adm = self._controller(max_queue=2)
        assert adm.try_admit(100).admitted
        assert adm.try_admit(100).admitted
        assert adm.in_flight == 2
        decision = adm.try_admit(100)
        assert not decision.admitted and decision.status == "shed"
        adm.release()
        assert adm.try_admit(100).admitted
        assert adm.registry.value("serve.requests_accepted") == 3
        assert adm.registry.value("serve.requests_shed") == 1

    def test_oversized_query_shed(self):
        adm = self._controller(max_query_nt=50)
        decision = adm.try_admit(51)
        assert not decision.admitted
        assert "cap" in decision.reason

    def test_draining_refuses_with_distinct_status(self):
        adm = self._controller()
        adm.start_draining()
        decision = adm.try_admit(10)
        assert not decision.admitted and decision.status == "draining"

    def test_queue_depth_gauge_follows(self):
        adm = self._controller()
        adm.try_admit(10)
        assert adm.registry.value("serve.queue_depth") == 1.0
        adm.release()
        assert adm.registry.value("serve.queue_depth") == 0.0


# --------------------------------------------------------------------- #
# Micro-batcher
# --------------------------------------------------------------------- #


class _FakeEngine:
    """Records batch compositions; returns one m8-ish line per query."""

    def __init__(self, fail=False, delay=0.0):
        self.batches = []
        self.fail = fail
        self.delay = delay

    def run_batch(self, queries):
        self.batches.append([name for name, _ in queries])
        if self.delay:
            time.sleep(self.delay)
        if self.fail:
            raise RuntimeError("engine exploded")
        return [f"{name}\thit\n" for name, _ in queries]


class TestMicroBatcher:
    def test_coalesces_concurrent_queries_into_one_batch(self):
        engine = _FakeEngine()
        batcher = MicroBatcher(engine, max_delay_ms=80.0)
        batcher.start()
        try:
            pendings = [PendingQuery(f"q{i}", "ACGT" * 10) for i in range(5)]
            for p in pendings:
                batcher.submit(p)
            for p in pendings:
                assert p.wait(5.0)
                assert p.status == "ok" and p.m8 == f"{p.name}\thit\n"
            assert len(engine.batches) == 1
            assert sorted(engine.batches[0]) == [f"q{i}" for i in range(5)]
        finally:
            batcher.drain(timeout=5.0)

    def test_max_batch_queries_splits(self):
        engine = _FakeEngine(delay=0.05)
        batcher = MicroBatcher(engine, max_delay_ms=50.0, max_batch_queries=2)
        batcher.start()
        try:
            pendings = [PendingQuery(f"q{i}", "ACGT") for i in range(4)]
            for p in pendings:
                batcher.submit(p)
            for p in pendings:
                assert p.wait(5.0) and p.status == "ok"
            assert all(len(names) <= 2 for names in engine.batches)
        finally:
            batcher.drain(timeout=5.0)

    def test_engine_failure_answers_every_query(self):
        """A query whose batch keeps failing is answered ``poisoned``."""
        registry = MetricsRegistry()
        engine = _FakeEngine(fail=True)
        batcher = MicroBatcher(engine, max_delay_ms=5.0, registry=registry)
        batcher.start()
        try:
            p = PendingQuery("q", "ACGT")
            batcher.submit(p)
            assert p.wait(5.0)
            assert p.status == "poisoned" and "exploded" in p.error
            assert registry.value("serve.requests_failed") == 1
            assert registry.value("serve.queries_poisoned") == 1
            # The singleton was retried once before the verdict.
            assert len(engine.batches) == 2
        finally:
            batcher.drain(timeout=5.0)

    def test_expired_deadline_resolves_timeout(self):
        batcher = MicroBatcher(_FakeEngine(), max_delay_ms=5.0)
        batcher.start()
        try:
            p = PendingQuery("q", "ACGT", deadline=time.monotonic() - 1.0)
            batcher.submit(p)
            assert p.wait(5.0)
            assert p.status == "timeout"
        finally:
            batcher.drain(timeout=5.0)

    def test_drain_rejects_buffered_but_finishes_running(self):
        engine = _FakeEngine(delay=0.3)
        batcher = MicroBatcher(engine, max_delay_ms=0.0)
        batcher.start()
        running = PendingQuery("running", "ACGT")
        batcher.submit(running)
        time.sleep(0.1)  # let the batch start RUNNING
        late = PendingQuery("late", "ACGT")
        batcher.submit(late)
        batcher.drain(timeout=10.0)
        assert running.wait(0.0) and running.status == "ok"
        assert late.wait(0.0) and late.status == "draining"
        post = PendingQuery("post", "ACGT")
        batcher.submit(post)
        assert post.wait(0.0) and post.status == "draining"

    def test_heap_released_after_each_batch_is_answered(self, monkeypatch):
        from repro.serve import batcher as batcher_module

        trims = []
        engine = _FakeEngine()
        batcher = MicroBatcher(engine, max_delay_ms=0.0)

        def spy():
            trims.append((len(engine.batches), [p.status for p in pendings]))

        monkeypatch.setattr(batcher_module, "release_free_heap", spy)
        pendings = [PendingQuery("a", "ACGT")]
        batcher.start()
        try:
            batcher.submit(pendings[0])
            assert pendings[0].wait(5.0)
            pendings.append(PendingQuery("b", "ACGT"))
            batcher.submit(pendings[1])
            assert pendings[1].wait(5.0)
        finally:
            batcher.drain(timeout=5.0)
        assert trims == [(1, ["ok"]), (2, ["ok", "ok"])]

    def test_resolved_callback_fires_for_every_outcome(self):
        seen = []
        batcher = MicroBatcher(
            _FakeEngine(), max_delay_ms=5.0, on_resolved=lambda p: seen.append(p.name)
        )
        batcher.start()
        ok = PendingQuery("ok", "ACGT")
        batcher.submit(ok)
        assert ok.wait(5.0)
        batcher.drain(timeout=5.0)
        rejected = PendingQuery("rejected", "ACGT")
        batcher.submit(rejected)
        assert rejected.wait(0.0)
        assert seen == ["ok", "rejected"]


# --------------------------------------------------------------------- #
# Batch engine: serving equivalence
# --------------------------------------------------------------------- #


def _single_shot(params, qname, qseq, bank2):
    qbank = Bank.from_strings([(qname, qseq)])
    return format_m8(OrisEngine(params).compare(qbank, bank2).records)


class TestBatchEngineEquivalence:
    @pytest.fixture(scope="class")
    def corpus(self):
        rng = np.random.default_rng(20080611)
        subjects = [random_dna(rng, int(rng.integers(300, 700))) for _ in range(6)]
        bank2 = Bank.from_strings(
            [(f"subj{i}", s) for i, s in enumerate(subjects)]
        )
        queries = []
        for i in range(5):
            src = subjects[int(rng.integers(len(subjects)))]
            a = int(rng.integers(0, len(src) - 140))
            frag = list(src[a : a + 140])
            for _ in range(int(rng.integers(0, 6))):
                frag[int(rng.integers(len(frag)))] = "ACGT"[int(rng.integers(4))]
            queries.append((f"q{i}", "".join(frag)))
        queries.append(("low", "AT" * 30))
        queries.append(("nohit", random_dna(rng, 80)))
        return bank2, queries

    @pytest.mark.parametrize("w", [8, 11])
    @pytest.mark.parametrize("max_occurrences", [None, 3])
    def test_batched_equals_single_shot(self, corpus, w, max_occurrences):
        bank2, queries = corpus
        params = OrisParams(w=w, max_occurrences=max_occurrences)
        engine = BatchEngine(bank2, params, n_workers=1)
        try:
            served = engine.run_batch(queries)
        finally:
            engine.close()
        for (name, seq), got in zip(queries, served):
            assert got == _single_shot(params, name, seq, bank2), name

    def test_batch_composition_is_irrelevant(self, corpus):
        """The same query answers identically alone, paired, and en masse."""
        bank2, queries = corpus
        params = OrisParams()
        engine = BatchEngine(bank2, params, n_workers=1)
        try:
            full = dict(zip([n for n, _ in queries], engine.run_batch(queries)))
            solo = {
                name: engine.run_batch([(name, seq)])[0]
                for name, seq in queries
            }
            pairs = {}
            for i in range(0, len(queries) - 1, 2):
                chunk = queries[i : i + 2]
                for (name, _), m8 in zip(chunk, engine.run_batch(chunk)):
                    pairs[name] = m8
        finally:
            engine.close()
        for name in solo:
            assert full[name] == solo[name], name
        for name in pairs:
            assert pairs[name] == solo[name], name

    def test_duplicate_sequences_in_one_batch(self, corpus):
        bank2, queries = corpus
        name, seq = queries[0]
        params = OrisParams()
        engine = BatchEngine(bank2, params, n_workers=1)
        try:
            twice = engine.run_batch([("a", seq), ("b", seq)])
        finally:
            engine.close()
        assert twice[0] == _single_shot(params, "a", seq, bank2)
        assert twice[1] == _single_shot(params, "b", seq, bank2)

    def test_exclude_self_equals_single_shot(self, corpus):
        # Subject sequences queried under their own names: the trivial
        # self-hits must be dropped exactly as a single-shot run drops them.
        bank2, _ = corpus
        queries = [(bank2.names[i], bank2.sequence_str(i)) for i in range(3)]
        params = OrisParams(exclude_self=True)
        engine = BatchEngine(bank2, params, n_workers=1)
        try:
            served = engine.run_batch(queries)
        finally:
            engine.close()
        for (name, seq), got in zip(queries, served):
            assert got == _single_shot(params, name, seq, bank2), name
            assert got != _single_shot(OrisParams(), name, seq, bank2), name

    def test_spaced_and_asymmetric_rejected(self, corpus):
        bank2, _ = corpus
        with pytest.raises(ValueError, match="contiguous"):
            BatchEngine(bank2, OrisParams(spaced_seed="1101011"))
        with pytest.raises(ValueError, match="contiguous"):
            BatchEngine(bank2, OrisParams(asymmetric=True))
        with pytest.raises(ValueError, match="strand"):
            BatchEngine(bank2, OrisParams(strand="both"))

    @settings(max_examples=15, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        w=st.sampled_from([7, 9, 11]),
        n_queries=st.integers(1, 4),
        hsp_min_score=st.sampled_from([None, 18]),
    )
    def test_equivalence_sweep(self, seed, w, n_queries, hsp_min_score):
        """Hypothesis sweep over W, the S1 threshold, and batch shape."""
        rng = np.random.default_rng(seed)
        subjects = [random_dna(rng, int(rng.integers(150, 400))) for _ in range(3)]
        bank2 = Bank.from_strings([(f"s{i}", x) for i, x in enumerate(subjects)])
        queries = []
        for i in range(n_queries):
            src = subjects[int(rng.integers(len(subjects)))]
            a = int(rng.integers(0, max(len(src) - 80, 1)))
            queries.append((f"q{i}", src[a : a + 80] or random_dna(rng, 40)))
        params = OrisParams(w=w, hsp_min_score=hsp_min_score)
        engine = BatchEngine(bank2, params, n_workers=1)
        try:
            served = engine.run_batch(queries)
        finally:
            engine.close()
        for (name, seq), got in zip(queries, served):
            assert got == _single_shot(params, name, seq, bank2)


def _batch_queries(rng, subjects, kinds, w):
    """Queries of the given kinds, in order, at most six.

    ``exact`` aligns end to end (its first and last base, and the merged
    bank's when it opens or closes the batch) inside a subject that goes
    on, so only the separator stops its lanes; ``split`` is two such
    queries that continue each other in the subject; ``nrun`` holds a
    run of N's; ``nohit`` has no HSP; ``short`` is shorter than ``w``;
    ``dup`` repeats an earlier query under a new name.
    """
    seqs: list[str] = []
    for kind in kinds:
        src = subjects[int(rng.integers(len(subjects)))]
        a = int(rng.integers(20, len(src) - 140))
        if kind == "exact":
            seqs.append(src[a : a + 100])
        elif kind == "split":
            seqs += [src[a : a + 60], src[a + 60 : a + 120]]
        elif kind == "mutated":
            seqs.append(mutate(rng, src[a : a + 100], sub_rate=0.05))
        elif kind == "nrun":
            n = int(rng.integers(1, 13))
            frag = src[a : a + 100]
            seqs.append(frag[:40] + "N" * n + frag[40 + n :])
        elif kind == "nohit":
            seqs.append("A" * 50)
        elif kind == "short":
            seqs.append(random_dna(rng, int(rng.integers(1, w))))
        else:  # dup
            seqs.append(seqs[int(rng.integers(len(seqs)))] if seqs else src[a : a + 80])
    return [(f"q{i}", x) for i, x in enumerate(seqs[:6])]


def _stage_counters(registry):
    return {
        name: value
        for name, value in registry.as_dict()["counters"].items()
        if name.startswith(("step3.", "step4."))
    }


class TestMergedStep3:
    """Step 3's kernel runs once per batch over every query's lanes."""

    @pytest.fixture(scope="class")
    def corpus(self):
        rng = np.random.default_rng(20080612)
        subjects = [random_dna(rng, 600) for _ in range(4)]
        bank2 = Bank.from_strings([(f"s{i}", x) for i, x in enumerate(subjects)])
        kinds = ["exact", "nohit", "split", "mutated", "short", "nrun", "exact"]
        queries = _batch_queries(rng, subjects, kinds, 11)
        return bank2, queries

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        w=st.sampled_from([8, 11]),
        kinds=st.lists(
            st.sampled_from(
                ["exact", "split", "mutated", "nrun", "nohit", "short", "dup"]
            ),
            min_size=1,
            max_size=6,
        ),
    )
    @example(seed=1, w=11, kinds=["exact", "nohit", "short", "exact"])
    @example(seed=2, w=8, kinds=["split", "dup", "nrun", "split"])
    def test_batch_equals_single_shot(self, seed, w, kinds):
        rng = np.random.default_rng(seed)
        subjects = [random_dna(rng, int(rng.integers(200, 400))) for _ in range(3)]
        bank2 = Bank.from_strings([(f"s{i}", x) for i, x in enumerate(subjects)])
        queries = _batch_queries(rng, subjects, kinds, w)
        params = OrisParams(w=w)
        engine = BatchEngine(bank2, params, n_workers=1)
        try:
            served = engine.run_batch(queries)
        finally:
            engine.close()
        for (name, seq), got in zip(queries, served):
            assert got == _single_shot(params, name, seq, bank2), name

    def test_counters_equal_the_sum_of_one_query_runs(self, corpus):
        bank2, queries = corpus
        params = OrisParams()
        engine = BatchEngine(bank2, params, n_workers=1)
        try:
            engine.run_batch(queries)
        finally:
            engine.close()
        single = Counter()
        query_rows = []
        for name, seq in queries:
            qbank = Bank.from_strings([(name, seq)])
            result = OrisEngine(params).compare(qbank, bank2)
            counters = _stage_counters(result.metrics)
            query_rows.append(counters.pop("step3.kernel_rows", 0))
            single.update(counters)
        batched = _stage_counters(engine.registry)
        assert batched["step3.lane_rows"] > 0 and batched["step4.records"] > 0
        # One kernel call sweeps the rows of the query that needs the most,
        # not the sum of every query's.
        assert batched.pop("step3.kernel_rows") == max(query_rows) > 0
        assert Counter(batched) == single

    def _spy(self, monkeypatch):
        """Record the batch kernel's calls; forbid a per-query kernel run."""
        calls = []
        real = serve_engine.batch_gapped_extend

        def spy(seq1, seq2, p1, *args):
            calls.append(np.array(p1))
            return real(seq1, seq2, p1, *args)

        def per_query(*_args):
            raise AssertionError("a query ran its own gapped kernel")

        monkeypatch.setattr(serve_engine, "batch_gapped_extend", spy)
        monkeypatch.setattr(
            "repro.core.gapped_stage.batch_gapped_extend", per_query
        )
        return calls

    def test_one_kernel_call_per_batch_and_no_query_split(
        self, corpus, monkeypatch
    ):
        bank2, queries = corpus
        params = OrisParams()
        expected = [_single_shot(params, n, s, bank2) for n, s in queries]
        starts = Bank.from_strings(queries).starts
        calls = self._spy(monkeypatch)
        engine = BatchEngine(bank2, params, n_workers=1)
        try:
            assert engine.run_batch(queries) == expected
            (lanes,) = calls
            assert lanes.size <= STEP3_BATCH_LANES
            owner = np.searchsorted(starts, lanes, side="right") - 1
            per_query = np.bincount(owner, minlength=len(queries))
            assert (per_query > 0).sum() >= 3
            for cap in (int(per_query.max()), 1):
                calls.clear()
                monkeypatch.setattr(serve_engine, "STEP3_BATCH_LANES", cap)
                assert engine.run_batch(queries) == expected
                seen: set[int] = set()
                for lanes in calls:
                    owners = set(
                        (np.searchsorted(starts, lanes, side="right") - 1).tolist()
                    )
                    assert not owners & seen  # one query, one call
                    seen |= owners
                    assert lanes.size <= cap or len(owners) == 1
                assert seen == set(np.flatnonzero(per_query).tolist())
                assert len(calls) > 1
            assert len(calls) == len(seen)  # cap 1: one call per query
        finally:
            engine.close()

    def test_serial_schedule_still_matches(self, corpus, monkeypatch):
        bank2, queries = corpus
        params = OrisParams(gapped_scheduling="serial")
        expected = [_single_shot(params, n, s, bank2) for n, s in queries]

        def merged(*_args):
            raise AssertionError("the serial schedule ran the batch kernel")

        monkeypatch.setattr(serve_engine, "batch_gapped_extend", merged)
        engine = BatchEngine(bank2, params, n_workers=1)
        try:
            assert engine.run_batch(queries) == expected
        finally:
            engine.close()


class TestExpandCommonPerQuery:
    def test_runs_split_on_query_boundaries(self):
        rng = np.random.default_rng(7)
        core = random_dna(rng, 60)
        q0, q1 = core + random_dna(rng, 20), random_dna(rng, 20) + core
        merged = Bank.from_strings([("q0", q0), ("q1", q1)])
        subject = Bank.from_strings([("s", core)])
        from repro.index.seed_index import CsrSeedIndex

        index1 = CsrSeedIndex(merged, 11)
        index2 = CsrSeedIndex(subject, 11)
        common = index1.common_codes(index2)
        expanded, owners = expand_common_per_query(
            common, index1.positions, np.asarray(merged.starts)
        )
        assert expanded.n_pairs == common.n_pairs
        # Each expanded entry's bank1 positions belong to exactly one query.
        starts = np.asarray(merged.starts)
        for e in range(expanded.n_codes):
            lo = expanded.start1[e]
            positions = index1.positions[lo : lo + expanded.count1[e]]
            owner = np.searchsorted(starts, positions, side="right") - 1
            assert len(set(owner.tolist())) == 1
            assert owner[0] == owners[e]
        # Entry order stays code-major, query-minor.
        codes = expanded.codes.tolist()
        assert codes == sorted(codes)


class TestBatchEngineLedger:
    def test_step2_funnel_reaches_the_service_registry(self):
        # Task registries of the shared step-2 pass used to be dropped,
        # leaving a service funnel with step-3 extensions out of zero hits.
        from repro.data import load_bank
        from repro.obs import check_funnel, funnel_dict

        bank1 = load_bank("EST1", seed=20080407)
        bank2 = load_bank("EST2", seed=20080407)
        queries = [(bank1.names[i], bank1.sequence_str(i)) for i in range(6)]
        engine = BatchEngine(bank2, OrisParams(), n_workers=1)
        try:
            engine.run_batch(queries)
        finally:
            engine.close()
        funnel = funnel_dict(engine.registry)
        assert funnel["step2.hit_pairs"] > 0
        assert funnel["step3.extensions"] > 0
        assert check_funnel(engine.registry) == []


# --------------------------------------------------------------------- #
# Worker pool reuse
# --------------------------------------------------------------------- #


class TestWorkerPoolReuse:
    def test_same_workers_across_batches(self, rng):
        subjects = [random_dna(rng, 500) for _ in range(3)]
        bank2 = Bank.from_strings(
            [(f"s{i}", x) for i, x in enumerate(subjects)]
        )
        engine = BatchEngine(bank2, OrisParams(), n_workers=2)
        try:
            query = ("q", subjects[0][50:250])  # exact hit: ranges exist
            out = engine.run_batch([query])
            assert out[0]  # the batch really went through the pool
            first = sorted(w.proc.pid for w in engine.pool._workers)
            engine.run_batch([query])
            second = sorted(w.proc.pid for w in engine.pool._workers)
            assert first == second and len(first) == 2
            assert all(w.proc.is_alive() for w in engine.pool._workers)
        finally:
            engine.close()
        assert engine.pool._workers == []


# --------------------------------------------------------------------- #
# Daemon end-to-end (in-process, serial engine)
# --------------------------------------------------------------------- #


@pytest.fixture
def daemon(est_pair):
    bank2 = est_pair[1]
    d = OrisDaemon(
        bank2,
        OrisParams(),
        ServeConfig(n_workers=1, check_memory=False, max_delay_ms=10.0),
    )
    d.start()
    yield d
    d.shutdown()


class TestDaemon:
    def _query_text(self, est_pair, i=0):
        bank1 = est_pair[0]
        lo, hi = bank1.bounds(i)
        return bank1.names[i], "".join(
            "ACGT"[c] if c < 4 else "N" for c in bank1.seq[lo:hi]
        )

    def test_concurrent_queries_match_single_shot(self, daemon, est_pair):
        host, port = daemon.address
        jobs = [self._query_text(est_pair, i) for i in range(6)]
        results = {}
        errors = []

        def go(name, seq):
            try:
                with OrisClient(host, port) as client:
                    results[name] = client.query(name, seq)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append((name, exc))

        threads = [threading.Thread(target=go, args=j) for j in jobs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert not errors
        for name, seq in jobs:
            assert results[name] == _single_shot(
                OrisParams(), name, seq, est_pair[1]
            )

    def test_ping_stats_and_service_metrics(self, daemon, est_pair):
        host, port = daemon.address
        name, seq = self._query_text(est_pair)
        with OrisClient(host, port) as client:
            assert client.ping()
            client.query(name, seq)
            metrics = client.stats()
        assert metrics["counters"]["serve.requests_accepted"] >= 1
        assert metrics["counters"]["serve.batches"] >= 1
        assert "serve.queue_depth" in metrics["gauges"]
        assert metrics["histograms"]["serve.batch_size"]["count"] >= 1
        assert "serve.batch_latency_seconds" in metrics["histograms"]

    def test_bad_requests_answered_not_fatal(self, daemon):
        host, port = daemon.address
        with socket.create_connection((host, port), timeout=5.0) as sock:
            send_frame(sock, {"type": "nonsense"})
            assert recv_frame(sock)["status"] == "error"
            send_frame(sock, {"type": "query", "name": "x", "sequence": ""})
            assert recv_frame(sock)["status"] == "error"
            send_frame(sock, {"type": "ping"})
            assert recv_frame(sock)["status"] == "ok"

    def test_shed_when_queue_full(self, daemon):
        daemon.admission.max_queue = 1
        daemon.admission._in_flight = 1  # simulate a stuck in-flight query
        host, port = daemon.address
        try:
            with OrisClient(host, port) as client:
                with pytest.raises(Exception, match="queue full"):
                    client.query("q", "ACGTACGTACGT")
        finally:
            daemon.admission._in_flight = 0

    def test_shutdown_drains_and_refuses(self, daemon, est_pair):
        host, port = daemon.address
        name, seq = self._query_text(est_pair)
        with OrisClient(host, port) as client:
            before = client.query(name, seq)
            assert before == _single_shot(OrisParams(), name, seq, est_pair[1])
        daemon.shutdown()
        daemon.shutdown()  # idempotent
        with pytest.raises(OSError):
            socket.create_connection((host, port), timeout=1.0)

    def test_draining_status_reaches_client(self, daemon, est_pair):
        host, port = daemon.address
        daemon.admission.start_draining()
        name, seq = self._query_text(est_pair)
        with OrisClient(host, port) as client:
            with pytest.raises(ServerDraining):
                client.query(name, seq)
