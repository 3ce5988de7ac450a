"""Tests for zero-downtime bank mutation in the serve layer.

The contract: a daemon started with a segment store accepts
``add_sequences`` / ``remove_sequences`` / ``reindex`` while queries are
in flight; queries admitted before a swap finish against the old
subject, queries batched after it see the new one, and **no query is
ever refused or answered wrongly because a mutation happened**.  Every
answer remains byte-identical to a single-shot ``compare`` against
whichever subject generation served it.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core import OrisEngine, OrisParams
from repro.data.synthetic import random_dna
from repro.index import SegmentStore
from repro.io.bank import Bank
from repro.io.m8 import format_m8
from repro.serve import OrisClient, OrisDaemon, ServeConfig
from repro.serve.client import QueryFailed
from repro.serve.engine import BatchEngine


W_PARAMS = OrisParams()


def _single_shot(name: str, seq: str, bank2: Bank) -> str:
    result = OrisEngine(W_PARAMS).compare(Bank.from_strings([(name, seq)]), bank2)
    return format_m8(result.records)


def _subjects(rng, n=6):
    return {f"sub{i}": random_dna(rng, int(rng.integers(300, 800))) for i in range(n)}


def _queries_for(rng, subjects, n=4):
    out = []
    seqs = list(subjects.values())
    for i in range(n):
        src = seqs[int(rng.integers(0, len(seqs)))]
        a = int(rng.integers(0, len(src) - 150))
        out.append((f"q{i}", src[a : a + 150]))
    return out


@pytest.fixture
def store(tmp_path, rng):
    subjects = _subjects(rng)
    s = SegmentStore.create(tmp_path / "store", w=W_PARAMS.w, filter_kind="dust")
    s.add_many(list(subjects.items()))
    s.flush()
    yield s, subjects


class TestEngineMutation:
    def test_requires_exactly_one_subject_source(self, store):
        s, subjects = store
        bank = Bank.from_strings(list(subjects.items()))
        with pytest.raises(ValueError, match="exactly one subject source"):
            BatchEngine(bank, W_PARAMS, store=s)
        with pytest.raises(ValueError, match="exactly one subject source"):
            BatchEngine(params=W_PARAMS)

    def test_mutations_match_single_shot(self, store, rng):
        s, subjects = store
        queries = _queries_for(rng, subjects)
        engine = BatchEngine(params=W_PARAMS, store=s, n_workers=1)
        try:
            def check():
                bank, _ = s.merged()
                for (name, seq), m8 in zip(queries, engine.run_batch(queries)):
                    assert m8 == _single_shot(name, seq, bank)

            check()
            extra = {f"new{i}": random_dna(rng, 400) for i in range(2)}
            report = engine.add_sequences(list(extra.items()))
            assert report["n_sequences"] == len(subjects) + 2
            check()
            engine.remove_sequences(["sub0"])
            check()
            report = engine.reindex()
            assert report["store"]["segments"] == 1
            assert report["store"]["tombstones"] == 0
            check()
        finally:
            engine.close()

    def test_remove_everything_refused(self, store):
        s, _subjects_ = store
        engine = BatchEngine(params=W_PARAMS, store=s, n_workers=1)
        try:
            with pytest.raises(ValueError, match="every sequence"):
                engine.remove_sequences(s.names())
        finally:
            engine.close()

    def test_static_engine_refuses_mutation(self, rng):
        bank = Bank.from_strings([("s", random_dna(rng, 300))])
        engine = BatchEngine(bank, W_PARAMS, n_workers=1)
        try:
            with pytest.raises(ValueError, match="--store"):
                engine.add_sequences([("x", "ACGT" * 20)])
        finally:
            engine.close()

    def test_auto_flush_and_compact_policy(self, store, rng):
        s, _subjects_ = store
        # Tiny thresholds: every add flushes, and the second add compacts.
        engine = BatchEngine(
            params=W_PARAMS, store=s, n_workers=1,
            store_flush_nt=1, store_max_segments=1,
        )
        try:
            engine.add_sequences([("f1", random_dna(rng, 100))])
            engine.add_sequences([("f2", random_dna(rng, 100))])
            assert s.n_delta == 0  # flushed
            assert s.n_segments == 1  # compacted back down
            assert s.manifest.compactions >= 1
        finally:
            engine.close()

    def test_swap_retires_old_arena(self, store, rng):
        s, subjects = store
        queries = _queries_for(rng, subjects, n=2)
        engine = BatchEngine(params=W_PARAMS, store=s, n_workers=2)
        try:
            if not engine.config.use_shm:
                pytest.skip("shared memory unavailable in this environment")
            first_block = engine._subject.arena.spec.block
            engine.run_batch(queries)
            engine.add_sequences([("late", random_dna(rng, 300))])
            assert engine._subject.arena.spec.block != first_block
            assert len(engine._retired) == 1  # old arena awaits the batcher
            engine.run_batch(queries)  # batcher turn: reap happens here
            assert engine._retired == []
            assert engine.registry.value("serve.subject_arenas_reaped") == 1
        finally:
            engine.close()


class TestDaemonMutation:
    @pytest.fixture
    def daemon(self, store):
        s, subjects = store
        d = OrisDaemon(
            params=W_PARAMS,
            config=ServeConfig(
                n_workers=1, check_memory=False, max_delay_ms=5.0
            ),
            store=s,
        )
        d.start()
        yield d, subjects
        d.shutdown()

    def test_admin_ops_via_client(self, daemon, rng):
        d, subjects = daemon
        host, port = d.address
        added = {f"fresh{i}": random_dna(rng, 350) for i in range(2)}
        with OrisClient(host, port) as client:
            report = client.add_sequences(list(added.items()))
            assert report["n_sequences"] == len(subjects) + 2
            # a planted query against a *newly added* sequence must hit
            name, seq = next(iter(added.items()))
            bank, _ = d.engine.store.merged()
            assert client.query("probe", seq[40:190]) == _single_shot(
                "probe", seq[40:190], bank
            )
            report = client.remove_sequences(["fresh0"])
            assert report["n_sequences"] == len(subjects) + 1
            report = client.reindex()
            assert report["store"]["segments"] == 1
            health = client.health()
            assert health["healthy"] is True
            assert health["components"]["store"]["ok"] is True
            assert health["components"]["store"]["segments"] == 1

    def test_admin_validation_errors(self, daemon):
        d, _subjects_ = daemon
        host, port = d.address
        with OrisClient(host, port) as client:
            with pytest.raises(QueryFailed, match="already exists"):
                client.add_sequences([("sub0", "ACGT" * 30)])
            with pytest.raises(QueryFailed, match="no sequence named"):
                client.remove_sequences(["ghost"])
            with pytest.raises(QueryFailed, match="records"):
                client._admin({"type": "add_sequences", "records": []})

    def test_static_daemon_refuses_admin(self, rng):
        bank = Bank.from_strings([("s", random_dna(rng, 300))])
        d = OrisDaemon(
            bank,
            W_PARAMS,
            ServeConfig(n_workers=1, check_memory=False, max_delay_ms=5.0),
        )
        d.start()
        try:
            host, port = d.address
            with OrisClient(host, port) as client:
                with pytest.raises(QueryFailed, match="--store"):
                    client.reindex()
        finally:
            d.shutdown()

    def test_zero_downtime_swap_under_concurrent_queries(self, daemon, rng):
        """Mutations mid-stream: every query answered, none refused,
        every answer byte-identical to one of the subject generations it
        could legitimately have seen."""
        d, subjects = daemon
        host, port = d.address
        query_rng = np.random.default_rng(99)
        jobs = _queries_for(query_rng, subjects, n=3)
        # Answers must match the subject bank *some* generation served;
        # collect the logical bank before and after each mutation.
        generations = [d.engine.store.merged()[0]]
        errors: list = []
        results: dict[str, list[str]] = {name: [] for name, _ in jobs}
        stop = threading.Event()

        def hammer(name, seq):
            try:
                with OrisClient(host, port) as client:
                    while not stop.is_set():
                        results[name].append(client.query(name, seq))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append((name, exc))

        threads = [threading.Thread(target=hammer, args=j) for j in jobs]
        for t in threads:
            t.start()
        try:
            with OrisClient(host, port) as admin:
                admin.add_sequences([("mut0", random_dna(rng, 400))])
                generations.append(d.engine.store.merged()[0])
                admin.remove_sequences(["sub1"])
                generations.append(d.engine.store.merged()[0])
                admin.reindex()
        finally:
            stop.set()
            for t in threads:
                t.join(30.0)
        assert not errors  # zero refused / failed queries during swaps
        acceptable: dict[str, set[str]] = {}
        for name, seq in jobs:
            acceptable[name] = {
                _single_shot(name, seq, bank) for bank in generations
            }
        for name, _seq in jobs:
            assert results[name]  # the hammer really ran
            for answer in results[name]:
                assert answer in acceptable[name]

    def test_store_survives_daemon_restart(self, tmp_path, rng):
        subjects = _subjects(rng, n=4)
        directory = tmp_path / "restart-store"
        s = SegmentStore.create(directory, w=W_PARAMS.w, filter_kind="dust")
        s.add_many(list(subjects.items()))
        config = ServeConfig(n_workers=1, check_memory=False, max_delay_ms=5.0)
        d = OrisDaemon(params=W_PARAMS, config=config, store=s)
        d.start()
        host, port = d.address
        with OrisClient(host, port) as client:
            client.add_sequences([("durable", random_dna(rng, 300))])
            client.remove_sequences(["sub0"])
        d.shutdown()  # closes the store via the engine
        reopened = SegmentStore.open(directory, expect_w=W_PARAMS.w)
        names = reopened.names()
        assert "durable" in names and "sub0" not in names
        d2 = OrisDaemon(params=W_PARAMS, config=config, store=reopened)
        d2.start()
        try:
            host, port = d2.address
            bank, _ = reopened.merged()
            seq = subjects["sub1"][:160]
            with OrisClient(host, port) as client:
                assert client.query("again", seq) == _single_shot(
                    "again", seq, bank
                )
        finally:
            d2.shutdown()
