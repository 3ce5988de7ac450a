"""Self-healing serve layer: fault injection, respawn, quarantine, leaks.

PR 5 proved the daemon *works*; this suite proves it *recovers*.  The
contract under test: worker deaths respawn (with metrics), a poison
query is isolated by bisection and quarantined without hurting its
co-batched innocents, a timed-out request releases its admission slot
exactly once (whoever wins the cancel/resolve race), undeliverable
responses and oversized frames are answered structurally, and the
health endpoint reports it all.
"""

from __future__ import annotations

import dataclasses
import os
import signal
import socket
import threading
import time
import types

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import OrisEngine, OrisParams
from repro.data.synthetic import random_dna
from repro.io.bank import Bank
from repro.io.m8 import format_m8
from repro.obs import MetricsRegistry
from repro.runtime import faults
from repro.runtime.errors import PoolUnhealthy
from repro.serve import (
    AdmissionController,
    BatchEngine,
    MicroBatcher,
    OrisClient,
    OrisDaemon,
    PendingQuery,
    QueryPoisoned,
    ServeConfig,
    recv_frame,
    send_frame,
)
from repro.serve import protocol as protocol_mod
from repro.serve.frontend import try_send


@pytest.fixture(autouse=True)
def _disarmed():
    faults.disarm()
    yield
    faults.disarm()


def _single_shot(params, qname, qseq, bank2):
    qbank = Bank.from_strings([(qname, qseq)])
    return format_m8(OrisEngine(params).compare(qbank, bank2).records)


# --------------------------------------------------------------------- #
# PendingQuery resolution races
# --------------------------------------------------------------------- #


class TestPendingIdempotence:
    def test_second_resolution_loses(self):
        p = PendingQuery("q", "ACGT")
        assert p.resolve("ok", m8="x") is True
        assert p.resolve("timeout", error="late") is False
        assert p.status == "ok" and p.m8 == "x"

    def test_on_resolved_fires_exactly_once_under_race(self):
        """cancel() vs the batcher's resolve: one admission release."""
        releases = []
        batcher = MicroBatcher(
            types.SimpleNamespace(run_batch=lambda q: [""] * len(q)),
            on_resolved=lambda p: releases.append(p.name),
        )
        for _ in range(50):
            p = PendingQuery("q", "ACGT")
            barrier = threading.Barrier(2)

            def resolve_side(p=p, barrier=barrier):
                barrier.wait()
                batcher._resolve(p, "ok", m8="fine")

            def cancel_side(p=p, barrier=barrier):
                barrier.wait()
                batcher.cancel(p)

            threads = [
                threading.Thread(target=resolve_side),
                threading.Thread(target=cancel_side),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(5.0)
            assert p.done.is_set()
        assert len(releases) == 50


# --------------------------------------------------------------------- #
# Bisection + quarantine (fake engine)
# --------------------------------------------------------------------- #


class _PoisonEngine:
    """Raises whenever the batch contains a query named ``bad``."""

    def __init__(self):
        self.batches = []

    def run_batch(self, queries):
        names = [name for name, _ in queries]
        self.batches.append(names)
        if "bad" in names:
            raise RuntimeError("poison in the batch")
        return [f"{name}\thit\n" for name in names]


class TestBisection:
    def _batcher(self, engine, **kw):
        kw.setdefault("max_delay_ms", 20.0)
        kw.setdefault("registry", MetricsRegistry())
        return MicroBatcher(engine, **kw)

    def test_poison_isolated_innocents_answered(self):
        engine = _PoisonEngine()
        registry = MetricsRegistry()
        batcher = self._batcher(engine, registry=registry)
        pendings = [PendingQuery(f"q{i}", f"ACGT{'A' * i}") for i in range(7)]
        pendings.insert(3, PendingQuery("bad", "GGGGCCCC"))
        # Submit before start: everything coalesces into one batch, so
        # the failure must be isolated by bisection, not by luck.
        for p in pendings:
            batcher.submit(p)
        batcher.start()
        try:
            for p in pendings:
                assert p.wait(10.0), p.name
            for p in pendings:
                if p.name == "bad":
                    assert p.status == "poisoned"
                    assert "poison" in p.error
                else:
                    assert p.status == "ok" and p.m8 == f"{p.name}\thit\n"
            assert registry.value("serve.queries_poisoned") == 1
            assert registry.value("serve.batch_bisections") >= 1
            # Bisection is O(log n) re-runs, not O(n).
            assert len(engine.batches) < 2 * len(pendings)
        finally:
            batcher.drain(timeout=5.0)

    def test_quarantine_replays_without_engine_call(self):
        engine = _PoisonEngine()
        registry = MetricsRegistry()
        batcher = self._batcher(engine, registry=registry)
        batcher.start()
        try:
            first = PendingQuery("bad", "GGGGCCCC")
            batcher.submit(first)
            assert first.wait(10.0) and first.status == "poisoned"
            calls = len(engine.batches)
            again = PendingQuery("bad-again", "GGGGCCCC")  # same sequence
            batcher.submit(again)
            assert again.wait(5.0) and again.status == "poisoned"
            assert len(engine.batches) == calls  # answered from quarantine
            assert registry.value("serve.quarantine_hits") == 1
        finally:
            batcher.drain(timeout=5.0)

    def test_transient_failure_does_not_poison(self):
        class Flaky:
            def __init__(self):
                self.calls = 0

            def run_batch(self, queries):
                self.calls += 1
                if self.calls == 1:
                    raise RuntimeError("transient pool trouble")
                return [f"{name}\thit\n" for name, _ in queries]

        registry = MetricsRegistry()
        batcher = self._batcher(Flaky(), registry=registry)
        batcher.start()
        try:
            p = PendingQuery("q", "ACGT")
            batcher.submit(p)
            assert p.wait(10.0)
            assert p.status == "ok"  # the singleton retry rescued it
            assert registry.value("serve.queries_poisoned") == 0
        finally:
            batcher.drain(timeout=5.0)


# --------------------------------------------------------------------- #
# Admission-slot leaks: cancel path + watchdog
# --------------------------------------------------------------------- #


class TestAdmissionLeaks:
    def test_hung_batch_does_not_shed_forever(self):
        """Regression: a wedged batch used to leak its admission slots.

        The daemon's give-up path now cancels, so in_flight returns to
        zero and later queries are admitted -- shedding stays bounded
        instead of hitting 100%.
        """
        registry = MetricsRegistry()
        admission = AdmissionController(
            max_queue=2, registry=registry, check_memory=False
        )
        wedge = threading.Event()

        class Wedged:
            def run_batch(self, queries):
                wedge.wait(30.0)
                return [f"{name}\thit\n" for name, _ in queries]

        batcher = MicroBatcher(
            Wedged(),
            max_delay_ms=0.0,
            registry=registry,
            on_resolved=lambda _p: admission.release(),
        )
        batcher.start()
        try:
            stuck = []
            for i in range(2):
                assert admission.try_admit(4).admitted
                p = PendingQuery(f"q{i}", "ACGT")
                batcher.submit(p)
                stuck.append(p)
            time.sleep(0.1)  # let the batch wedge inside run_batch
            assert admission.in_flight == 2
            assert not admission.try_admit(4).admitted  # full: shed
            # The daemon's _handle_query give-up path:
            for p in stuck:
                batcher.cancel(p)
            assert admission.in_flight == 0
            assert admission.try_admit(4).admitted  # healthy again
            admission.release()
            shed_before = registry.value("serve.requests_shed")
            wedge.set()  # the batch finally completes...
            time.sleep(0.2)
            # ...and its late resolutions must NOT double-release.
            assert admission.in_flight == 0
            assert registry.value("serve.requests_shed") == shed_before
        finally:
            wedge.set()
            batcher.drain(timeout=5.0)

    def test_watchdog_repairs_leaked_slots(self, selfheal_daemon):
        daemon = selfheal_daemon
        # Simulate a leak no code path should produce: slots held with
        # nothing pending anywhere.
        daemon.admission._in_flight = 3
        for _ in range(2):
            daemon._watchdog_check()
        assert daemon.admission.in_flight == 3  # hysteresis: not yet
        daemon._watchdog_check()  # third strike
        assert daemon.admission.in_flight == 0
        assert daemon.registry.value("serve.admission_slots_repaired") == 3

    def test_watchdog_tolerates_legitimate_in_flight(
        self, selfheal_daemon, monkeypatch
    ):
        daemon = selfheal_daemon
        daemon.admission._in_flight = 1
        monkeypatch.setattr(daemon.batcher, "unresolved_count", lambda: 1)
        try:
            for _ in range(5):
                daemon._watchdog_check()
            assert daemon.admission.in_flight == 1  # matched: no repair
        finally:
            daemon.admission._in_flight = 0


# --------------------------------------------------------------------- #
# Undeliverable responses and oversized frames
# --------------------------------------------------------------------- #


class TestTrySend:
    """The one reply sender every frontend uses (daemon and router)."""

    def test_vanished_client_counted(self):
        registry = MetricsRegistry()
        a, b = socket.socketpair()
        b.close()
        try:
            # Two sends: the first may land in the buffer before the
            # reset is observed, the second must fail.
            ok = try_send(a, {"status": "ok"}, registry, "serve")
            ok = ok and try_send(a, {"status": "ok"}, registry, "serve")
            assert not ok
            assert registry.value("serve.responses_undeliverable") == 1
        finally:
            a.close()

    def test_delivered_response_not_counted(self):
        registry = MetricsRegistry()
        a, b = socket.socketpair()
        try:
            assert try_send(a, {"status": "ok"}, registry, "fleet")
            assert recv_frame(b) == {"status": "ok"}
            assert registry.value("fleet.responses_undeliverable") == 0
        finally:
            a.close()
            b.close()

    def test_oversized_response_downgraded(self, monkeypatch):
        monkeypatch.setattr(protocol_mod, "MAX_FRAME_BYTES", 128)
        a, b = socket.socketpair()
        b.settimeout(5.0)
        try:
            assert try_send(a, {"m8": "x" * 4096}, MetricsRegistry(), "serve")
            reply = recv_frame(b)
            assert reply["status"] == "error"
            assert "too large" in reply["error"]
        finally:
            a.close()
            b.close()


class TestFrameCapBothDirections:
    def test_recv_refuses_oversized_announcement(self):
        a, b = socket.socketpair()
        b.settimeout(5.0)
        try:
            a.sendall((protocol_mod.MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            with pytest.raises(protocol_mod.ProtocolError, match="frame too large"):
                recv_frame(b)
        finally:
            a.close()
            b.close()

    def test_send_refuses_oversized_body(self, monkeypatch):
        monkeypatch.setattr(protocol_mod, "MAX_FRAME_BYTES", 64)
        a, b = socket.socketpair()
        try:
            with pytest.raises(protocol_mod.ProtocolError, match="exceeds"):
                send_frame(a, {"m8": "x" * 1024})
        finally:
            a.close()
            b.close()

    def test_daemon_diagnoses_oversized_frame(self, selfheal_daemon):
        """A client announcing a too-large frame gets a structured error
        frame back, not an ECONNRESET."""
        host, port = selfheal_daemon.address
        with socket.create_connection((host, port), timeout=5.0) as sock:
            sock.sendall((protocol_mod.MAX_FRAME_BYTES + 1).to_bytes(4, "big"))
            reply = recv_frame(sock)
            assert reply is not None and reply["status"] == "error"
            assert "frame too large" in reply["error"]


# --------------------------------------------------------------------- #
# Batcher deadline-expiry and submit/drain interleavings
# --------------------------------------------------------------------- #


class _EchoEngine:
    def __init__(self):
        self.batches = []

    def run_batch(self, queries):
        self.batches.append([name for name, _ in queries])
        return [f"{name}\thit\n" for name, _ in queries]


class TestBatcherRaces:
    def test_deadline_expiry_while_filling(self):
        """A query whose deadline passes during FILLING is resolved
        ``timeout`` and never reaches the engine; its co-batched peers
        are unaffected."""
        engine = _EchoEngine()
        batcher = MicroBatcher(engine, max_delay_ms=150.0)
        batcher.start()
        try:
            expired = PendingQuery(
                "expired", "ACGT", deadline=time.monotonic() + 0.02
            )
            live = PendingQuery("live", "ACGT")
            batcher.submit(expired)
            batcher.submit(live)
            assert expired.wait(5.0) and expired.status == "timeout"
            assert live.wait(5.0) and live.status == "ok"
            assert all("expired" not in b for b in engine.batches)
        finally:
            batcher.drain(timeout=5.0)

    def test_try_admit_start_draining_race(self):
        """A query admitted a moment before draining still resolves (as
        ``draining``) and still releases its slot."""
        registry = MetricsRegistry()
        admission = AdmissionController(
            max_queue=8, registry=registry, check_memory=False
        )
        batcher = MicroBatcher(
            _EchoEngine(),
            max_delay_ms=500.0,  # keep the batch FILLING during the race
            registry=registry,
            on_resolved=lambda _p: admission.release(),
        )
        batcher.start()
        assert admission.try_admit(4).admitted
        p = PendingQuery("q", "ACGT")
        admission.start_draining()  # drain flag flips between admit and submit
        batcher.submit(p)
        batcher.drain(timeout=5.0)
        assert p.wait(5.0)
        assert p.status in ("draining", "ok")
        assert admission.in_flight == 0

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        n_queries=st.integers(0, 6),
        drain_after=st.integers(0, 6),
        expired_mask=st.integers(0, 63),
    )
    def test_interleaving_sweep_resolves_everything(
        self, n_queries, drain_after, expired_mask
    ):
        """Whatever the submit/drain interleaving, every admitted query
        resolves and every admission slot is released."""
        registry = MetricsRegistry()
        admission = AdmissionController(
            max_queue=16, registry=registry, check_memory=False
        )
        batcher = MicroBatcher(
            _EchoEngine(),
            max_delay_ms=1.0,
            registry=registry,
            on_resolved=lambda _p: admission.release(),
        )
        batcher.start()
        pendings = []
        for i in range(n_queries):
            if i == drain_after:
                batcher.drain(timeout=5.0)
            assert admission.try_admit(4).admitted
            deadline = (
                time.monotonic() - 1.0 if expired_mask & (1 << i) else None
            )
            p = PendingQuery(f"q{i}", "ACGT", deadline=deadline)
            batcher.submit(p)
            pendings.append(p)
        batcher.drain(timeout=5.0)
        for p in pendings:
            assert p.wait(5.0), p.name
            assert p.status in ("ok", "timeout", "draining")
        assert admission.in_flight == 0


# --------------------------------------------------------------------- #
# Real worker pool: respawn, replacement, hang recovery
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def selfheal_corpus():
    rng = np.random.default_rng(20260807)
    subjects = [random_dna(rng, 500) for _ in range(3)]
    bank2 = Bank.from_strings([(f"s{i}", x) for i, x in enumerate(subjects)])
    queries = [
        ("q0", subjects[0][50:250]),
        ("q1", subjects[1][100:300]),
    ]
    return bank2, queries


class TestPoolSelfHealing:
    def test_killed_worker_respawned_with_metrics(self, selfheal_corpus):
        bank2, queries = selfheal_corpus
        engine = BatchEngine(bank2, OrisParams(), n_workers=2)
        try:
            before = engine.run_batch(queries)
            victim = engine.pool._workers[0]
            os.kill(victim.proc.pid, signal.SIGKILL)
            victim.proc.join(5.0)
            after = engine.run_batch(queries)
            assert after == before
            assert engine.pool.respawns >= 1
            assert engine.registry.value("pool.respawns") >= 1
            health = engine.pool.health()
            assert health["ok"] and health["alive"] == 2
        finally:
            engine.close()

    def test_crash_storm_replaces_pool_then_recovers(self, selfheal_corpus):
        """worker.crash at p=1.0 trips PoolUnhealthy; the engine swaps
        the pool and, once the fault clears, the next batch succeeds."""
        bank2, queries = selfheal_corpus
        faults.arm("worker.crash:1:0")
        engine = BatchEngine(bank2, OrisParams(), n_workers=2)
        # One failure is enough evidence for this test; the default
        # budget (2n+2) would just take longer to trip.
        engine.config = dataclasses.replace(engine.config, max_pool_failures=0)
        try:
            with pytest.raises(PoolUnhealthy):
                engine.run_batch(queries)
            assert engine.pool.replacements == 1
            assert engine.registry.value("pool.replacements") == 1
            faults.disarm()  # replacement workers fork disarmed state
            healed = engine.run_batch(queries)
            for (name, seq), got in zip(queries, healed):
                assert got == _single_shot(OrisParams(), name, seq, bank2)
        finally:
            engine.close()

    def test_hung_worker_recovers_via_task_timeout(self, selfheal_corpus):
        """worker.hang wedges the first task of each worker; the per-task
        deadline kills and requeues until the in-parent quarantine
        answers -- the batch still returns correct results."""
        bank2, queries = selfheal_corpus
        faults.arm("worker.hang:1:0")
        engine = BatchEngine(
            bank2,
            OrisParams(),
            n_workers=2,
            tasks_per_worker=1,
            task_timeout=0.3,
        )
        # Two tasks x (max_retries + 1) timeouts lands exactly on the
        # default budget; raise it so this test exercises the timeout ->
        # quarantine path, not PoolUnhealthy.
        engine.config = dataclasses.replace(engine.config, max_pool_failures=50)
        try:
            out = engine.run_batch(queries)
            for (name, seq), got in zip(queries, out):
                assert got == _single_shot(OrisParams(), name, seq, bank2)
            assert engine.registry.value("scheduler.timeouts") >= 1
        finally:
            engine.close()


# --------------------------------------------------------------------- #
# Daemon end-to-end: poison via fault point, health, client retries
# --------------------------------------------------------------------- #


@pytest.fixture
def selfheal_daemon(est_pair):
    d = OrisDaemon(
        est_pair[1],
        OrisParams(),
        ServeConfig(n_workers=1, check_memory=False, max_delay_ms=10.0),
    )
    d.start()
    yield d
    d.shutdown()


class TestDaemonSelfHeal:
    def _query_text(self, est_pair, i=0):
        bank1 = est_pair[0]
        lo, hi = bank1.bounds(i)
        return bank1.names[i], "".join(
            "ACGT"[c] if c < 4 else "N" for c in bank1.seq[lo:hi]
        )

    def test_health_reports_components(self, selfheal_daemon):
        host, port = selfheal_daemon.address
        with OrisClient(host, port) as client:
            health = client.health()
        assert health["healthy"] is True
        components = health["components"]
        assert set(components) >= {"pool", "arena", "batcher", "admission"}
        assert all(c["ok"] for c in components.values())
        assert components["admission"]["in_flight"] == 0
        assert components["batcher"]["quarantined"] == 0

    def test_poison_query_fault_point_end_to_end(
        self, selfheal_daemon, est_pair
    ):
        """serve.poison_query poisons the marked query, innocents answer
        byte-identically, and the daemon stays healthy."""
        faults.arm("serve.poison_query:1:0:POISONQ")
        host, port = selfheal_daemon.address
        name, seq = self._query_text(est_pair)
        results = {}
        errors = {}

        def go(qname, qseq):
            try:
                with OrisClient(host, port) as client:
                    results[qname] = client.query(qname, qseq)
            except Exception as exc:  # noqa: BLE001 - asserted below
                errors[qname] = exc

        jobs = [(name, seq), ("POISONQ_bad", seq), ("innocent", seq)]
        threads = [threading.Thread(target=go, args=j) for j in jobs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30.0)
        assert isinstance(errors.pop("POISONQ_bad", None), QueryPoisoned)
        assert not errors
        expected = _single_shot(OrisParams(), name, seq, est_pair[1])
        assert results[name] == expected
        with OrisClient(host, port) as client:
            health = client.health()
        assert health["healthy"] is True
        assert health["components"]["batcher"]["quarantined"] >= 1
        assert selfheal_daemon.admission.in_flight == 0

    def test_client_retries_shed_with_hint(self, selfheal_daemon, est_pair):
        """A shed response with retry_after_ms is retried and succeeds
        once the slot frees."""
        daemon = selfheal_daemon
        daemon.admission.max_queue = 1
        daemon.admission._in_flight = 1  # wedge the only slot
        host, port = daemon.address
        name, seq = self._query_text(est_pair)

        def free_slot():
            time.sleep(0.15)
            daemon.admission._in_flight = 0

        try:
            freer = threading.Thread(target=free_slot)
            freer.start()
            with OrisClient(host, port, retries=5) as client:
                got = client.query(name, seq)
            freer.join(5.0)
            assert got == _single_shot(OrisParams(), name, seq, est_pair[1])
            assert client.retries_used >= 1
        finally:
            daemon.admission.max_queue = 64
            daemon.admission._in_flight = 0

    def test_client_reconnects_after_reset(self, selfheal_daemon, est_pair):
        host, port = selfheal_daemon.address
        name, seq = self._query_text(est_pair)
        client = OrisClient(host, port, retries=3)
        try:
            client.connect()
            # Wreck the socket but leave it attached: the next send hits
            # EBADF, and the retry path must reconnect transparently.
            client._sock.close()
            assert client.query(name, seq) == _single_shot(
                OrisParams(), name, seq, est_pair[1]
            )
            assert client.retries_used >= 1
        finally:
            client.close()

    def test_client_never_retries_draining(self, selfheal_daemon, est_pair):
        from repro.serve import ServerDraining

        daemon = selfheal_daemon
        daemon.admission.start_draining()
        host, port = daemon.address
        name, seq = self._query_text(est_pair)
        with OrisClient(host, port, retries=3) as client:
            with pytest.raises(ServerDraining):
                client.query(name, seq)
            assert client.retries_used == 0
