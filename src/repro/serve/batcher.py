"""Micro-batcher: coalesce in-flight queries into one comparison.

Per-query overhead in ORIS is front-loaded -- building the ephemeral
query-side index, planning ranges, shipping a payload -- while the
extension kernels are throughput machines that prefer large batches.
The batcher exploits that: connection threads :meth:`submit` pending
queries; a single batcher thread collects everything that arrives
within ``max_delay_ms`` of the first pending query (or until
``max_batch_nt`` residues accumulate) and runs **one**
:meth:`~repro.serve.engine.BatchEngine.run_batch` for the lot.

State machine of the batcher thread::

            +--------- IDLE  (wait: queue non-empty or drain)
            |            |
            |            v  first query arrives -> deadline = now + delay
            |         FILLING (wait: deadline, max_batch_nt, or drain)
            |            |
            |            v  snapshot buffer
            +-------- RUNNING (one run_batch; responses resolved)

Drain semantics (SIGTERM): a batch that is RUNNING completes and its
responses are delivered; queries still FILLING (or submitted after the
drain began) are resolved with a ``draining`` rejection.  That is the
contract the CI smoke test kills the daemon to verify.

Failure isolation: a batch that raises is **bisected**, not failed
wholesale.  The batching-equivalence property (every query's answer is
byte-identical however it is co-batched) makes re-running halves
semantically free, so a single *poison query* -- one that reliably
crashes the pool or trips an engine error -- is narrowed down in
O(log n) re-runs, answered ``poisoned`` with the runtime's error
taxonomy, and remembered in a bounded quarantine so a retrying client
cannot grind the pool down again.  Innocent co-batched queries get
their real answers from the half re-runs.

Latency/size observations land in the shared registry
(``serve.batch_size``, ``serve.batch_residues``,
``serve.batch_latency_seconds`` histograms -- recorded by the engine --
and ``serve.request_wait_seconds`` here).
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from ..obs import MetricsRegistry
from ..runtime.errors import classify
from ..runtime.governor import release_free_heap

__all__ = ["MicroBatcher", "PendingQuery"]


@dataclass
class PendingQuery:
    """One admitted query waiting for (or carrying) its response."""

    name: str
    sequence: str
    deadline: float | None = None  # monotonic; None = no deadline
    submitted_at: float = field(default_factory=time.monotonic)
    done: threading.Event = field(default_factory=threading.Event)
    status: str = "pending"  # "ok" | "error" | "draining" | "timeout" | "poisoned"
    m8: str = ""
    error: str = ""
    kind: str = ""  # taxonomy bucket when status == "poisoned"
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def resolve(
        self, status: str, m8: str = "", error: str = "", kind: str = ""
    ) -> bool:
        """Set the outcome; True only for the *first* resolution.

        Idempotent by design: the daemon's cancel path (a connection
        thread giving up) can race the batcher resolving the same query,
        and exactly one of them must win -- and trigger the
        ``on_resolved`` admission release -- or slots leak or
        double-release.
        """
        with self._lock:
            if self.done.is_set():
                return False
            self.status = status
            self.m8 = m8
            self.error = error
            self.kind = kind
            self.done.set()
            return True

    def wait(self, timeout: float | None = None) -> bool:
        return self.done.wait(timeout)


class MicroBatcher:
    """Single background thread turning pending queries into batches."""

    #: Quarantined poison sequences remembered (newest win; bounded so a
    #: hostile client cannot grow daemon memory by mutating sequences).
    QUARANTINE_MAX = 256

    def __init__(
        self,
        engine,
        max_delay_ms: float = 25.0,
        max_batch_nt: int = 2_000_000,
        max_batch_queries: int = 64,
        registry: MetricsRegistry | None = None,
        on_resolved=None,
    ):
        if max_delay_ms < 0:
            raise ValueError("max_delay_ms must be >= 0")
        if max_batch_nt < 1 or max_batch_queries < 1:
            raise ValueError("batch caps must be >= 1")
        self.engine = engine
        self.max_delay = max_delay_ms / 1000.0
        self.max_batch_nt = max_batch_nt
        self.max_batch_queries = max_batch_queries
        self.registry = registry if registry is not None else MetricsRegistry()
        #: Called once per resolved query (the daemon releases admission
        #: slots here); must be cheap and exception-free.
        self.on_resolved = on_resolved
        self._buffer: list[PendingQuery] = []
        self._running: list[PendingQuery] = []
        self._quarantined: OrderedDict[str, tuple[str, str]] = OrderedDict()
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._draining = False
        self._stopped = False
        self._thread = threading.Thread(
            target=self._run, name="oris-batcher", daemon=True
        )

    # ------------------------------------------------------------------ #
    # Producer side (connection threads, daemon shutdown)
    # ------------------------------------------------------------------ #

    def start(self) -> None:
        self._thread.start()

    def submit(self, pending: PendingQuery) -> None:
        """Queue one admitted query for the next batch."""
        quarantined = self._quarantine_lookup(pending.sequence)
        if quarantined is not None:
            # A known poison sequence never reaches the pool again: the
            # remembered verdict is replayed without burning a batch.
            error, kind = quarantined
            self.registry.inc("serve.quarantine_hits")
            self.registry.inc("serve.requests_failed")
            self._resolve(pending, "poisoned", error=error, kind=kind)
            return
        with self._wake:
            if self._draining:
                # Admission normally refuses first; this closes the race
                # between an admit and the drain flag flipping.
                self._resolve(pending, "draining", error="daemon is draining")
                return
            self._buffer.append(pending)
            self._wake.notify()

    def cancel(self, pending: PendingQuery) -> bool:
        """Give up on one submitted query (connection-side timeout).

        Resolves it ``timeout`` -- releasing its admission slot through
        ``on_resolved`` -- unless the batcher got there first.  A query
        whose batch is RUNNING cannot be pulled back from the pool; it
        is resolved anyway (the eventual batch answer finds the pending
        already done and is dropped), which is what keeps a wedged batch
        from leaking admission slots.
        """
        with self._lock:
            if pending in self._buffer:
                self._buffer.remove(pending)
        return self._resolve(
            pending, "timeout", error="request timed out awaiting its batch"
        )

    def drain(self, timeout: float = 30.0) -> None:
        """Stop batching: reject the buffer, finish the running batch.

        Returns once the batcher thread has exited (or *timeout* passed).
        In-flight work -- a batch already RUNNING -- completes and its
        responses are delivered; everything still buffered is resolved
        with ``draining``.
        """
        with self._wake:
            self._draining = True
            self._wake.notify()
        self._thread.join(timeout)

    # ------------------------------------------------------------------ #
    # The batcher thread
    # ------------------------------------------------------------------ #

    def unresolved_count(self) -> int:
        """Queries submitted and not yet resolved (buffered or running).

        The daemon's watchdog compares this against the admission
        controller's ``in_flight`` to detect slot leaks.
        """
        with self._lock:
            pendings = list(self._buffer) + list(self._running)
        return sum(1 for p in pendings if not p.done.is_set())

    # ------------------------------------------------------------------ #
    # Quarantine
    # ------------------------------------------------------------------ #

    @staticmethod
    def _quarantine_key(sequence: str) -> str:
        return hashlib.sha1(sequence.encode("utf-8")).hexdigest()

    def _quarantine_lookup(self, sequence: str) -> tuple[str, str] | None:
        with self._lock:
            return self._quarantined.get(self._quarantine_key(sequence))

    def _quarantine(self, pending: PendingQuery, exc: BaseException) -> None:
        kind = classify(exc)
        error = f"query poisoned its batch ({kind}): {exc!r}"
        with self._lock:
            self._quarantined[self._quarantine_key(pending.sequence)] = (
                error,
                kind,
            )
            while len(self._quarantined) > self.QUARANTINE_MAX:
                self._quarantined.popitem(last=False)
        self.registry.inc("serve.queries_poisoned")
        self.registry.inc("serve.requests_failed")
        self._resolve(pending, "poisoned", error=error, kind=kind)

    def _resolve(
        self,
        pending: PendingQuery,
        status: str,
        m8: str = "",
        error: str = "",
        kind: str = "",
    ) -> bool:
        if not pending.resolve(status, m8=m8, error=error, kind=kind):
            return False
        if self.on_resolved is not None:
            self.on_resolved(pending)
        return True

    def _take_batch(self) -> list[PendingQuery] | None:
        """Block until a batch is ready; ``None`` means shut down."""
        with self._wake:
            while not self._buffer and not self._draining:
                self._wake.wait()
            if self._draining:
                for pending in self._buffer:
                    self._resolve(pending, "draining", error="daemon is draining")
                self._buffer.clear()
                return None
            deadline = time.monotonic() + self.max_delay
            while True:
                nt = sum(len(p.sequence) for p in self._buffer)
                if (
                    self._draining
                    or nt >= self.max_batch_nt
                    or len(self._buffer) >= self.max_batch_queries
                ):
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._wake.wait(remaining)
            batch = self._buffer[: self.max_batch_queries]
            del self._buffer[: self.max_batch_queries]
            # Published under the lock: the watchdog's unresolved count
            # must never miss queries in the buffer->running handoff.
            self._running = batch
            return batch

    def _run(self) -> None:
        while True:
            batch = self._take_batch()
            if batch is None:
                self._stopped = True
                return
            now = time.monotonic()
            live: list[PendingQuery] = []
            for pending in batch:
                if pending.deadline is not None and now > pending.deadline:
                    self.registry.inc("serve.requests_failed")
                    self._resolve(
                        pending,
                        "timeout",
                        error="request deadline expired before batching",
                    )
                else:
                    self.registry.observe(
                        "serve.request_wait_seconds", now - pending.submitted_at
                    )
                    live.append(pending)
            if live:
                self._execute(live)
                # The batch's answers are out; hand its freed heap back
                # so the daemon's RSS tracks its live set.
                release_free_heap()
            with self._lock:
                self._running = []

    def _execute(self, batch: list[PendingQuery]) -> None:
        """Run one batch; on failure, bisect to isolate the poison query.

        Batching equivalence (the engine's per-query demux is byte-exact
        however queries are co-batched) means a half re-run returns the
        *same* answers the whole batch would have -- so innocents get
        real results while the failing subset narrows.  A singleton that
        fails is retried once (a worker crash is not the query's fault),
        then quarantined as poisoned.
        """
        live = [p for p in batch if not p.done.is_set()]
        if not live:
            return
        try:
            slices = self.engine.run_batch([(p.name, p.sequence) for p in live])
        except Exception as exc:  # noqa: BLE001 - isolate, never crash the thread
            if len(live) > 1:
                self.registry.inc("serve.batch_bisections")
                mid = len(live) // 2
                self._execute(live[:mid])
                self._execute(live[mid:])
                return
            pending = live[0]
            try:
                # One retry before the verdict: transient pool trouble
                # (a crash storm, an arena race) must not convict an
                # innocent query.
                slices = self.engine.run_batch([(pending.name, pending.sequence)])
            except Exception as exc2:  # noqa: BLE001
                self._quarantine(pending, exc2)
                return
        for pending, m8 in zip(live, slices):
            self._resolve(pending, "ok", m8=m8)
