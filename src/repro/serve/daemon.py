"""The resident ORIS query daemon.

Process lifetime inverts the batch CLI: the subject bank is loaded and
indexed **once** (an O(1) mmap when an index cache is warm), the
subject-side worker arrays are published into shared memory **once**,
the step-2 worker pool is spawned **once** -- and then the process
answers queries until SIGTERM.

Threading model: the socket side -- main thread, acceptor thread, one
connection thread per client, the request check and admission -- is
the :class:`~repro.serve.frontend.SocketFrontend` the fleet router runs
too.  The daemon adds one **batcher thread**
(:class:`~repro.serve.batcher.MicroBatcher`) that turns pending queries
into :meth:`BatchEngine.run_batch` calls; a connection thread submits
its query and blocks on the answer.  The main loop's tick cross-checks
admission slots against the batcher (:meth:`OrisDaemon._watchdog_check`).

Graceful drain (SIGTERM/SIGINT): admission flips to ``draining`` (new
queries are refused with a clean status), the batch in flight completes
and its responses are delivered, buffered-but-unstarted queries are
rejected, the worker pool and subject arena are torn down, and the
process exits 0.  The CI smoke test kills the daemon mid-stream to
assert exactly this sequence.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from ..core.params import OrisParams
from ..io.bank import Bank
from ..obs import MetricsRegistry, ObsSpec, span
from ..runtime.scheduler import ShutdownRequest
from .batcher import MicroBatcher, PendingQuery
from .engine import BatchEngine
from .frontend import FrontendConfig, SocketFrontend

__all__ = ["OrisDaemon", "ServeConfig"]


@dataclass(frozen=True, kw_only=True)
class ServeConfig(FrontendConfig):
    """Service knobs (the CLI ``serve`` subcommand maps onto these).

    The bind address, admission caps, timeouts and ``retry_after_ms``
    are the :class:`~repro.serve.frontend.FrontendConfig` fields.
    """

    n_workers: int = 1
    start_method: str | None = None
    max_delay_ms: float = 25.0
    max_batch_nt: int = 2_000_000
    max_batch_queries: int = 64
    use_shm: bool = True
    check_memory: bool = True
    #: Segment-store maintenance policy (only daemons started with a
    #: store mutate): the delta is flushed into an immutable segment
    #: once it holds this many nucleotides...
    store_flush_nt: int = 8_000_000
    #: ...and the store is compacted to one segment when flushing has
    #: accumulated more than this many.
    store_max_segments: int = 8

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.max_delay_ms >= 0:
            raise ValueError("max_delay_ms must be >= 0")
        if self.max_batch_nt < 1 or self.max_batch_queries < 1:
            raise ValueError("batch caps must be >= 1")


class OrisDaemon(SocketFrontend):
    """A warm-index ORIS service bound to one subject bank."""

    admin_ops = ("add_sequences", "remove_sequences", "reindex")

    def __init__(
        self,
        bank2: Bank | None = None,
        params: OrisParams | None = None,
        config: ServeConfig | None = None,
        index_cache=None,
        registry: MetricsRegistry | None = None,
        obs: ObsSpec | None = None,
        stop: ShutdownRequest | None = None,
        store=None,
        fleet_profile=None,
    ):
        config = config or ServeConfig()
        super().__init__(
            config, registry, stop, check_memory=config.check_memory
        )
        self.engine = BatchEngine(
            bank2,
            params,
            n_workers=config.n_workers,
            start_method=config.start_method,
            index_cache=index_cache,
            use_shm=config.use_shm,
            registry=self.registry,
            obs=obs,
            # Bound every range task by the request deadline: a hung
            # worker (or a wedged kernel) must surface as a recoverable
            # task timeout, never as a daemon that stops answering.
            task_timeout=config.request_timeout_s,
            store=store,
            store_flush_nt=config.store_flush_nt,
            store_max_segments=config.store_max_segments,
            fleet_profile=fleet_profile,
        )
        self.batcher = MicroBatcher(
            self.engine,
            max_delay_ms=config.max_delay_ms,
            max_batch_nt=config.max_batch_nt,
            max_batch_queries=config.max_batch_queries,
            registry=self.registry,
            on_resolved=lambda _pending: self.admission.release(),
        )
        self._watchdog_strikes = 0

    def ready_message(self) -> str:
        host, port = self.address
        return f"SERVE READY host={host} port={port}"

    def _start_backend(self) -> None:
        self.batcher.start()

    def _drain_in_flight(self) -> None:
        # The running batch completes; the buffer gets clean rejections.
        self.batcher.drain(timeout=self.config.drain_timeout_s)

    def _close(self) -> None:
        # The warm state: pool workers, subject arena.
        self.engine.close()

    def _tick(self) -> None:
        self._watchdog_check()

    def _watchdog_check(self) -> None:
        """Repair admission-slot leaks the invariant cannot rule out.

        The invariant: every admitted query is eventually resolved, and
        every resolution releases exactly one slot.  A bug anywhere in
        that chain wedges the daemon into shedding everything forever --
        so the main loop cross-checks ``in_flight`` against the
        batcher's unresolved count each tick and, after three
        *consecutive* mismatched ticks (hysteresis: a query legitimately
        sits between ``try_admit`` and ``submit`` for a moment),
        reconciles the counter and counts the repair.
        """
        in_flight = self.admission.in_flight
        unresolved = self.batcher.unresolved_count()
        if in_flight <= unresolved:
            self._watchdog_strikes = 0
            return
        self._watchdog_strikes += 1
        if self._watchdog_strikes < 3:
            return
        leaked = in_flight - self.batcher.unresolved_count()
        if leaked > 0:
            self.registry.inc("serve.admission_slots_repaired", leaked)
            for _ in range(leaked):
                self.admission.release()
        self._watchdog_strikes = 0

    # ------------------------------------------------------------------ #
    # Request handling
    # ------------------------------------------------------------------ #

    def _handle_admin(self, kind: str, request: dict) -> dict:
        """Bank mutation ops: validate, mutate durably, swap, report.

        The swap is zero-downtime by construction (see
        :meth:`BatchEngine._swap_subject`): queries are never refused or
        blocked while a mutation runs; a draining daemon refuses
        mutations the same way it refuses queries.
        """
        if self.admission.draining:
            return {"status": "draining", "reason": "daemon is shutting down"}
        try:
            if kind == "add_sequences":
                raw = request.get("records")
                if not isinstance(raw, list) or not raw:
                    raise ValueError(
                        "add_sequences needs a non-empty 'records' list of "
                        "[name, sequence] pairs"
                    )
                records: list[tuple[str, str]] = []
                for item in raw:
                    if not isinstance(item, (list, tuple)) or len(item) != 2:
                        raise ValueError(
                            "each record must be a [name, sequence] pair"
                        )
                    records.append((item[0], item[1]))
                result = self.engine.add_sequences(records)
            elif kind == "remove_sequences":
                names = request.get("names")
                if not isinstance(names, list) or not names or not all(
                    isinstance(n, str) for n in names
                ):
                    raise ValueError(
                        "remove_sequences needs a non-empty 'names' list "
                        "of strings"
                    )
                result = self.engine.remove_sequences(names)
            else:
                result = self.engine.reindex()
        except ValueError as exc:
            self.registry.inc("serve.admin_rejected")
            return {"status": "error", "error": str(exc)}
        self.registry.inc("serve.admin_ops")
        return {"status": "ok", **result}

    def _health_components(self) -> dict:
        """``pool`` (worker liveness, respawn/replacement counts),
        ``arena`` (the published subject shared memory) and ``batcher``
        (thread alive, unresolved queries, quarantine size); the
        frontend adds ``admission``.  The chaos smoke's end-of-soak
        assertion is their conjunction."""
        batcher_ok = self.batcher._thread.is_alive() and not self.batcher._stopped
        return {
            **self.engine.health(),
            "batcher": {
                "ok": batcher_ok,
                "unresolved": self.batcher.unresolved_count(),
                "quarantined": len(self.batcher._quarantined),
            },
        }

    def _answer_query(
        self, name: str, sequence: str, timeout_s: float, request: dict
    ) -> dict:
        # The batcher's resolution releases the admission slot.
        pending = PendingQuery(
            name=name,
            sequence=sequence,
            deadline=time.monotonic() + timeout_s,
        )
        with span("serve.request", query=name, nt=len(sequence)):
            self.batcher.submit(pending)
            # The batcher always resolves (ok/error/draining/timeout/
            # poisoned); the extra grace covers a batch that started just
            # under the wire.
            if not pending.wait(timeout_s + self.config.drain_timeout_s + 5.0):
                # Giving up MUST cancel: the pending's eventual resolution
                # would otherwise release an admission slot nobody holds
                # -- and if it never resolves (a wedged batch), the slot
                # would leak and the daemon would shed forever.  cancel()
                # resolves it idempotently, so exactly one release fires
                # whether we or the batcher get there first.
                self.batcher.cancel(pending)
                self.registry.inc("serve.requests_failed")
                return {
                    "status": "timeout",
                    "error": "request timed out awaiting its batch",
                }
        if pending.status == "ok":
            return {"status": "ok", "m8": pending.m8}
        if pending.status == "draining":
            return {"status": "draining", "reason": pending.error}
        self.registry.inc("serve.requests_failed")
        response = {"status": pending.status, "error": pending.error}
        if pending.kind:
            response["kind"] = pending.kind
        return response
