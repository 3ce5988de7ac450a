"""Fault-tolerant scheduler for step-2 range tasks.

The paper's ordered-seed cutoff makes every HSP the product of exactly
one seed, hence of exactly one contiguous seed-code range.  Range tasks
are therefore *idempotent, restartable units of work*: running one twice
produces the same HSPs, and no other task can produce them.  This module
exploits that property to make long bank-vs-bank comparisons survivable:

* the common-code list is split into many small range tasks
  (up to ``tasks_per_worker`` x ``n_workers``, pair-cost balanced via
  :func:`~repro.core.parallel.plan_ranges`);
* tasks run on worker *processes* the scheduler leases from a
  :class:`WorkerPool` and supervises directly, each over its own duplex
  pipe (no shared queue: a worker
  dying mid-write can only tear its *own* channel, never deadlock the
  others behind a shared feeder lock), so a dead worker is detected by
  ``Process.is_alive`` / end-of-pipe and a hung one by its per-task
  deadline;
* failed tasks are requeued with bounded exponential backoff; a task
  that keeps failing is *quarantined*: retried once in the parent, and
  if even that fails, dropped from the result with a warning (one
  pathological seed range degrades the output instead of aborting the
  whole run);
* too many worker failures mark the pool unhealthy and the scheduler
  degrades to in-parent serial execution of whatever remains;
* every completed task can be journalled to a
  :class:`~repro.runtime.checkpoint.CheckpointJournal`, so a killed run
  resumes from the last completed range;
* every task execution -- in a worker, in the serial loop, in
  quarantine -- passes one fault hook (:func:`_run_task`), keyed by task
  and attempt (see :mod:`repro.runtime.faults`).

:func:`run_step2` is the one step-2 fan-out (publish the payload, run
the tasks, tear down, merge); :func:`compare_resilient` and the serve
batch engine both call it.  :func:`compare_resilient` wraps the whole
pipeline: steps 1, 3 and 4 in the parent (identical to the plain
engine), step 2 through :func:`run_step2`.
"""

from __future__ import annotations

import heapq
import itertools
import multiprocessing as mp
import signal as _signal
import threading
import time
import warnings
import zlib
from contextlib import contextmanager
from multiprocessing.connection import wait as _conn_wait
from dataclasses import dataclass

from ..align.evalue import karlin_params
from ..align.hsp import HSPTable
from ..core.engine import ComparisonResult, OrisEngine, StepTimings, WorkCounters
from ..core.parallel import (
    RangePayload,
    RangeResult,
    ShmRangePayload,
    build_range_payload,
    merge_range_results,
    plan_ranges,
    publish_range_payload,
    resolve_start_method,
    run_range,
)
from ..core.params import OrisParams
from ..io.bank import Bank
from ..obs import MetricsRegistry, ObsSpec, span
from . import faults
from .checkpoint import CheckpointJournal
from .errors import PoolUnhealthy, ResourceExhausted, RunInterrupted, TaskPoisoned
from .shm import detach_block

__all__ = [
    "RuntimeConfig",
    "TaskScheduler",
    "WorkerPool",
    "ShutdownRequest",
    "signal_shutdown",
    "compare_resilient",
    "run_step2",
]


class ShutdownRequest(threading.Event):
    """A stop flag that remembers which signal (if any) raised it.

    The scheduler polls :meth:`is_set` once per event-loop iteration and,
    when set, stops dispatching, drains in-flight tasks into the journal,
    and raises :class:`~repro.runtime.errors.RunInterrupted`.
    """

    def __init__(self) -> None:
        super().__init__()
        self.signum: int | None = None

    def trip(self, signum: int | None = None) -> None:
        """Request shutdown (records the triggering signal first)."""
        self.signum = signum
        self.set()


@contextmanager
def signal_shutdown(
    stop: ShutdownRequest,
    signals: tuple[int, ...] = (_signal.SIGTERM, _signal.SIGINT),
):
    """Route termination signals into *stop* for the ``with`` body.

    A second delivery of the same signal falls through to the previous
    (usually default) handler, so a stuck drain can still be killed the
    ordinary way.  Handlers can only be installed from the main thread;
    elsewhere this is a no-op and the caller keeps Python's defaults.
    """
    if threading.current_thread() is not threading.main_thread():
        yield stop
        return
    previous: dict[int, object] = {}

    def handler(signum, frame):  # noqa: ARG001 - signal API
        if stop.is_set():
            # Second signal: restore and re-raise for an immediate exit.
            for sig, old in previous.items():
                _signal.signal(sig, old)  # type: ignore[arg-type]
            _signal.raise_signal(signum)
            return
        stop.trip(signum)

    try:
        for sig in signals:
            previous[sig] = _signal.signal(sig, handler)
        yield stop
    finally:
        for sig, old in previous.items():
            _signal.signal(sig, old)  # type: ignore[arg-type]


@dataclass(frozen=True)
class RuntimeConfig:
    """Knobs of the resilient runtime.

    Attributes
    ----------
    n_workers:
        Worker processes for step 2 (1 = in-parent serial execution,
        which still supports checkpoint/resume).
    tasks_per_worker:
        Granularity multiplier: the code list is split into (at most)
        ``n_workers * tasks_per_worker`` range tasks.  More tasks mean
        finer checkpoints, cheaper retries, and better straggler
        self-balancing, at slightly more dispatch overhead.
    use_shm:
        Publish the worker payload into a shared-memory arena so workers
        attach zero-copy views instead of unpickling bank copies.
        Degrades automatically (with a warning) when the arena cannot be
        created.
    task_timeout:
        Per-task deadline in seconds (``None`` disables timeouts).  A
        task past its deadline has its worker killed and is requeued.
    max_retries:
        Re-executions allowed per task before it is quarantined.
    backoff_base / backoff_cap:
        Exponential-backoff delay before a failed task becomes eligible
        again: ``min(base * 2**(failures-1), cap)`` seconds.
    max_pool_failures:
        Worker crashes/timeouts tolerated before the pool is declared
        unhealthy and the run degrades to in-parent execution
        (default: ``2 * n_workers + 2``).
    checkpoint_dir:
        Directory for the checkpoint journal (``None`` = no journal).
    resume:
        Load previously completed tasks from ``checkpoint_dir`` instead
        of recomputing them.  Requires a matching run fingerprint.
    start_method:
        Multiprocessing start method override (tests use ``"spawn"``).
    strict:
        Raise :class:`TaskPoisoned` instead of dropping a poisoned task.
    poll_interval:
        Scheduler event-loop granularity in seconds.
    drain_timeout:
        On SIGTERM/SIGINT: seconds to wait for in-flight tasks to finish
        (and reach the journal) before workers are stopped anyway.

    Faults come from the :mod:`repro.runtime.faults` registry
    (``SCORIS_FAULTS``): ``task.error`` and the ``worker.*`` points fire
    at the scheduler's task hook, keyed by task id and attempt.
    """

    n_workers: int = 2
    tasks_per_worker: int = 12
    use_shm: bool = True
    task_timeout: float | None = None
    max_retries: int = 2
    backoff_base: float = 0.05
    backoff_cap: float = 2.0
    max_pool_failures: int | None = None
    checkpoint_dir: str | None = None
    resume: bool = False
    start_method: str | None = None
    strict: bool = False
    poll_interval: float = 0.02
    drain_timeout: float = 10.0

    def __post_init__(self) -> None:
        if self.n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if self.tasks_per_worker < 1:
            raise ValueError("tasks_per_worker must be >= 1")
        if self.max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        if self.task_timeout is not None and self.task_timeout <= 0:
            raise ValueError("task_timeout must be positive or None")
        if self.resume and not self.checkpoint_dir:
            raise ValueError("resume requires a checkpoint_dir")

    @property
    def pool_failure_budget(self) -> int:
        if self.max_pool_failures is not None:
            return self.max_pool_failures
        return 2 * self.n_workers + 2


def _payload_blocks(payload: RangePayload | ShmRangePayload) -> set[str]:
    """Shared-memory block names a worker payload maps (empty when none)."""
    if isinstance(payload, ShmRangePayload):
        return set(getattr(payload.spec, "blocks", ()))
    return set()


#: Fault points that take a worker process down; they never fire in the
#: parent, so the supervisor and its quarantine path stay reliable and
#: chaos runs measure recovery, not self-inflicted supervisor damage.
_WORKER_FAULTS = ("worker.crash", "worker.oom", "worker.hang")


def _run_task(
    payload: RangePayload | ShmRangePayload,
    task_id: int,
    attempt: int,
    lo: int,
    hi: int,
    in_worker: bool = False,
) -> RangeResult:
    """Run one range task through the scheduler's single fault hook.

    Every execution passes here: the worker loop (``in_worker=True``),
    the in-parent serial loop, and quarantine.  ``attempt`` counts the
    task's earlier failures, so a ``match`` token on
    :func:`~repro.runtime.faults.task_key` can target one attempt.
    """
    if faults.armed():
        key = faults.task_key(task_id, attempt)
        if in_worker:
            for point in _WORKER_FAULTS:
                if faults.should_fire(point, key):
                    faults.inject(point)
        if faults.should_fire("task.error", key):
            raise RuntimeError(f"fault injection: task.error on {key}")
    return run_range(payload, lo, hi)


def _scheduler_worker(payload: RangePayload | ShmRangePayload, conn) -> None:
    """Worker loop: recv (task_id, attempt, lo, hi), run it, send the outcome.

    Sends ``(task_id, "ok", result)`` or ``(task_id, "error", repr)``
    back over its own pipe; a hard crash (``os._exit``, signal) sends
    nothing — the parent sees a dead process / end-of-pipe.  The pipe is
    private to this worker, and ``Connection.send`` writes synchronously
    in the calling thread (unlike ``mp.Queue``'s background feeder), so
    a crash can never orphan a lock another worker needs.

    Pool workers (see :class:`WorkerPool`) start with the payload of
    the lease that spawned them and receive ``("payload", payload)``
    messages when a later lease re-primes them; switching payloads
    detaches any shared-memory blocks the previous one mapped, so a
    resident process never pins a dead batch's pages.
    """
    try:
        # Ctrl-C delivers SIGINT to the whole foreground process group;
        # the *parent* owns the graceful-drain decision, so workers must
        # not die underneath it mid-task.
        _signal.signal(_signal.SIGINT, _signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - exotic platforms
        pass
    while True:
        try:
            item = conn.recv()
        except (EOFError, OSError):
            return  # parent closed its end: shut down
        if item is None:
            return
        if isinstance(item, tuple) and item and item[0] == "payload":
            new_payload = item[1]
            for name in _payload_blocks(payload) - _payload_blocks(new_payload):
                detach_block(name)
            payload = new_payload
            continue
        task_id, attempt, lo, hi = item
        try:
            result = _run_task(payload, task_id, attempt, lo, hi, in_worker=True)
        except Exception as exc:  # noqa: BLE001 - forwarded to the parent
            conn.send((task_id, "error", repr(exc)))
        else:
            conn.send((task_id, "ok", result))


class _Worker:
    """A supervised worker process with its private duplex pipe."""

    __slots__ = ("proc", "conn", "task_id", "deadline", "assigned_at")

    def __init__(self, ctx, payload: RangePayload | ShmRangePayload):
        self.conn, child = ctx.Pipe(duplex=True)
        self.proc = ctx.Process(
            target=_scheduler_worker,
            args=(payload, child),
            daemon=True,
        )
        self.proc.start()
        child.close()  # parent copy: recv must see EOF when the child dies
        self.task_id: int | None = None
        self.deadline: float | None = None
        self.assigned_at: float | None = None

    @property
    def idle(self) -> bool:
        return self.task_id is None

    def set_payload(self, payload: RangePayload | ShmRangePayload) -> None:
        """Ship a (new) payload to a long-lived pool worker."""
        try:
            self.conn.send(("payload", payload))
        except (BrokenPipeError, OSError):
            pass  # worker already dead: the pool's liveness check respawns

    def assign(
        self, task_id: int, attempt: int, lo: int, hi: int,
        timeout: float | None,
    ) -> None:
        self.task_id = task_id
        self.assigned_at = time.monotonic()
        self.deadline = (
            self.assigned_at + timeout if timeout is not None else None
        )
        try:
            self.conn.send((task_id, attempt, lo, hi))
        except (BrokenPipeError, OSError):
            pass  # worker already dead: the liveness check requeues it

    def release(self) -> None:
        self.task_id = None
        self.deadline = None
        self.assigned_at = None

    def kill(self) -> None:
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=1.0)
            if self.proc.is_alive():
                self.proc.kill()
                self.proc.join(timeout=1.0)
        self.conn.close()

    def stop(self) -> None:
        """Graceful shutdown: sentinel, short join, then force."""
        try:
            self.conn.send(None)
        except (BrokenPipeError, OSError):  # pipe already torn
            pass
        self.proc.join(timeout=1.0)
        self.kill()


class WorkerPool:
    """The step-2 worker processes: the only place workers are created.

    :class:`TaskScheduler` leases its workers here and reclaims the
    survivors afterwards.  A batch run (:func:`compare_resilient`) makes
    one pool per run and stops it at the end; a resident service
    (``repro.serve``) keeps one pool for its lifetime, so processes stay
    alive between batches.  A worker starts with the payload of the
    lease that spawned it -- under ``fork`` it inherits the payload
    instead of unpickling it -- and a later lease re-primes it with a
    ``("payload", ...)`` pipe message (see :func:`_scheduler_worker`),
    which also detaches any shared-memory blocks the previous batch
    mapped.  Dead workers are pruned and replaced on the next lease.

    The pool *self-heals* for daemon lifetimes: every replacement of a
    dead worker goes through :meth:`respawn`, which applies a capped
    exponential backoff when deaths cluster (a crash storm must not
    become a fork bomb) and counts ``pool.respawns``; :meth:`replace`
    rebuilds the whole pool after :class:`PoolUnhealthy` so the daemon
    survives events that would abort a batch run.
    """

    #: Backoff between *consecutive* respawns (doubles per respawn,
    #: resets once the pool stays quiet for ``RESPAWN_QUIET_S``).
    RESPAWN_BACKOFF_BASE = 0.05
    RESPAWN_BACKOFF_CAP = 2.0
    RESPAWN_QUIET_S = 5.0

    def __init__(
        self,
        n_workers: int,
        start_method: str | None = None,
        registry: MetricsRegistry | None = None,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        self.n_workers = n_workers
        self.method = (
            resolve_start_method(start_method) if n_workers > 1 else None
        )
        self.ctx = mp.get_context(self.method) if self.method else None
        self._workers: list[_Worker] = []
        self.registry = registry if registry is not None else MetricsRegistry()
        self.respawns = 0
        self.replacements = 0
        self._consecutive_respawns = 0
        self._last_respawn = 0.0

    @property
    def usable(self) -> bool:
        """Whether multiprocessing is available on this platform."""
        return self.ctx is not None

    def __len__(self) -> int:
        return len(self._workers)

    def spawn(self, payload: RangePayload | ShmRangePayload) -> _Worker:
        """Start one fresh worker with *payload*."""
        return _Worker(self.ctx, payload)

    def respawn(self, payload: RangePayload | ShmRangePayload) -> _Worker:
        """Replace one dead worker, with backoff when deaths cluster.

        Consecutive respawns (each within ``RESPAWN_QUIET_S`` of the
        last) sleep ``RESPAWN_BACKOFF_BASE * 2**(n-1)`` capped at
        ``RESPAWN_BACKOFF_CAP`` before forking, so a query that kills
        every worker it touches costs the daemon bounded respawn churn
        instead of a fork storm.
        """
        now = time.monotonic()
        if now - self._last_respawn > self.RESPAWN_QUIET_S:
            self._consecutive_respawns = 0
        if self._consecutive_respawns > 0:
            time.sleep(
                min(
                    self.RESPAWN_BACKOFF_BASE
                    * 2 ** (self._consecutive_respawns - 1),
                    self.RESPAWN_BACKOFF_CAP,
                )
            )
        self._consecutive_respawns += 1
        self._last_respawn = time.monotonic()
        self.respawns += 1
        self.registry.inc("pool.respawns")
        return self.spawn(payload)

    def lease(
        self, payload: RangePayload | ShmRangePayload, n: int
    ) -> list[_Worker]:
        """Hand out *n* live workers primed with *payload*.

        Pooled live workers are re-primed and the first *n* are leased;
        any surplus stays pooled and idle for a later, larger lease.
        Dead ones are pruned and replaced through :meth:`respawn`
        (counted, backed off); growth beyond the pool's live workers is
        a plain spawn.  The caller must :meth:`reclaim` or the workers
        are orphaned.
        """
        alive: list[_Worker] = []
        died = 0
        for w in self._workers:
            if w.proc.is_alive():
                w.release()
                w.set_payload(payload)
                alive.append(w)
            else:
                died += 1
                w.kill()
        leased, self._workers = alive[:n], alive[n:]
        while len(leased) < n:
            if died > 0:
                died -= 1
                leased.append(self.respawn(payload))
            else:
                leased.append(self.spawn(payload))
        return leased

    def replace(self) -> None:
        """Tear down every worker; the next lease starts a fresh pool.

        The recovery of last resort after :class:`PoolUnhealthy`: a
        resident daemon must outlive events that would abort a batch
        run, so instead of dying with the pool it swaps the pool.
        """
        for w in self._workers:
            w.stop()
        self._workers = []
        self._consecutive_respawns = 0
        self.replacements += 1
        self.registry.inc("pool.replacements")

    def health(self) -> dict:
        """Component health snapshot (the daemon's ``health`` op).

        ``ok`` is structural: a pool is healthy unless pooled workers
        are dead *right now* (the next lease heals that, but a snapshot
        showing corpses is worth flagging).  A serial pool (no usable
        start method) is healthy by definition -- work runs in-parent.
        """
        alive = sum(1 for w in self._workers if w.proc.is_alive())
        return {
            "ok": alive == len(self._workers),
            "alive": alive,
            "pooled": len(self._workers),
            "target": self.n_workers,
            "respawns": self.respawns,
            "replacements": self.replacements,
        }

    def reclaim(self, workers: list[_Worker]) -> None:
        """Take leased workers back after a batch; dead ones are discarded."""
        survivors: list[_Worker] = []
        for w in workers:
            if w.proc.is_alive():
                w.release()
                survivors.append(w)
            else:
                w.kill()
        self._workers = survivors + self._workers

    def stop(self) -> None:
        """Terminate every pooled worker (daemon shutdown)."""
        for w in self._workers:
            w.stop()
        self._workers = []


class TaskScheduler:
    """Supervises range tasks across workers leased from a :class:`WorkerPool`."""

    def __init__(
        self,
        payload: RangePayload | ShmRangePayload,
        ranges: list[tuple[int, int]],
        config: RuntimeConfig,
        counters: WorkCounters,
        pool: WorkerPool,
        journal: CheckpointJournal | None = None,
        completed: dict[int, RangeResult] | None = None,
        stop: ShutdownRequest | None = None,
        registry: MetricsRegistry | None = None,
    ):
        self.payload = payload
        self.tasks = dict(enumerate(ranges))
        self.config = config
        self.counters = counters
        #: Scheduler-level metrics (queue waits, task durations, retry
        #: taxonomy); per-task funnel registries travel on the results.
        self.registry = registry if registry is not None else MetricsRegistry()
        self.journal = journal
        self.completed: dict[int, RangeResult] = dict(completed or {})
        self.skipped: list[int] = []
        self.stop = stop if stop is not None else ShutdownRequest()
        self.pool = pool
        self._failures: dict[int, int] = {}
        self._seq = itertools.count()

    def _interrupt(self) -> None:
        """Raise :class:`RunInterrupted` describing the drained state."""
        signum = self.stop.signum
        name = (
            _signal.Signals(signum).name if signum is not None else "request"
        )
        raise RunInterrupted(
            f"run interrupted by {name}: {len(self.completed)} task(s) "
            f"completed and journalled, "
            f"{len(self.tasks) - len(self.completed) - len(self.skipped)} "
            "pending; resume with --resume",
            signum=signum,
            n_completed=len(self.completed),
        )

    # ------------------------------------------------------------------ #
    # Bookkeeping
    # ------------------------------------------------------------------ #

    def _complete(self, task_id: int, result: RangeResult) -> None:
        if task_id in self.completed or task_id in self.skipped:
            return  # duplicate delivery after a requeue race: idempotent
        self.completed[task_id] = result
        if self.journal is not None:
            lo, hi = self.tasks[task_id]
            self.journal.record(task_id, lo, hi, result)

    def _run_inline(self, task_id: int, degraded: bool) -> None:
        """Execute a task in the parent (quarantine or degraded mode)."""
        lo, hi = self.tasks[task_id]
        attempt = self._failures.get(task_id, 0)
        try:
            result = _run_task(self.payload, task_id, attempt, lo, hi)
        except Exception as exc:  # noqa: BLE001 - poisoned task
            self._poison(task_id, exc)
        else:
            if degraded:
                self.counters.n_degraded += 1
                self.registry.inc("scheduler.degraded")
            self._complete(task_id, result)

    def _poison(self, task_id: int, exc: Exception | str) -> None:
        lo, hi = self.tasks[task_id]
        message = (
            f"range task {task_id} (codes [{lo}, {hi})) failed its retries "
            f"and the in-parent quarantine attempt: {exc}"
        )
        if self.config.strict:
            raise TaskPoisoned(message, task_id=task_id)
        warnings.warn(
            message + "; its HSPs are dropped from the result",
            RuntimeWarning,
            stacklevel=4,
        )
        self.skipped.append(task_id)
        self.counters.n_skipped_tasks += 1
        self.registry.inc("scheduler.skipped_tasks")

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #

    def run(self) -> dict[int, RangeResult]:
        """Execute every task; returns {task_id: result}.

        Previously completed tasks (resume) are never re-run.  On return,
        ``self.skipped`` lists poisoned task ids (empty on healthy runs).
        """
        todo = [tid for tid in self.tasks if tid not in self.completed]
        if not todo:
            return self.completed
        if not self.pool.usable:
            # Serial mode (single worker or no usable start method):
            # still checkpointed, still quarantine-protected, and still
            # interruptible at task granularity (the finished task is
            # already in the journal when the signal is honoured).
            for tid in todo:
                if self.stop.is_set():
                    self._interrupt()
                self._run_with_retries_inline(tid)
            return self.completed
        self._run_pool(todo)
        return self.completed

    def _run_with_retries_inline(self, task_id: int) -> None:
        lo, hi = self.tasks[task_id]
        for attempt in range(self.config.max_retries + 1):
            try:
                result = _run_task(self.payload, task_id, attempt, lo, hi)
            except Exception as exc:  # noqa: BLE001
                if attempt == self.config.max_retries:
                    self._poison(task_id, exc)
                    return
                self.counters.n_retries += 1
                self.registry.inc("scheduler.retries")
                time.sleep(
                    min(
                        self.config.backoff_base * 2**attempt,
                        self.config.backoff_cap,
                    )
                )
            else:
                self._complete(task_id, result)
                return

    def _drain(self, workers: list[_Worker]) -> None:
        """Graceful shutdown: let in-flight tasks finish, journal them.

        Waits up to ``drain_timeout`` for busy workers to deliver their
        current task, completing (and journalling) every result that
        arrives.  No new work is dispatched; workers that die during the
        drain simply have their task left pending for ``--resume``.
        """
        deadline = time.monotonic() + self.config.drain_timeout
        while time.monotonic() < deadline:
            busy = [
                w for w in workers if not w.idle and w.proc.is_alive()
            ]
            if not busy:
                break
            for conn in _conn_wait(
                [w.conn for w in busy],
                timeout=min(self.config.poll_interval * 5, 0.25),
            ):
                w = next(x for x in busy if x.conn is conn)
                try:
                    tid, status, val = conn.recv()
                except Exception:  # noqa: BLE001 - dead worker mid-drain
                    w.release()
                    continue
                w.release()
                if status == "ok" and tid not in self.completed:
                    self._complete(tid, val)
        for w in workers:
            w.stop()
        workers.clear()

    def _run_pool(self, todo: list[int]) -> None:
        cfg = self.config
        workers = self.pool.lease(self.payload, min(cfg.n_workers, len(todo)))
        # Ready heap: (eligible_time, seq, task_id, enqueued_at); the
        # enqueue timestamp feeds the queue-wait histogram at dispatch.
        enqueue_t = time.monotonic()
        ready: list[tuple[float, int, int, float]] = [
            (0.0, next(self._seq), tid, enqueue_t) for tid in todo
        ]
        heapq.heapify(ready)
        pool_failures = 0
        outstanding = set(todo)

        def fail(worker: _Worker, kind: str, detail: str) -> None:
            nonlocal pool_failures
            tid = worker.task_id
            worker.release()
            if tid is None or tid in self.completed or tid in self.skipped:
                return
            if kind in ("crash", "timeout"):
                pool_failures += 1
            n = self._failures[tid] = self._failures.get(tid, 0) + 1
            if n > cfg.max_retries:
                self.counters.n_quarantined += 1
                self.registry.inc("scheduler.quarantined")
                self._run_inline(tid, degraded=True)
                if tid in self.completed or tid in self.skipped:
                    outstanding.discard(tid)
                return
            self.counters.n_retries += 1
            self.registry.inc("scheduler.retries")
            now = time.monotonic()
            delay = min(cfg.backoff_base * 2 ** (n - 1), cfg.backoff_cap)
            heapq.heappush(
                ready, (now + delay, next(self._seq), tid, now)
            )

        try:
            while outstanding:
                if self.stop.is_set():
                    self._drain(workers)
                    self._interrupt()
                now = time.monotonic()
                # 1. Dispatch eligible tasks to idle workers.
                for w in workers:
                    if not w.idle or not ready:
                        continue
                    eligible, _, tid, enqueued = ready[0]
                    if eligible > now:
                        continue
                    heapq.heappop(ready)
                    if tid in self.completed or tid in self.skipped:
                        continue
                    self.registry.observe(
                        "scheduler.queue_wait_seconds", now - enqueued
                    )
                    lo, hi = self.tasks[tid]
                    w.assign(
                        tid, self._failures.get(tid, 0), lo, hi,
                        cfg.task_timeout,
                    )
                # 2. Drain results: wait on every worker's pipe at once.
                # A torn message (worker killed mid-send) raises on *its*
                # pipe only; the liveness check below requeues its task.
                msgs: list[tuple[_Worker, tuple]] = []
                for conn in _conn_wait(
                    [w.conn for w in workers], timeout=cfg.poll_interval
                ):
                    w = next(x for x in workers if x.conn is conn)
                    try:
                        msgs.append((w, conn.recv()))
                    except Exception:  # noqa: BLE001 - EOF / torn pickle
                        pass  # dead worker's pipe: the health check requeues
                for sender, (tid, status, val) in msgs:
                    owner = (
                        sender
                        if sender.task_id == tid
                        else next(
                            (w for w in workers if w.task_id == tid), None
                        )
                    )
                    started = owner.assigned_at if owner is not None else None
                    if owner is not None:
                        owner.release()
                    if tid in self.completed or tid in self.skipped:
                        continue  # stale duplicate: tasks are idempotent
                    if status == "ok":
                        if started is not None:
                            self.registry.observe(
                                "scheduler.task_seconds",
                                time.monotonic() - started,
                            )
                        self._complete(tid, val)
                        outstanding.discard(tid)
                    elif owner is not None:
                        owner.task_id = tid  # re-attach for fail() context
                        fail(owner, "error", str(val))
                    # an "error" with no owner means the task was already
                    # requeued by a crash/timeout check: nothing to do
                # 3. Health checks: dead and overdue workers.
                for i, w in enumerate(workers):
                    if w.idle:
                        if not w.proc.is_alive():
                            # Idle worker died (e.g. fault between tasks):
                            # just replace it.
                            w.kill()
                            workers[i] = self.pool.respawn(self.payload)
                        continue
                    now = time.monotonic()
                    if not w.proc.is_alive():
                        self.counters.n_crashes += 1
                        self.registry.inc("scheduler.crashes")
                        tid = w.task_id
                        w.kill()
                        workers[i] = self.pool.respawn(self.payload)
                        w.task_id = tid
                        fail(w, "crash", "worker process died")
                    elif w.deadline is not None and now > w.deadline:
                        self.counters.n_timeouts += 1
                        self.registry.inc("scheduler.timeouts")
                        tid = w.task_id
                        w.kill()
                        workers[i] = self.pool.respawn(self.payload)
                        w.task_id = tid
                        fail(w, "timeout", "task exceeded its deadline")
                # 4. Pool health: degrade to in-parent execution.
                if pool_failures > cfg.pool_failure_budget and outstanding:
                    if cfg.strict:
                        raise PoolUnhealthy(
                            f"{pool_failures} worker failures exceed the "
                            f"pool budget of {cfg.pool_failure_budget}"
                        )
                    warnings.warn(
                        f"worker pool unhealthy ({pool_failures} failures > "
                        f"budget {cfg.pool_failure_budget}); degrading to "
                        "in-parent serial execution of "
                        f"{len(outstanding)} remaining task(s)",
                        RuntimeWarning,
                        stacklevel=2,
                    )
                    for w in workers:
                        w.kill()
                    workers = []
                    for tid in sorted(outstanding):
                        if tid in self.completed or tid in self.skipped:
                            continue
                        self._run_inline(tid, degraded=True)
                    outstanding.clear()
                    break
                outstanding -= set(self.completed) | set(self.skipped)
        finally:
            self.pool.reclaim(workers)


# --------------------------------------------------------------------- #
# The step-2 fan-out and the end-to-end resilient comparison
# --------------------------------------------------------------------- #


def run_step2(
    payload: RangePayload,
    ranges: list[tuple[int, int]],
    config: RuntimeConfig,
    pool: WorkerPool,
    counters: WorkCounters,
    registry: MetricsRegistry,
    *,
    journal: CheckpointJournal | None = None,
    completed: dict[int, RangeResult] | None = None,
    stop: ShutdownRequest | None = None,
    base_spec=None,
    funnel: MetricsRegistry | None = None,
) -> HSPTable:
    """Run step 2 over *ranges*: publish, schedule, tear down, merge.

    Zero-copy fan-out: when workers will run, the payload arrays are
    published once into a shared-memory arena and workers (every retry
    and replacement included) attach views; ``base_spec`` names an
    already-published subject arena whose arrays are not copied again
    (the serving daemon's).  Degradation, not failure, when ``/dev/shm``
    cannot hold the arena: workers get the pickled payload.

    Scheduler metrics and ``shm.bytes_published`` go to *registry*; the
    per-task funnel metrics merge into *funnel* when given.  The arena
    is closed and this process's mapping of it dropped (the quarantine
    path may have attached it) even when the run raises -- e.g.
    :class:`~repro.runtime.errors.RunInterrupted` -- and *journal*, if
    any, is closed (every line is fsynced at append time).
    """
    arena = None
    worker_payload: RangePayload | ShmRangePayload = payload
    if config.use_shm and pool.usable and len(ranges) > len(completed or ()):
        try:
            arena, worker_payload = publish_range_payload(
                payload, registry, base_spec=base_spec
            )
        except ResourceExhausted as exc:
            warnings.warn(
                f"{exc}; using the pickled worker payload instead",
                RuntimeWarning,
                stacklevel=3,
            )
    try:
        scheduler = TaskScheduler(
            worker_payload, ranges, config, counters, pool, journal,
            completed, stop=stop, registry=registry,
        )
        results = scheduler.run()
    finally:
        if arena is not None:
            block = arena.spec.block
            arena.close()
            detach_block(block)
        if journal is not None:
            journal.close()
    return merge_range_results(results, counters, funnel)


def _run_fingerprint(payload: RangePayload, n_tasks: int) -> dict:
    """Identity of a run for checkpoint-resume validation.

    CRC-32 over the encoded banks and the common-code list, plus the
    parameter repr and the task split: resume refuses to mix journals
    across different inputs, parameters, or granularities.
    """
    return {
        "algo": "oris-step2",
        "n_codes": payload.n_codes,
        "n_tasks": n_tasks,
        "codes_crc": zlib.crc32(payload.codes.tobytes()),
        "seq1_crc": zlib.crc32(payload.seq1.tobytes()),
        "seq2_crc": zlib.crc32(payload.seq2.tobytes()),
        "threshold": int(payload.threshold),
        "params": repr(payload.params),
    }


def compare_resilient(
    bank1: Bank,
    bank2: Bank,
    params: OrisParams | None = None,
    config: RuntimeConfig | None = None,
    stop: ShutdownRequest | None = None,
    obs: ObsSpec | None = None,
    index_cache=None,
) -> ComparisonResult:
    """ORIS comparison with fault-tolerant, checkpointed parallel step 2.

    Identical output to :class:`~repro.core.engine.OrisEngine` on healthy
    runs (asserted by the test suite); on unhealthy runs it retries,
    requeues, degrades, and resumes instead of aborting.  Steps 1, 3 and
    4 run in the parent.

    ``stop`` is an optional :class:`ShutdownRequest`; when it trips
    (typically from a SIGTERM/SIGINT handler installed with
    :func:`signal_shutdown`), the scheduler drains in-flight tasks into
    the journal and raises :class:`~repro.runtime.errors.RunInterrupted`
    -- after which a ``--resume`` run continues exactly where the signal
    landed.
    """
    params = params or OrisParams()
    config = config or RuntimeConfig()
    if params.strand != "plus":
        raise ValueError(
            "compare_resilient runs a single strand; call it per strand"
        )
    if not params.ordered_cutoff:
        raise ValueError(
            "the resilient runtime requires the ordered-seed cutoff (it is "
            "what makes range tasks idempotent)"
        )
    engine = OrisEngine(params, index_cache=index_cache)
    timings = StepTimings()
    counters = WorkCounters()
    registry = MetricsRegistry()
    index1, index2 = engine.index_step(bank1, bank2, timings, registry)

    t0 = time.perf_counter()
    common = index1.common_codes(index2)
    threshold = engine._resolve_hsp_min_score(
        bank1, bank2, karlin_params(params.scoring)
    )
    payload = build_range_payload(
        index1, index2, common, params, threshold, obs=obs
    )
    ranges = plan_ranges(
        common, config.n_workers * config.tasks_per_worker, params, registry
    )
    journal: CheckpointJournal | None = None
    completed: dict[int, RangeResult] = {}
    if config.checkpoint_dir:
        journal = CheckpointJournal(config.checkpoint_dir)
        fingerprint = _run_fingerprint(payload, len(ranges))
        if config.resume:
            if journal.exists:
                completed = journal.load(fingerprint)
                counters.n_resumed = len(completed)
                registry.inc("scheduler.resumed", len(completed))
                journal.open_for_append()
            else:
                warnings.warn(
                    f"--resume requested but no journal in "
                    f"{config.checkpoint_dir}; starting fresh",
                    RuntimeWarning,
                    stacklevel=2,
                )
                journal.create(fingerprint)
        else:
            journal.create(fingerprint)
    pool = WorkerPool(config.n_workers, config.start_method)
    try:
        with span("step2.extend", n_tasks=len(ranges)):
            table = run_step2(
                payload, ranges, config, pool, counters, registry,
                journal=journal, completed=completed, stop=stop,
                funnel=registry,
            )
    finally:
        pool.stop()
    timings.ungapped = time.perf_counter() - t0
    registry.set_gauge(
        "time.step2_ungapped_seconds", timings.ungapped, mode="sum"
    )

    return engine.finish_comparison(
        bank1, bank2, table, counters, timings, registry
    )
