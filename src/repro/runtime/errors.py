"""Structured error taxonomy of the resilient comparison runtime.

Long bank-vs-bank comparisons are batch workloads: a single hung worker,
one corrupted archive, or a stale checkpoint should be *diagnosable* and,
where possible, *survivable*.  Every failure the runtime can recognise is
therefore a distinct exception type, so callers (and the scheduler's own
retry logic) can branch on the class instead of parsing messages.

Hierarchy
---------

``OrisRuntimeError``
    Base class of everything the runtime raises on purpose.
``WorkerCrash``
    A worker process died (signal, ``os._exit``, OOM kill) while a task
    was in flight.  The scheduler converts these into requeues.
``TaskTimeout``
    A task exceeded its per-task deadline; the worker is killed and the
    task requeued.  Subclasses :class:`TimeoutError` for idiomatic
    ``except TimeoutError`` handling.
``TaskPoisoned``
    One range task kept failing after exhausting its retries *and* the
    in-parent quarantine attempt; the run continues without it
    (degraded result) unless the caller opts into strict mode.
``PoolUnhealthy``
    The worker pool accumulated too many failures to be trusted; the
    scheduler degrades to in-parent serial execution.
``CheckpointCorrupt``
    A checkpoint journal does not belong to this run (fingerprint
    mismatch), is structurally damaged, or references chunk data that
    fails its checksum in strict contexts.
``IndexCorrupt``
    A persisted index archive failed its format-version or content
    checksum verification.  Also a :class:`ValueError` so pre-existing
    callers that caught ``ValueError`` keep working.
``IndexOutdated``
    An :class:`IndexCorrupt` for an intact archive of the previous
    format: its bank is readable, its index must be rebuilt.
``InputError``
    Bank ingestion rejected the input (malformed FASTA, no valid
    records, an unreadable file).  Carries the structured
    :class:`~repro.io.validate.InputDiagnostic` records that explain
    *where* and *why* instead of a traceback.
``ResourceExhausted``
    A preflight check (memory budget, checkpoint disk space) concluded
    the run cannot fit its resources even after degradation.
``RunInterrupted``
    The run was stopped by SIGTERM/SIGINT; in-flight tasks were drained
    and the checkpoint journal flushed, so ``--resume`` continues
    exactly where the signal landed.

Exit codes
----------

The CLI maps the taxonomy onto distinct process exit codes so batch
schedulers and shell scripts can branch without parsing stderr:

====  =======================================================
code  meaning
====  =======================================================
0     success
1     unexpected internal failure
2     usage error (bad flags / flag combinations)
3     invalid input (malformed FASTA, no valid records)
4     resource exhausted (memory budget, disk preflight, OOM)
5     corrupt checkpoint journal or index archive
130   interrupted by SIGTERM/SIGINT (journal flushed; resumable)
====  =======================================================
"""

from __future__ import annotations

__all__ = [
    "OrisRuntimeError",
    "WorkerCrash",
    "TaskTimeout",
    "TaskPoisoned",
    "PoolUnhealthy",
    "CheckpointCorrupt",
    "IndexCorrupt",
    "IndexOutdated",
    "InputError",
    "ResourceExhausted",
    "RunInterrupted",
    "EXIT_OK",
    "EXIT_INTERNAL",
    "EXIT_USAGE",
    "EXIT_INPUT",
    "EXIT_RESOURCE",
    "EXIT_CORRUPT",
    "EXIT_INTERRUPTED",
    "classify",
    "exit_code_for",
]

#: Process exit codes of the ``scoris-n`` CLI (documented in ``--help``).
EXIT_OK: int = 0
EXIT_INTERNAL: int = 1
EXIT_USAGE: int = 2
EXIT_INPUT: int = 3
EXIT_RESOURCE: int = 4
EXIT_CORRUPT: int = 5
EXIT_INTERRUPTED: int = 130


class OrisRuntimeError(Exception):
    """Base class for all resilient-runtime failures."""


class WorkerCrash(OrisRuntimeError):
    """A worker process died while executing a range task."""

    def __init__(self, message: str, task_id: int | None = None):
        super().__init__(message)
        self.task_id = task_id


class TaskTimeout(OrisRuntimeError, TimeoutError):
    """A range task exceeded its per-task deadline."""

    def __init__(self, message: str, task_id: int | None = None):
        super().__init__(message)
        self.task_id = task_id


class TaskPoisoned(OrisRuntimeError):
    """A range task failed every retry and the quarantine attempt."""

    def __init__(self, message: str, task_id: int | None = None):
        super().__init__(message)
        self.task_id = task_id


class PoolUnhealthy(OrisRuntimeError):
    """The worker pool accumulated too many failures to be trusted."""


class CheckpointCorrupt(OrisRuntimeError):
    """A checkpoint journal is damaged or belongs to a different run."""


class IndexCorrupt(OrisRuntimeError, ValueError):
    """A persisted index archive failed verification.

    Inherits :class:`ValueError` for backward compatibility with callers
    that treated any load failure as a value error.
    """


class IndexOutdated(IndexCorrupt):
    """An index archive of the previous format (intact, but not loadable
    as an index; :func:`repro.index.persist.load_archived_bank` still
    reads its bank)."""


class InputError(OrisRuntimeError, ValueError):
    """Bank ingestion rejected the input.

    ``diagnostics`` holds the structured
    :class:`~repro.io.validate.InputDiagnostic` records (file, line,
    record provenance) gathered before the rejection, so callers can
    print a precise report instead of a traceback.  Inherits
    :class:`ValueError` so pre-existing ``except ValueError`` ingestion
    guards keep working.
    """

    def __init__(self, message: str, diagnostics: list | None = None):
        super().__init__(message)
        self.diagnostics = list(diagnostics or [])


class ResourceExhausted(OrisRuntimeError):
    """A resource preflight failed: the run cannot fit even degraded.

    Raised by the governor when the memory budget is below the smallest
    viable tiled plan, or when a ``--checkpoint`` directory's filesystem
    lacks space for the projected journal footprint.
    """


class RunInterrupted(OrisRuntimeError):
    """The run was stopped by a termination signal after a clean drain.

    ``signum`` is the signal that landed; ``n_completed`` counts the
    tasks whose results reached the checkpoint journal before exit.
    """

    def __init__(
        self,
        message: str,
        signum: int | None = None,
        n_completed: int = 0,
    ):
        super().__init__(message)
        self.signum = signum
        self.n_completed = n_completed


def classify(exc: BaseException) -> str:
    """Name the taxonomy bucket an exception falls into.

    Used where an error crosses a serialisation boundary (the serve
    protocol's ``poisoned`` responses) and the receiving side wants the
    *kind* of failure without depending on Python exception classes.
    Taxonomy members report their own class name; everything else is
    ``"internal"``.
    """
    if isinstance(exc, OrisRuntimeError):
        return type(exc).__name__
    if isinstance(exc, TimeoutError):
        return TaskTimeout.__name__
    if isinstance(exc, MemoryError):
        return ResourceExhausted.__name__
    return "internal"


def exit_code_for(exc: BaseException) -> int:
    """Map an exception onto the CLI's documented exit codes.

    Order matters: the corrupt-data classes inherit ``ValueError`` (and
    :class:`InputError` does too), so they are tested before the broad
    input bucket.
    """
    if isinstance(exc, (RunInterrupted, KeyboardInterrupt)):
        return EXIT_INTERRUPTED
    if isinstance(exc, (CheckpointCorrupt, IndexCorrupt)):
        return EXIT_CORRUPT
    if isinstance(exc, (ResourceExhausted, MemoryError)):
        return EXIT_RESOURCE
    if isinstance(exc, InputError):
        return EXIT_INPUT
    if isinstance(exc, OSError):
        import errno

        if exc.errno in (errno.ENOSPC, errno.EDQUOT):
            return EXIT_RESOURCE
        return EXIT_INPUT
    if isinstance(exc, ValueError):
        return EXIT_INPUT
    return EXIT_INTERNAL
