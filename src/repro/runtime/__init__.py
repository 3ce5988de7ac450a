"""Resilient comparison runtime (checkpointed, fault-tolerant step 2).

Public surface:

* :mod:`repro.runtime.errors` -- structured error taxonomy
  (:class:`WorkerCrash`, :class:`TaskTimeout`, :class:`CheckpointCorrupt`,
  :class:`IndexCorrupt`, ...).
* :mod:`repro.runtime.checkpoint` -- the append-only JSONL checkpoint
  journal (:class:`CheckpointJournal`).
* :mod:`repro.runtime.scheduler` -- the fault-tolerant task scheduler
  (:class:`TaskScheduler`, :class:`RuntimeConfig`) and the end-to-end
  entry point :func:`compare_resilient`.

The scheduler and checkpoint modules are imported lazily (PEP 562) so
that low-level modules (e.g. :mod:`repro.index.persist`, which raises
:class:`~repro.runtime.errors.IndexCorrupt`) can depend on the error
taxonomy without pulling the whole engine stack into their import graph.
"""

from __future__ import annotations

from . import faults
from .errors import (
    CheckpointCorrupt,
    IndexCorrupt,
    IndexOutdated,
    InputError,
    OrisRuntimeError,
    PoolUnhealthy,
    ResourceExhausted,
    RunInterrupted,
    TaskPoisoned,
    TaskTimeout,
    WorkerCrash,
    classify,
    exit_code_for,
)

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
    "classify",
    "exit_code_for",
    "CheckpointJournal",
    "faults",
    "RuntimeConfig",
    "TaskScheduler",
    "compare_resilient",
    "signal_shutdown",
    "ResourcePlan",
    "plan_comparison",
    "preflight_disk",
    "preflight_shm_arena",
    "rss_peak_bytes",
    "ArenaSpec",
    "SharedArena",
    "reap_stale_segments",
]

_LAZY = {
    "CheckpointJournal": "checkpoint",
    "RuntimeConfig": "scheduler",
    "TaskScheduler": "scheduler",
    "compare_resilient": "scheduler",
    "signal_shutdown": "scheduler",
    "ResourcePlan": "governor",
    "plan_comparison": "governor",
    "preflight_disk": "governor",
    "preflight_shm_arena": "governor",
    "rss_peak_bytes": "governor",
    "ArenaSpec": "shm",
    "SharedArena": "shm",
    "reap_stale_segments": "shm",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(__all__)
