"""Deterministic fault injection: the one fault mechanism of the codebase.

A *fault point* is a named place in the code where a failure can be
provoked on demand: a pooled worker crashing mid-task, a frame torn in
half on the wire, a cached index archive flipping a byte on disk.  The
registry here lets tests and the chaos smokes arm those points from the
outside -- via the ``SCORIS_FAULTS`` environment variable or the hidden
``--faults`` CLI flag -- without the production code paths paying
anything when disarmed: the hot-path check is one module-global ``None``
comparison.

Spec syntax (comma-separated)::

    point:probability:seed[:match]

    worker.crash:0.05:1234            # each task has a 5% chance
    serve.poison_query:1:0:POISONQ    # only keys containing "POISONQ"
    task.error:1:0:task=3/try=0;      # task 3's first attempt only
    task.error:1:0:task=3/            # every attempt of task 3

Firing is *deterministic*: for a given (spec, call ordinal) the decision
is a pure function -- ``crc32(f"{seed}:{n}")`` mapped to [0, 1) and
compared against the probability -- so a failing chaos run can be
replayed exactly by re-arming the same spec string.  Each process keeps
its own ordinal counters; forked/spawned workers re-arm lazily from the
inherited environment, so a spec armed in the daemon reaches its pool.

Range-task points are keyed by :func:`task_key`, ``task={id}/try={n};``
-- the task id and its attempt number (0 for the first execution).  The
key holds no ``:`` or ``,`` (the spec separators) and no task's key is a
substring of another's, so a ``match`` token selects one task, or one
attempt of one task, without any cross-process bookkeeping.

Known points (hook sites in parentheses).  The ``worker.*`` points fire
in scheduler worker processes only.  ``task.error`` and
``shm.unlink_race`` fire wherever a task runs: in workers, and in the
parent's serial loop and quarantine.  All others fire in the parent
(the daemon, the fleet router or the CLI process):

- ``task.error``         -- raise an ordinary exception (task hook)
- ``worker.crash``       -- ``os._exit`` mid-task (task hook)
- ``worker.hang``        -- sleep past the task timeout (task hook)
- ``worker.oom``         -- SIGKILL self, the kernel-OOM shape (task hook)
- ``serve.torn_frame``   -- send half a frame, then reset (protocol)
- ``serve.poison_query`` -- deterministic per-query poison (batch engine)
- ``index.cache_corrupt``-- flip a byte in the cached archive (IndexCache)
- ``shm.unlink_race``    -- arena vanished between publish and attach (shm)
- ``index.manifest_torn``-- half-written segment-store manifest (manifest)
- ``index.compact_crash``-- die between segment write and manifest publish
  (segment store flush/compact)
- ``index.wal_truncate`` -- WAL record torn mid-append (segment store)
- ``fleet.shard_unreachable`` -- the router's scatter to one shard fails
  as if the shard were down (fleet router)
- ``fleet.partial_gather``   -- one shard's gathered partial result is
  dropped after a successful scatter (fleet router)
"""

from __future__ import annotations

import os
import signal
import time
import zlib
from dataclasses import dataclass, field

__all__ = [
    "FAULT_POINTS",
    "FaultSpecError",
    "arm",
    "armed",
    "disarm",
    "fired_counts",
    "inject",
    "should_fire",
    "task_key",
]

ENV_VAR = "SCORIS_FAULTS"

#: Every point the codebase hooks.  Arming an unknown point is an error
#: (a typo in a chaos spec must not silently arm nothing).
FAULT_POINTS = frozenset(
    {
        "task.error",
        "worker.crash",
        "worker.hang",
        "worker.oom",
        "serve.torn_frame",
        "serve.poison_query",
        "index.cache_corrupt",
        "shm.unlink_race",
        "index.manifest_torn",
        "index.compact_crash",
        "index.wal_truncate",
        "fleet.shard_unreachable",
        "fleet.partial_gather",
    }
)

#: How long a ``worker.hang`` sleeps.  Far past any sane task timeout;
#: tests patch it down so the scheduler's overdue detection fires fast.
HANG_SECONDS = 3600.0


class FaultSpecError(ValueError):
    """A malformed or unknown ``SCORIS_FAULTS`` spec."""


def task_key(task_id: int, attempt: int) -> str:
    """The fault key of one range-task execution (see the module doc)."""
    return f"task={task_id}/try={attempt};"


@dataclass
class _ArmedPoint:
    point: str
    probability: float
    seed: int
    match: str | None = None
    calls: int = 0
    fired: int = 0


@dataclass
class _Registry:
    """Per-process armed state, keyed by fault point."""

    spec_text: str
    points: dict[str, _ArmedPoint] = field(default_factory=dict)


# ``None`` means "maybe not armed yet": the env is consulted lazily on
# first use so spawned workers inherit the daemon's spec.  After that,
# ``_DISARMED`` (a shared empty registry) makes the hot path a single
# ``is`` check + dict miss.
_DISARMED = _Registry(spec_text="")
_registry: _Registry | None = None


def _parse(text: str) -> _Registry:
    registry = _Registry(spec_text=text)
    for raw in text.split(","):
        part = raw.strip()
        if not part:
            continue
        fields = part.split(":")
        if len(fields) not in (3, 4):
            raise FaultSpecError(
                f"bad fault spec {part!r}: want point:probability:seed[:match]"
            )
        point, prob_text, seed_text = fields[0], fields[1], fields[2]
        match = fields[3] if len(fields) == 4 else None
        if point not in FAULT_POINTS:
            known = ", ".join(sorted(FAULT_POINTS))
            raise FaultSpecError(f"unknown fault point {point!r} (known: {known})")
        try:
            probability = float(prob_text)
            seed = int(seed_text)
        except ValueError as exc:
            raise FaultSpecError(f"bad fault spec {part!r}: {exc}") from None
        if not 0.0 <= probability <= 1.0:
            raise FaultSpecError(
                f"fault probability must be in [0, 1], got {probability}"
            )
        registry.points[point] = _ArmedPoint(
            point=point, probability=probability, seed=seed, match=match
        )
    return registry


def _load() -> _Registry:
    global _registry
    registry = _registry
    if registry is None:
        text = os.environ.get(ENV_VAR, "")
        registry = _parse(text) if text.strip() else _DISARMED
        _registry = registry
    return registry


def arm(text: str) -> None:
    """Arm fault points from a spec string (replaces any armed state)."""
    global _registry
    _registry = _parse(text)


def disarm() -> None:
    """Disarm every fault point in this process."""
    global _registry
    _registry = _DISARMED


def reset() -> None:
    """Forget armed state; the next check re-reads ``SCORIS_FAULTS``."""
    global _registry
    _registry = None


def armed() -> bool:
    """True when at least one fault point is armed in this process."""
    return bool(_load().points)


def fired_counts() -> dict[str, int]:
    """Per-point fire counts for this process (test observability)."""
    return {name: p.fired for name, p in _load().points.items()}


def _decide(point: _ArmedPoint) -> bool:
    """Pure, replayable fire decision for this point's next ordinal."""
    ordinal = point.calls
    point.calls += 1
    if point.probability <= 0.0:
        return False
    if point.probability >= 1.0:
        return True
    digest = zlib.crc32(f"{point.seed}:{ordinal}".encode("ascii"))
    return (digest / 2**32) < point.probability


def should_fire(point: str, key: str | None = None) -> bool:
    """Decide whether fault *point* fires at this call site.

    ``key`` names the unit of work (a query name, a cache path); when the
    armed spec carries a ``match`` token, the point only fires for keys
    containing it.  Unarmed points cost one dict miss.
    """
    registry = _load()
    if not registry.points:
        return False
    armed_point = registry.points.get(point)
    if armed_point is None:
        return False
    if armed_point.match is not None and (
        key is None or armed_point.match not in key
    ):
        return False
    if not _decide(armed_point):
        return False
    armed_point.fired += 1
    return True


def inject(point: str) -> None:
    """Carry out a *worker-side* fault behavior.

    Only meaningful for the ``worker.*`` points, which take the process
    down (or wedge it) the way real failures do.  Parent-side points
    implement their behavior at the hook site instead, where the broken
    state (a torn frame, a corrupt file) is constructed in context.
    """
    if point == "worker.crash":
        # The abrupt death: no cleanup handlers, no exception, just gone.
        os._exit(73)
    if point == "worker.oom":
        # The kernel OOM-killer shape: SIGKILL, uncatchable.
        os.kill(os.getpid(), signal.SIGKILL)
    if point == "worker.hang":
        time.sleep(HANG_SECONDS)
        return
    raise ValueError(f"no worker-side behavior for fault point {point!r}")
