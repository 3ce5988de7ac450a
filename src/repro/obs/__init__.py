"""Observability layer: metrics registry, tracing spans, profiling hooks.

Zero third-party dependencies.  See the submodule docstrings for the
individual pieces:

* :mod:`repro.obs.metrics` — :class:`MetricsRegistry` of counters,
  gauges, and log-scale histograms: a run's one ledger.  Every count and
  step time is recorded there once (``ComparisonResult.counters`` and
  ``.timings`` are read-only views of it); it is picklable and mergeable,
  so each range task's registry is the task's only record of its work
  and ships back through the scheduler result path and the checkpoint
  journal.
* :mod:`repro.obs.tracing` — nestable, process-aware JSONL spans
  (``with span("step2.extend"): ...``), enabled by ``--trace FILE``.
* :mod:`repro.obs.profiling` — cProfile dumps per process/task plus a
  merged top-N report, enabled by ``--profile cprofile``.

:class:`ObsSpec` is the small picklable configuration record that rides
on task payloads so spawn-started workers (which do not inherit module
state) can re-arm tracing/profiling via :func:`init_worker_obs`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.obs.metrics import (
    FUNNEL_COUNTERS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    check_funnel,
    format_funnel,
    funnel_dict,
)
from repro.obs.profiling import (
    PROFILE_MODES,
    maybe_profile,
    merged_report,
    profile_files,
    profile_into,
)
from repro.obs.tracing import (
    Tracer,
    configure_tracing,
    current_trace_path,
    disable_tracing,
    read_trace,
    span,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "FUNNEL_COUNTERS",
    "funnel_dict",
    "check_funnel",
    "format_funnel",
    "Tracer",
    "configure_tracing",
    "disable_tracing",
    "current_trace_path",
    "span",
    "read_trace",
    "PROFILE_MODES",
    "profile_into",
    "maybe_profile",
    "profile_files",
    "merged_report",
    "ObsSpec",
    "init_worker_obs",
]


@dataclass(frozen=True, slots=True)
class ObsSpec:
    """Picklable observability configuration for worker processes.

    Attached to :class:`repro.core.parallel.RangePayload`; workers call
    :func:`init_worker_obs` before running the task so tracing and
    profiling work identically under fork and spawn start methods.
    """

    trace_path: str | None = None
    profile_mode: str = "none"
    profile_dir: str | None = None

    @property
    def enabled(self) -> bool:
        return self.trace_path is not None or self.profile_mode != "none"


def init_worker_obs(spec: "ObsSpec | None") -> None:
    """Arm the module-level tracer inside a worker process."""
    if spec is None:
        return
    if spec.trace_path is not None and current_trace_path() != spec.trace_path:
        configure_tracing(spec.trace_path)
