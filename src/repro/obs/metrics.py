"""Metrics registry: counters, gauges, and log-scale histograms.

The observability layer's data model.  Three metric kinds cover every
instrumentation site in the pipeline:

:class:`Counter`
    A monotonically growing integer (hit pairs examined, cutoff aborts,
    HSPs kept).  Merging adds.

:class:`Gauge`
    A point-in-time float with an explicit *merge mode*: ``"last"``
    (overwrite), ``"max"``/``"min"`` (high/low-water marks, e.g. peak
    RSS or best-of-repeats wall time), or ``"sum"``.

:class:`Histogram`
    A log-scale (power-of-two bucket) distribution for quantities whose
    dynamic range spans orders of magnitude: chunk sizes, per-code
    occurrence counts, task durations, queue waits.  Bucket ``e`` counts
    observations in ``[2**(e-1), 2**e)``; non-positive observations land
    in a dedicated overflow counter so the bucket invariant
    ``count == sum(buckets) + n_nonpositive`` always holds.

Everything in this module is pure stdlib and *picklable*: a worker
process builds a :class:`MetricsRegistry` per range task, the result
ships back through the scheduler's pipes (or through the JSON checkpoint
journal via :meth:`MetricsRegistry.as_dict` /
:meth:`MetricsRegistry.from_dict`), and the parent folds every per-task
registry into the run registry with :meth:`MetricsRegistry.merge`.
Merging is *partition-invariant* for counters, histograms, and
``max``/``min``/``sum`` gauges: any grouping of the same observations,
merged in any order, yields the same registry (property-tested in
``tests/test_obs_metrics.py``).  ``"last"`` gauges are inherently
order-sensitive and are excluded from that guarantee.

The step-2 *funnel* -- the hits -> extensions -> aborts/HSPs accounting
that makes the paper's ordered-cutoff claim measurable -- has its
canonical metric names and consistency checks here too
(:data:`FUNNEL_COUNTERS`, :func:`funnel_dict`, :func:`check_funnel`,
:func:`format_funnel`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "FUNNEL_COUNTERS",
    "funnel_dict",
    "check_funnel",
    "format_funnel",
]

_GAUGE_MODES = ("last", "max", "min", "sum")


@dataclass
class Counter:
    """A monotonically increasing integer metric."""

    value: int = 0

    def inc(self, n: int = 1) -> None:
        self.value += int(n)

    def merge(self, other: "Counter") -> None:
        self.value += other.value


@dataclass
class Gauge:
    """A float metric with explicit merge semantics."""

    value: float | None = None
    mode: str = "last"

    def __post_init__(self) -> None:
        if self.mode not in _GAUGE_MODES:
            raise ValueError(f"gauge mode must be one of {_GAUGE_MODES}")

    def set(self, value: float) -> None:
        value = float(value)
        if self.value is None or self.mode in ("last",):
            self.value = value
        elif self.mode == "max":
            self.value = max(self.value, value)
        elif self.mode == "min":
            self.value = min(self.value, value)
        else:  # sum
            self.value += value

    def merge(self, other: "Gauge") -> None:
        if other.mode != self.mode:
            raise ValueError(
                f"cannot merge gauge modes {self.mode!r} and {other.mode!r}"
            )
        if other.value is not None:
            self.set(other.value)


@dataclass
class Histogram:
    """Log-scale histogram over positive observations.

    Bucket key ``e`` covers ``[2**(e-1), 2**e)`` (the ``math.frexp``
    exponent of the value); ``counts`` maps bucket -> observation count.
    """

    counts: dict[int, int] = field(default_factory=dict)
    count: int = 0
    total: float = 0.0
    vmin: float | None = None
    vmax: float | None = None
    n_nonpositive: int = 0

    @staticmethod
    def bucket_of(value: float) -> int:
        """Bucket key of a positive value (frexp exponent)."""
        return math.frexp(value)[1]

    @staticmethod
    def bucket_bounds(key: int) -> tuple[float, float]:
        """Half-open ``[lo, hi)`` value range of bucket ``key``."""
        return (2.0 ** (key - 1), 2.0**key)

    def record(self, value: float) -> None:
        value = float(value)
        self.count += 1
        if value <= 0.0:
            self.n_nonpositive += 1
            return
        self.total += value
        b = self.bucket_of(value)
        self.counts[b] = self.counts.get(b, 0) + 1
        self.vmin = value if self.vmin is None else min(self.vmin, value)
        self.vmax = value if self.vmax is None else max(self.vmax, value)

    def record_array(self, values) -> None:
        """Bulk-record a sequence (vectorised when NumPy is importable).

        Intended for large per-code/per-chunk arrays where a Python loop
        per element would dominate the very cost being measured.  The
        module itself stays importable without NumPy.
        """
        try:
            import numpy as np
        except ImportError:  # pragma: no cover - numpy is a core dep here
            for v in values:
                self.record(v)
            return
        v = np.asarray(values).ravel()
        n = int(v.size)
        if n == 0:
            return
        weight = None
        if v.dtype.kind in "iub":
            # Integer arrays (per-code occurrence counts) hold few distinct
            # values: bucket those, not a float copy of every element.
            v, weight = np.unique(v, return_counts=True)
        v = v.astype(np.float64, copy=False)
        keep = v > 0.0
        pos = v[keep]
        if weight is not None:
            weight = weight[keep]
        n_pos = pos.size if weight is None else int(weight.sum())
        self.count += n
        self.n_nonpositive += n - n_pos
        if n_pos == 0:
            return
        self.total += float(pos.sum() if weight is None else pos @ weight)
        _, exps = np.frexp(pos)
        keys, inverse = np.unique(exps, return_inverse=True)
        for k, c in zip(keys.tolist(), np.bincount(inverse, weight).tolist()):
            self.counts[k] = self.counts.get(k, 0) + int(c)
        lo = float(pos.min())
        hi = float(pos.max())
        self.vmin = lo if self.vmin is None else min(self.vmin, lo)
        self.vmax = hi if self.vmax is None else max(self.vmax, hi)

    @property
    def mean(self) -> float | None:
        n = self.count - self.n_nonpositive
        return self.total / n if n else None

    def merge(self, other: "Histogram") -> None:
        for k, c in other.counts.items():
            self.counts[k] = self.counts.get(k, 0) + c
        self.count += other.count
        self.total += other.total
        self.n_nonpositive += other.n_nonpositive
        if other.vmin is not None:
            self.vmin = (
                other.vmin if self.vmin is None else min(self.vmin, other.vmin)
            )
        if other.vmax is not None:
            self.vmax = (
                other.vmax if self.vmax is None else max(self.vmax, other.vmax)
            )


class MetricsRegistry:
    """A named collection of metrics; picklable, mergeable, JSON-able.

    Metric names are dotted strings (``"step2.hit_pairs"``).  Accessors
    create-on-first-use, so instrumentation sites never need set-up code;
    a name is bound to one metric kind for the registry's lifetime and
    re-using it with a different kind raises :class:`ValueError`.
    """

    __slots__ = ("_metrics",)

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}

    # -------------------------------------------------------------- #
    # Accessors (create on first use)
    # -------------------------------------------------------------- #

    def _typed(self, name: str, kind):
        m = self._metrics.get(name)
        if m is None:
            m = kind()
            self._metrics[name] = m
        elif not isinstance(m, kind):
            raise ValueError(
                f"metric {name!r} is a {type(m).__name__}, not a {kind.__name__}"
            )
        return m

    def counter(self, name: str) -> Counter:
        return self._typed(name, Counter)

    def gauge(self, name: str, mode: str = "last") -> Gauge:
        m = self._metrics.get(name)
        if m is None:
            m = Gauge(mode=mode)
            self._metrics[name] = m
        elif not isinstance(m, Gauge):
            raise ValueError(f"metric {name!r} is not a gauge")
        elif m.mode != mode:
            raise ValueError(
                f"gauge {name!r} registered with mode {m.mode!r}, not {mode!r}"
            )
        return m

    def histogram(self, name: str) -> Histogram:
        return self._typed(name, Histogram)

    # -------------------------------------------------------------- #
    # Convenience recording API (what instrumentation sites call)
    # -------------------------------------------------------------- #

    def inc(self, name: str, n: int = 1) -> None:
        self.counter(name).inc(n)

    def set_gauge(self, name: str, value: float, mode: str = "last") -> None:
        self.gauge(name, mode).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).record(value)

    def observe_array(self, name: str, values) -> None:
        self.histogram(name).record_array(values)

    # -------------------------------------------------------------- #
    # Reading
    # -------------------------------------------------------------- #

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def value(self, name: str, default=0):
        """Scalar value of a counter/gauge (``default`` when absent)."""
        m = self._metrics.get(name)
        if m is None:
            return default
        if isinstance(m, Histogram):
            raise ValueError(f"metric {name!r} is a histogram; use .histogram()")
        return m.value

    # -------------------------------------------------------------- #
    # Merge + serialisation
    # -------------------------------------------------------------- #

    def merge(self, other: "MetricsRegistry | None") -> "MetricsRegistry":
        """Fold ``other`` into this registry (returns ``self``)."""
        if other is None:
            return self
        for name, m in other._metrics.items():
            mine = self._metrics.get(name)
            if mine is None:
                if isinstance(m, Counter):
                    mine = self.counter(name)
                elif isinstance(m, Gauge):
                    mine = self.gauge(name, m.mode)
                else:
                    mine = self.histogram(name)
            elif type(mine) is not type(m):
                raise ValueError(
                    f"cannot merge metric {name!r}: "
                    f"{type(mine).__name__} vs {type(m).__name__}"
                )
            mine.merge(m)
        return self

    def as_dict(self) -> dict:
        """JSON-safe snapshot (exact; round-trips via :meth:`from_dict`)."""
        counters = {}
        gauges = {}
        histograms = {}
        for name, m in sorted(self._metrics.items()):
            if isinstance(m, Counter):
                counters[name] = m.value
            elif isinstance(m, Gauge):
                gauges[name] = {"value": m.value, "mode": m.mode}
            else:
                histograms[name] = {
                    "count": m.count,
                    "total": m.total,
                    "min": m.vmin,
                    "max": m.vmax,
                    "n_nonpositive": m.n_nonpositive,
                    "buckets": {str(k): v for k, v in sorted(m.counts.items())},
                }
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    @classmethod
    def from_dict(cls, data: dict | None) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`as_dict` output."""
        reg = cls()
        if not data:
            return reg
        for name, v in data.get("counters", {}).items():
            reg.counter(name).value = int(v)
        for name, g in data.get("gauges", {}).items():
            gauge = reg.gauge(name, g.get("mode", "last"))
            gauge.value = None if g.get("value") is None else float(g["value"])
        for name, h in data.get("histograms", {}).items():
            hist = reg.histogram(name)
            hist.count = int(h.get("count", 0))
            hist.total = float(h.get("total", 0.0))
            hist.vmin = None if h.get("min") is None else float(h["min"])
            hist.vmax = None if h.get("max") is None else float(h["max"])
            hist.n_nonpositive = int(h.get("n_nonpositive", 0))
            hist.counts = {
                int(k): int(c) for k, c in h.get("buckets", {}).items()
            }
        return reg

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=True)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MetricsRegistry):
            return NotImplemented
        return self.as_dict() == other.as_dict()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MetricsRegistry({len(self._metrics)} metrics)"


# ------------------------------------------------------------------ #
# The step-2 funnel: canonical names + consistency checks
# ------------------------------------------------------------------ #

#: Counter names of the hit/extension funnel, in pipeline order.  The
#: engine, the parallel range tasks, and the resilient scheduler all
#: record exactly these, so per-worker registries merge into the same
#: funnel a serial run produces.
FUNNEL_COUNTERS: tuple[str, ...] = (
    "step1.windows_indexed.bank1",
    "step1.windows_indexed.bank2",
    "step1.distinct_codes.bank1",
    "step1.distinct_codes.bank2",
    "step2.seeds_enumerated",
    "step2.hit_pairs",
    "step2.hits_skipped",
    "step2.extensions_started",
    "step2.cutoff_aborts_left",
    "step2.cutoff_aborts_right",
    "step2.dropped_below_s1",
    "step2.dedup_dropped",
    "step2.hsps_kept",
    "step3.extensions",
    "step3.skipped_contained",
    "step3.duplicate_alignments",
    "step3.alignments",
    "step4.evalue_filtered",
    "step4.ownership_filtered",
    "step4.records",
)


def funnel_dict(registry: MetricsRegistry) -> dict[str, int]:
    """The funnel counters as a plain ``{name: value}`` dict (zeros kept)."""
    return {name: int(registry.value(name, 0)) for name in FUNNEL_COUNTERS}


def check_funnel(registry: MetricsRegistry) -> list[str]:
    """Internal-consistency violations of the funnel (empty == consistent).

    Checks the accounting identities the differential tests lock in:

    * every enumerated hit pair starts exactly one extension, unless a
      baseline's per-diagonal skip drops it first (ORIS never does);
    * every extension ends in exactly one of {left abort, right abort,
      dropped below S1, deduplicated away, HSP kept};
    * the funnel narrows monotonically (hits >= extensions >= HSPs kept
      >= 0), and step 3/4 never process more than step 2 produced.
    """
    f = funnel_dict(registry)
    problems: list[str] = []

    def expect(cond: bool, message: str) -> None:
        if not cond:
            problems.append(message)

    expect(
        f["step2.hit_pairs"]
        == f["step2.extensions_started"] + f["step2.hits_skipped"],
        f"hit_pairs ({f['step2.hit_pairs']}) != extensions_started "
        f"({f['step2.extensions_started']}) + hits_skipped "
        f"({f['step2.hits_skipped']})",
    )
    outcomes = (
        f["step2.cutoff_aborts_left"]
        + f["step2.cutoff_aborts_right"]
        + f["step2.dropped_below_s1"]
        + f["step2.dedup_dropped"]
        + f["step2.hsps_kept"]
    )
    expect(
        outcomes == f["step2.extensions_started"],
        f"extension outcomes ({outcomes}) != extensions_started "
        f"({f['step2.extensions_started']})",
    )
    expect(
        f["step2.extensions_started"] >= f["step2.hsps_kept"] >= 0,
        "funnel must narrow: extensions >= hsps_kept >= 0",
    )
    expect(
        f["step3.extensions"] <= f["step2.hsps_kept"],
        f"step3 extensions ({f['step3.extensions']}) exceed step2 "
        f"hsps_kept ({f['step2.hsps_kept']})",
    )
    expect(
        f["step3.extensions"] + f["step3.skipped_contained"]
        >= f["step3.alignments"],
        "step3 alignments exceed extensions + skips",
    )
    expect(
        f["step4.records"]
        + f["step4.evalue_filtered"]
        + f["step4.ownership_filtered"]
        == f["step3.alignments"],
        f"records ({f['step4.records']}) + evalue_filtered "
        f"({f['step4.evalue_filtered']}) + ownership_filtered "
        f"({f['step4.ownership_filtered']}) != alignments "
        f"({f['step3.alignments']})",
    )
    return problems


def format_funnel(registry: MetricsRegistry, prefix: str = "# ") -> str:
    """Human-readable funnel table (the ``--stats`` rendering)."""
    f = funnel_dict(registry)
    rows: list[tuple[str, str]] = [
        (
            "step1 windows indexed",
            f"bank1={f['step1.windows_indexed.bank1']} "
            f"bank2={f['step1.windows_indexed.bank2']}",
        ),
        (
            "step1 distinct codes",
            f"bank1={f['step1.distinct_codes.bank1']} "
            f"bank2={f['step1.distinct_codes.bank2']}",
        ),
        ("step2 seeds enumerated", str(f["step2.seeds_enumerated"])),
        ("step2 hit pairs", str(f["step2.hit_pairs"])),
        ("step2 hits skipped", str(f["step2.hits_skipped"])),
        ("step2 extensions started", str(f["step2.extensions_started"])),
        (
            "step2 cutoff aborts",
            f"left={f['step2.cutoff_aborts_left']} "
            f"right={f['step2.cutoff_aborts_right']}",
        ),
        ("step2 dropped below S1", str(f["step2.dropped_below_s1"])),
        ("step2 dedup dropped", str(f["step2.dedup_dropped"])),
        ("step2 HSPs kept", str(f["step2.hsps_kept"])),
        (
            "step3 gapped extensions",
            f"{f['step3.extensions']} "
            f"(skipped contained={f['step3.skipped_contained']})",
        ),
        ("step3 duplicate alignments", str(f["step3.duplicate_alignments"])),
        ("step3 alignments", str(f["step3.alignments"])),
        ("step4 e-value filtered", str(f["step4.evalue_filtered"])),
        ("step4 ownership filtered", str(f["step4.ownership_filtered"])),
        ("step4 records", str(f["step4.records"])),
    ]
    width = max(len(label) for label, _ in rows)
    lines = [f"{prefix}funnel:"]
    lines += [f"{prefix}  {label.ljust(width)}  {value}" for label, value in rows]
    return "\n".join(lines)
