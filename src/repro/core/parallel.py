"""Seed-space-partitioned step 2 (paper section 4).

"The structure of the algorithm is also well suited for fine grained
parallelism, especially step 2 and step 3.  As a matter of fact, the outer
loop of step 2 which considers all the possible 4^W seeds can be run in
parallel since seed order prevents identical HSPs to be generated.  The
two inner loops can also be highly parallelized as the ungapped extensions
refer to independent computations."

This module holds the unit of work of that decomposition: the ascending
list of common seed codes is split into contiguous, pair-cost-balanced
ranges (:func:`plan_ranges`); :func:`run_range` runs the engine's step-2
loop (:func:`repro.core.engine.extend_hit_pairs`) over one range; the
parent merges the per-range HSP chunks (:func:`merge_range_results`) and
runs steps 3-4 as usual.  Correctness needs no inter-worker
communication precisely because of the paper's argument -- the
ordered-seed cutoff makes every HSP the product of exactly one seed,
hence of exactly one range.

Workers receive a :class:`RangePayload`: a *compact*, picklable bundle of
exactly the arrays one range task needs (encoded banks, CSR positions,
cutoff codes, the common-code extents, scoring parameters), or a
:class:`ShmRangePayload` whose arrays live in a shared-memory arena.

The processes themselves belong to the fault-tolerant scheduler in
:mod:`repro.runtime.scheduler` (``compare_resilient`` and the query
service); range tasks are idempotent and restartable because each one is
a pure function of the payload, which is what makes retries, requeues,
and checkpoint/resume sound.
"""

from __future__ import annotations

import multiprocessing as mp
import warnings
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from ..align.hsp import HSPTable
from ..index.seed_index import CommonCodes, CsrSeedIndex
from ..obs import MetricsRegistry, ObsSpec, init_worker_obs, maybe_profile, span
from .engine import WorkCounters, extend_hit_pairs
from .pairs import pair_costs, split_balanced_ranges
from .params import OrisParams

__all__ = [
    "RangePayload",
    "RangeResult",
    "ShmRangePayload",
    "build_range_payload",
    "publish_range_payload",
    "run_range",
    "resolve_start_method",
    "plan_ranges",
]

# --------------------------------------------------------------------- #
# The unit of work: one contiguous slice of the common-code list
# --------------------------------------------------------------------- #


@dataclass
class RangePayload:
    """Everything a step-2 range task needs, compact and picklable.

    This deliberately carries *arrays*, not index objects: the encoded
    banks, the CSR position lists, the cutoff-code arrays, and the
    common-code extents.  Pickling it (spawn start method, or shipping to
    a fresh retry worker) costs one copy of data the workers need anyway,
    with none of the index-construction caches.
    """

    seq1: np.ndarray
    seq2: np.ndarray
    positions1: np.ndarray
    positions2: np.ndarray
    cutoff_codes1: np.ndarray
    codes: np.ndarray
    start1: np.ndarray
    count1: np.ndarray
    start2: np.ndarray
    count2: np.ndarray
    span: int
    #: Exactly one is set: bank 2's cutoff codes for spaced/subset seeds,
    #: its enumerability mask for contiguous seeds.
    ok2: np.ndarray | None
    codes2: np.ndarray | None
    params: OrisParams
    threshold: int
    #: Observability configuration shipped to workers (trace path, profile
    #: mode/dir); ``None`` keeps workers dark.  Carried on the payload so
    #: spawn-started workers -- which inherit no module state -- re-arm
    #: tracing/profiling themselves (see :func:`repro.obs.init_worker_obs`).
    obs: ObsSpec | None = field(default=None, repr=False)

    @property
    def n_codes(self) -> int:
        return int(self.codes.shape[0])


@dataclass
class RangeResult:
    """HSPs and work counters of one completed range task."""

    start1: np.ndarray
    end1: np.ndarray
    start2: np.ndarray
    score: np.ndarray
    n_pairs: int
    n_cut: int
    steps: int
    #: Per-task funnel metrics; ``None`` on results restored from legacy
    #: checkpoint journals (the merge treats that as an empty registry).
    metrics: MetricsRegistry | None = None

    @property
    def n_hsps(self) -> int:
        return int(self.start1.shape[0])


def build_range_payload(
    index1: CsrSeedIndex,
    index2: CsrSeedIndex,
    common: CommonCodes,
    params: OrisParams,
    threshold: int,
    obs: ObsSpec | None = None,
) -> RangePayload:
    """Flatten two indexes + their common codes into a worker payload."""
    spaced = index1.mask is not None
    return RangePayload(
        seq1=index1.bank.seq,
        seq2=index2.bank.seq,
        positions1=index1.positions,
        positions2=index2.positions,
        cutoff_codes1=index1.cutoff_codes,
        codes=common.codes,
        start1=common.start1,
        count1=common.count1,
        start2=common.start2,
        count2=common.count2,
        span=index1.span,
        ok2=None if spaced else index2.indexed_mask,
        codes2=index2.cutoff_codes if spaced else None,
        params=params,
        threshold=threshold,
        obs=obs,
    )


#: Array-valued RangePayload fields, in declaration order.  The two
#: optional ones (ok2/codes2) join the arena only when present.
_PAYLOAD_ARRAY_FIELDS = (
    "seq1",
    "seq2",
    "positions1",
    "positions2",
    "cutoff_codes1",
    "codes",
    "start1",
    "count1",
    "start2",
    "count2",
)
_PAYLOAD_OPTIONAL_FIELDS = ("ok2", "codes2")


@dataclass
class ShmRangePayload:
    """A :class:`RangePayload` whose arrays live in a shared-memory arena.

    Pickling this ships the :class:`~repro.runtime.shm.ArenaSpec` (block
    name + array table, a few hundred bytes) plus the scalar fields --
    never the banks or indexes.  Workers call :meth:`resolve` (or just
    pass it to :func:`run_range`, which resolves transparently) to attach
    read-only views onto the parent's pages; the attach is cached per
    process, so retry workers and multi-task workers map the block once.
    """

    spec: object  # ArenaSpec (typed loosely: core must not import runtime)
    span: int
    params: OrisParams
    threshold: int
    obs: ObsSpec | None = field(default=None, repr=False)

    def resolve(self) -> RangePayload:
        """Attach the arena and rebuild the concrete payload (zero-copy)."""
        views = self.spec.attach()
        return RangePayload(
            **{f: views[f] for f in _PAYLOAD_ARRAY_FIELDS},
            span=self.span,
            ok2=views.get("ok2"),
            codes2=views.get("codes2"),
            params=self.params,
            threshold=self.threshold,
            obs=self.obs,
        )


def publish_range_payload(
    payload: RangePayload,
    registry: MetricsRegistry | None = None,
    base_spec=None,
):
    """Copy a payload's arrays into a shared-memory arena, once.

    Returns ``(arena, shm_payload)``.  The caller owns the arena and must
    ``close()`` it (a ``finally`` in the comparison entry points) -- the
    views workers hold stay valid until their last mapping drops, so the
    parent may unlink as soon as the pool is done.  Raises
    :class:`~repro.runtime.errors.ResourceExhausted` when ``/dev/shm``
    cannot hold the arrays; callers degrade to the pickled payload.

    ``base_spec`` is an already-published
    :class:`~repro.runtime.shm.ArenaSpec` whose fields should *not* be
    copied again: the serving daemon publishes the big subject-side
    arrays once at startup and every micro-batch then only pays for its
    small query-side arrays.  The returned payload carries an
    :class:`~repro.runtime.shm.ArenaGroupSpec` joining both blocks.
    """
    from ..runtime.shm import ArenaGroupSpec, SharedArena

    base_fields = (
        {e.field for e in base_spec.entries} if base_spec is not None else set()
    )
    arrays = {
        f: getattr(payload, f)
        for f in _PAYLOAD_ARRAY_FIELDS
        if f not in base_fields
    }
    for f in _PAYLOAD_OPTIONAL_FIELDS:
        arr = getattr(payload, f)
        if arr is not None and f not in base_fields:
            arrays[f] = arr
    arena = SharedArena(arrays)
    if registry is not None:
        registry.inc("shm.bytes_published", arena.nbytes)
    spec = (
        arena.spec
        if base_spec is None
        else ArenaGroupSpec(specs=(base_spec, arena.spec))
    )
    shm_payload = ShmRangePayload(
        spec=spec,
        span=payload.span,
        params=payload.params,
        threshold=payload.threshold,
        obs=payload.obs,
    )
    return arena, shm_payload


def plan_ranges(
    common: CommonCodes,
    n_tasks: int,
    params: OrisParams,
    registry: MetricsRegistry | None = None,
) -> list[tuple[int, int]]:
    """Partition the common-code list into range tasks.

    Equalises X1*X2 pair cost across chunks via
    :func:`~repro.core.pairs.split_balanced_ranges`.  Chunk costs land in
    the ``sched.chunk_cost_pairs`` histogram and the achieved max/min
    ratio in the ``sched.chunk_cost_ratio`` gauge.
    """
    costs = pair_costs(common, params.max_occurrences)
    ranges = split_balanced_ranges(costs, n_tasks)
    if registry is not None and ranges:
        csum = np.concatenate(([0], np.cumsum(costs)))
        chunk_costs = np.array(
            [int(csum[hi] - csum[lo]) for lo, hi in ranges], dtype=np.int64
        )
        registry.observe_array("sched.chunk_cost_pairs", chunk_costs)
        nonzero = chunk_costs[chunk_costs > 0]
        if nonzero.size:
            registry.set_gauge(
                "sched.chunk_cost_ratio",
                float(nonzero.max()) / float(nonzero.min()),
                mode="max",
            )
    return ranges


def run_range(
    payload: RangePayload | ShmRangePayload, lo: int, hi: int
) -> RangeResult:
    """Run step 2 over ``payload.codes[lo:hi]`` (pure, idempotent).

    The result depends only on the payload and the range bounds, so a
    crashed or timed-out execution can simply be repeated -- the paper's
    one-seed-one-HSP argument guarantees no other task produces any of
    these HSPs.  Shared-memory payloads resolve to read-only views here,
    in the executing process.
    """
    if isinstance(payload, ShmRangePayload):
        payload = payload.resolve()
    init_worker_obs(payload.obs)
    obs = payload.obs
    with maybe_profile(
        obs.profile_mode if obs else "none",
        obs.profile_dir if obs else None,
        f"range-{lo}-{hi}",
    ):
        with span("step2.range", lo=lo, hi=hi) as sp:
            result = _run_range_inner(payload, lo, hi)
            sp.set(n_pairs=result.n_pairs, n_hsps=result.n_hsps)
    return result


def _run_range_inner(payload: RangePayload, lo: int, hi: int) -> RangeResult:
    counters = WorkCounters()
    registry = MetricsRegistry()
    sub = CommonCodes(
        codes=payload.codes[lo:hi],
        start1=payload.start1[lo:hi],
        count1=payload.count1[lo:hi],
        start2=payload.start2[lo:hi],
        count2=payload.count2[lo:hi],
    )
    # The chunk loop only touches .positions on the index arguments.
    table = extend_hit_pairs(
        payload.seq1,
        payload.seq2,
        SimpleNamespace(positions=payload.positions1),
        SimpleNamespace(positions=payload.positions2),
        sub,
        payload.cutoff_codes1,
        payload.span,
        payload.params,
        payload.threshold,
        ok2=payload.ok2,
        codes2=payload.codes2,
        counters=counters,
        registry=registry,
    )
    s1, e1, s2, sc = table.columns()
    return RangeResult(
        start1=s1, end1=e1, start2=s2, score=sc,
        n_pairs=counters.n_pairs, n_cut=counters.n_cut,
        steps=counters.ungapped_steps, metrics=registry,
    )


# --------------------------------------------------------------------- #
# Start method
# --------------------------------------------------------------------- #


def resolve_start_method(preferred: str | None = None) -> str | None:
    """Pick a multiprocessing start method, warning on non-``fork``.

    Returns ``None`` when multiprocessing is unusable (no start method at
    all), which callers treat as "run serially".  ``fork`` is preferred
    (copy-on-write payload, no pickling); ``spawn``/``forkserver`` work
    through the pickled payload and are announced with an explicit
    warning so slow start-up is never silent.
    """
    available = mp.get_all_start_methods()
    if preferred is not None:
        if preferred not in available:
            warnings.warn(
                f"multiprocessing start method {preferred!r} unavailable "
                f"(have: {available}); falling back to serial execution",
                RuntimeWarning,
                stacklevel=3,
            )
            return None
        method = preferred
    elif "fork" in available:
        method = "fork"
    elif available:
        method = available[0]
    else:  # pragma: no cover - no known platform hits this
        warnings.warn(
            "no multiprocessing start method available; running serially",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    if method != "fork":
        warnings.warn(
            f"fork start method unavailable or not selected; using "
            f"{method!r} (worker payloads are pickled once per worker)",
            RuntimeWarning,
            stacklevel=3,
        )
    return method


# --------------------------------------------------------------------- #
# Parent-side orchestration
# --------------------------------------------------------------------- #


def merge_range_results(
    results: dict[int, RangeResult] | list[RangeResult],
    counters: WorkCounters,
    registry: MetricsRegistry | None = None,
) -> HSPTable:
    """Fold completed range tasks (ascending task order) into one table.

    Per-task metric registries merge additively into ``registry``
    (partition-invariant, so the funnel equals a serial run's); results
    restored from legacy checkpoints may carry no registry and then only
    contribute their coarse counters.
    """
    table = HSPTable()
    if isinstance(results, dict):
        ordered = [results[k] for k in sorted(results)]
    else:
        ordered = results
    for res in ordered:
        counters.n_pairs += res.n_pairs
        counters.n_cut += res.n_cut
        counters.ungapped_steps += res.steps
        if registry is not None:
            registry.merge(getattr(res, "metrics", None))
        table.append_chunk(res.start1, res.end1, res.start2, res.score)
    counters.n_hsps = len(table)
    return table
