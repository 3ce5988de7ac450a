"""Batch comparison core of the query service.

One micro-batch = one ORIS comparison.  The batcher hands this engine a
list of ``(name, sequence)`` queries; they are concatenated into a
single ephemeral query bank, indexed once, and pushed through the
existing step-2 fan-out (:func:`~repro.runtime.scheduler.run_step2` over
the daemon's persistent :class:`~repro.runtime.scheduler.WorkerPool`) in
*one* pass.  The responses are per-query ``-m 8`` slices.

The hard requirement -- enforced by a hypothesis property test and the
CI smoke test -- is that each slice is **byte-identical** to running
``compare`` on that query alone.  Three quantities in the pipeline
depend on the query bank and would drift under naive batching; each is
handled explicitly:

* **per-code occurrence caps** (``max_occurrences``) and the pair
  enumeration itself: the merged bank's common-code list is *expanded
  into per-query entries* (:func:`expand_common_per_query`).  Positions
  inside one code's CSR run ascend, and each query occupies a disjoint
  global range, so the run splits into query-contiguous sub-runs; each
  sub-run becomes its own entry with the *per-query* ``count1``.  Pair
  order (code-major, then bank-1 position, then bank-2 position) and
  the occurrence cap then match the single-query run exactly.
* **the S1 threshold** (a function of ``bank1.size_nt``): the shared
  step-2 pass runs at the *minimum* threshold over the batch (a pure
  keep-filter relaxation -- extensions themselves never see S1), and
  the demultiplexer re-applies each query's own threshold.
* **e-values and final sorting** (functions of the query bank): step
  3's kernel runs once per batch, over every query's lanes in
  merged-bank coordinates (:meth:`BatchEngine._step3`; a lane dies on
  the separator that ends its query, so it never reads another), then
  steps 3-4 finish per query, on a fresh single-query bank with the HSP
  coordinates rebased -- literally the same code on the same inputs as
  a single-shot run, handed its lanes' kernel results.

The ordered-seed cutoff itself is query-local: cutoff codes and the
bank-2 enumerability mask are per-position properties, extensions
hard-stop on the separators that bound each query, and same-code
tie-breaks compare positions within one query only.  Batching therefore
cannot change which HSPs the cutoff produces -- the paper's
one-seed-one-HSP argument survives concatenation.
"""

from __future__ import annotations

import threading
import time
import warnings
from dataclasses import dataclass, replace

import numpy as np

from ..align.evalue import karlin_params
from ..align.gapped import BatchGappedResult, batch_gapped_extend
from ..core.engine import OrisEngine, finish_comparison
from ..core.gapped_stage import gapped_lanes
from ..core.parallel import build_range_payload, plan_ranges
from ..core.params import OrisParams
from ..align.hsp import HSPTable
from ..encoding import encode
from ..filters import make_filter_mask
from ..index.seed_index import CommonCodes, CsrSeedIndex
from ..io.bank import Bank
from ..io.m8 import format_m8
from ..obs import MetricsRegistry, ObsSpec, span
from ..runtime import faults
from ..runtime.errors import PoolUnhealthy, ResourceExhausted, TaskPoisoned
from ..runtime.scheduler import (
    RuntimeConfig,
    ShutdownRequest,
    WorkerPool,
    run_step2,
)
from ..runtime.shm import SharedArena, detach_block

__all__ = ["BatchEngine", "expand_common_per_query"]

#: Most lanes one step-3 kernel call of a batch holds.  The kernel's
#: band state and move trace take ~2 KB a lane (tracemalloc peak 4.4 MB
#: at 2 048 lanes, 16 MB at 9 278, EST1 queries against EST7), so a call
#: stays under ~4 MB however many queries the batch holds.  A query is
#: never split: one with more lanes gets a call of its own.  The heaviest
#: EST1 queries against EST7 hold ~3 600 lanes alone, so a merged call
#: holds no more than the single-query calls already did.
STEP3_BATCH_LANES = 2048


@dataclass(frozen=True)
class _Subject:
    """One immutable snapshot of the engine's subject side.

    The batcher thread reads ``self._subject`` exactly once per batch
    and works off the snapshot, so a mutation thread can swap in a new
    one mid-service without any batch ever seeing a half-updated
    subject: in-flight batches finish on the snapshot they started
    with, the next batch picks up the new one.
    """

    bank: Bank
    index: CsrSeedIndex
    arena: SharedArena | None
    spec: object | None
    generation: int
    #: Per-sequence e-value lengths (fleet shards: the *original* full
    #: sequence lengths from the fleet profile); ``None`` = use actual.
    evalue_lengths: np.ndarray | None = None


def expand_common_per_query(
    common: CommonCodes, positions1: np.ndarray, query_starts: np.ndarray
) -> tuple[CommonCodes, np.ndarray]:
    """Split each common-code entry into one entry per owning query.

    ``positions1`` is the merged query index's position array and
    ``query_starts`` the global start offset of each query in the merged
    bank.  Returns ``(expanded, owners)`` where ``expanded`` has one
    entry per (code, query) combination that actually occurs -- with
    ``count1`` equal to that query's occurrence count -- and ``owners``
    names the query of each expanded entry.  Entry order is code-major,
    query-minor, so any contiguous range partition preserves each
    query's own code-ascending enumeration order.
    """
    n = common.n_codes
    if n == 0:
        empty = np.empty(0, dtype=np.int64)
        return common, empty
    counts = common.count1.astype(np.int64)
    total = int(counts.sum())
    # Concatenated view of every entry's position run, entry-major.
    entry_ids = np.repeat(np.arange(n, dtype=np.int64), counts)
    offs = np.concatenate(([0], np.cumsum(counts)))[:-1]
    rank = np.arange(total, dtype=np.int64) - offs[entry_ids]
    pos_idx = common.start1.astype(np.int64)[entry_ids] + rank
    owner_of_pos = (
        np.searchsorted(query_starts, positions1[pos_idx], side="right") - 1
    )
    # Positions inside a run ascend and queries occupy disjoint global
    # ranges, so (entry, owner) changes are run boundaries.
    boundary = np.empty(total, dtype=bool)
    boundary[0] = True
    boundary[1:] = (entry_ids[1:] != entry_ids[:-1]) | (
        owner_of_pos[1:] != owner_of_pos[:-1]
    )
    run_starts = np.nonzero(boundary)[0]
    run_entry = entry_ids[run_starts]
    expanded = CommonCodes(
        codes=common.codes[run_entry],
        start1=pos_idx[run_starts],
        count1=np.diff(np.concatenate((run_starts, [total]))).astype(np.int64),
        start2=common.start2[run_entry],
        count2=common.count2[run_entry],
    )
    return expanded, owner_of_pos[run_starts].astype(np.int64)


class BatchEngine:
    """Warm-subject ORIS engine answering query micro-batches.

    Owns the loaded-once subject state of the daemon: the subject bank's
    CSR index (mmap-loaded through an
    :class:`~repro.index.persist.IndexCache` when one is given), the
    published subject-side shared-memory arena, and the persistent
    worker pool.  :meth:`run_batch` is called from the single batcher
    thread; :meth:`close` from the daemon's shutdown path.
    """

    def __init__(
        self,
        bank2: Bank | None = None,
        params: OrisParams | None = None,
        n_workers: int = 1,
        start_method: str | None = None,
        index_cache=None,
        use_shm: bool = True,
        tasks_per_worker: int = 4,
        registry: MetricsRegistry | None = None,
        obs: ObsSpec | None = None,
        task_timeout: float | None = None,
        store=None,
        store_flush_nt: int = 8_000_000,
        store_max_segments: int = 8,
        fleet_profile=None,
    ):
        p = params or OrisParams()
        if (bank2 is None) == (store is None):
            raise ValueError(
                "give the engine exactly one subject source: a static "
                "bank2 or a SegmentStore"
            )
        if fleet_profile is not None and store is not None:
            raise ValueError(
                "a fleet shard serves an immutable tile: --fleet-profile "
                "and --store are mutually exclusive (mutation would "
                "invalidate the planner's global statistics)"
            )
        if p.strand != "plus":
            raise ValueError("the query service searches a single strand")
        if not p.ordered_cutoff:
            raise ValueError("the query service requires the ordered cutoff")
        if p.spaced_seed or p.subset_seed or p.asymmetric:
            raise ValueError(
                "the query service supports contiguous seeds only "
                "(spaced/subset/asymmetric modes are batch-engine features)"
            )
        self.params = p
        self.store = store
        #: Fleet-shard statistics override: S1 thresholds and e-values
        #: are computed as if this daemon served the planner's *whole*
        #: bank, so shard output bytes merge seamlessly (see
        #: :mod:`repro.core.tiled`).
        self.fleet_profile = fleet_profile
        self.store_flush_nt = store_flush_nt
        self.store_max_segments = store_max_segments
        self.registry = registry if registry is not None else MetricsRegistry()
        self.obs = obs
        self.stats = karlin_params(p.scoring)
        self._engine = OrisEngine(p)
        self._never_stop = ShutdownRequest()  # batches always run to completion
        with span("serve.load_subject"):
            if store is not None:
                bank2, index2 = store.merged()
                store.record_metrics(self.registry)
            elif index_cache is not None:
                index2 = index_cache.get(bank2, p.w, p.filter_kind)
                index_cache.record_metrics(self.registry)
            else:
                index2 = CsrSeedIndex(
                    bank2, p.w, make_filter_mask(bank2, p.filter_kind)
                )
        index2.record_metrics(self.registry, "bank2")
        self.config = RuntimeConfig(
            n_workers=max(n_workers, 1),
            tasks_per_worker=tasks_per_worker,
            use_shm=use_shm and n_workers > 1,
            start_method=start_method,
            # Strict: a poisoned range or an unhealthy pool must *raise*
            # out of run_batch -- the batcher's bisection owns failure
            # isolation, so silently degraded (partial) answers here
            # would violate byte-equivalence with single-shot compare.
            strict=True,
            # A hung worker is only detectable by deadline; bound every
            # range task so a wedged batch resolves instead of wedging
            # the daemon (the scheduler kills and requeues on expiry).
            task_timeout=task_timeout,
        )
        self.pool = WorkerPool(
            self.config.n_workers, start_method, registry=self.registry
        )
        # Publish the subject-side arrays once per subject generation:
        # every batch's workers attach the same pages, so per-request
        # cost is query-sized.  Mutations publish a *new* subject
        # snapshot (bank + index + arena) and retire the old one; the
        # old arena is unlinked only after the in-flight batch finishes
        # (see :meth:`_reap_retired`), so no worker ever attaches a
        # vanished block mid-batch.
        self._mutate_lock = threading.Lock()
        self._retired_lock = threading.Lock()
        self._retired: list[SharedArena] = []
        generation = store.generation if store is not None else 0
        self._subject = self._publish_subject(bank2, index2, generation)

    @property
    def bank2(self) -> Bank:
        """The *current* subject bank (snapshot-read by each batch)."""
        return self._subject.bank

    @property
    def index2(self) -> CsrSeedIndex:
        """The *current* subject index (snapshot-read by each batch)."""
        return self._subject.index

    @property
    def subject_generation(self) -> int:
        """Segment-store generation of the current subject (0 = static)."""
        return self._subject.generation

    def _publish_subject(
        self, bank: Bank, index: CsrSeedIndex, generation: int
    ) -> _Subject:
        """Build one subject snapshot, shm arena included (best-effort)."""
        arena: SharedArena | None = None
        spec = None
        if self.config.use_shm:
            try:
                arena = SharedArena(
                    {
                        "seq2": bank.seq,
                        "positions2": index.positions,
                        "ok2": index.indexed_mask,
                    }
                )
                spec = arena.spec
                self.registry.inc("shm.bytes_published", arena.nbytes)
            except ResourceExhausted as exc:
                warnings.warn(
                    f"{exc}; serving without the shared subject arena",
                    RuntimeWarning,
                    stacklevel=2,
                )
                self.config = replace(self.config, use_shm=False)
        lengths = None
        if self.fleet_profile is not None:
            lengths = self.fleet_profile.subject_lengths_for(bank)
        return _Subject(
            bank=bank, index=index, arena=arena, spec=spec,
            generation=generation, evalue_lengths=lengths,
        )

    def _reap_retired(self) -> None:
        """Unlink arenas of superseded subjects (batcher thread only).

        Called at the top of :meth:`run_batch`: the previous batch has
        fully completed, so no worker still needs a retired subject's
        pages.  Workers drop their own stale mappings on the next
        payload switch (the scheduler diffs block names).
        """
        with self._retired_lock:
            retired, self._retired = self._retired, []
        for arena in retired:
            block = arena.spec.block
            arena.close()
            detach_block(block)
            self.registry.inc("serve.subject_arenas_reaped")

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def close(self) -> None:
        """Stop pooled workers and unlink subject arenas (idempotent)."""
        self.pool.stop()
        self._reap_retired()
        subject = self._subject
        if subject.arena is not None:
            subject.arena.close()
            self._subject = _Subject(
                bank=subject.bank,
                index=subject.index,
                arena=None,
                spec=None,
                generation=subject.generation,
            )
        if self.store is not None:
            self.store.close()

    def __enter__(self) -> "BatchEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def health(self) -> dict:
        """Pool and arena component states (the daemon's ``health`` op)."""
        subject = self._subject
        arena_ok = (not self.config.use_shm) or subject.arena is not None
        components = {
            "pool": self.pool.health(),
            "arena": {
                "ok": arena_ok,
                "shm": self.config.use_shm,
                "bytes": (
                    int(subject.arena.nbytes)
                    if subject.arena is not None
                    else 0
                ),
            },
        }
        if self.store is not None:
            components["store"] = self.store.health()
        return components

    # ------------------------------------------------------------------ #
    # Bank mutation (segment-store daemons only)
    # ------------------------------------------------------------------ #

    def _require_store(self):
        if self.store is None:
            raise ValueError(
                "this daemon serves an immutable bank; start serve with "
                "--store to enable bank mutation"
            )
        return self.store

    def add_sequences(self, records: list[tuple[str, str]]) -> dict:
        """Durably add sequences, then swap in the new subject."""
        store = self._require_store()
        with self._mutate_lock:
            store.add_many(records)
            if store.delta_nt >= self.store_flush_nt:
                store.flush()
            if store.n_segments > self.store_max_segments:
                store.compact()
            self.registry.inc("serve.sequences_added", len(records))
            return self._swap_subject()

    def remove_sequences(self, names: list[str]) -> dict:
        """Durably remove sequences by name, then swap in the new subject."""
        store = self._require_store()
        with self._mutate_lock:
            if len(set(names)) >= store.n_sequences:
                raise ValueError(
                    "refusing to remove every sequence: the daemon needs "
                    "a non-empty subject bank"
                )
            store.remove_many(names)
            self.registry.inc("serve.sequences_removed", len(names))
            return self._swap_subject()

    def reindex(self) -> dict:
        """Compact the store to one segment and swap in the new subject."""
        store = self._require_store()
        with self._mutate_lock:
            store.compact()
            return self._swap_subject()

    def _swap_subject(self) -> dict:
        """Publish the store's current merged view as the live subject.

        The swap is one reference assignment: queries admitted before it
        finish on the old snapshot, queries batched after it see the new
        bank -- nothing is refused, nothing blocks.  The old arena goes
        on the retire list for the batcher thread to unlink after the
        in-flight batch completes.
        """
        store = self.store
        bank, index = store.merged()
        subject = self._publish_subject(bank, index, store.generation)
        old = self._subject
        self._subject = subject
        if old.arena is not None:
            with self._retired_lock:
                self._retired.append(old.arena)
        index.record_metrics(self.registry, "bank2")
        store.record_metrics(self.registry)
        self.registry.inc("serve.subject_swaps")
        return {
            "generation": subject.generation,
            "n_sequences": bank.n_sequences,
            "size_nt": bank.size_nt,
            "store": store.health(),
        }

    # ------------------------------------------------------------------ #
    # Per-query parameters
    # ------------------------------------------------------------------ #

    def _query_threshold(self, qbank: Bank, subject: _Subject) -> int:
        """The S1 threshold a single-shot run of *qbank* would use.

        A fleet shard substitutes the *global* bank's size and sequence
        count so its threshold equals the monolithic daemon's.
        """
        return self._engine._resolve_hsp_min_score(
            qbank, subject.bank, self.stats, self.fleet_profile
        )

    # ------------------------------------------------------------------ #
    # One batch
    # ------------------------------------------------------------------ #

    def run_batch(self, queries: list[tuple[str, str]]) -> list[str]:
        """Compare every query against the subject bank in one pass.

        Returns one ``-m 8`` text per query, in input order, each
        byte-identical to a single-shot ``compare`` of that query.
        """
        if not queries:
            return []
        if faults.armed():
            # Chaos hook: a designated query deterministically fails its
            # batch, exercising the batcher's bisection + quarantine.
            for name, _seq in queries:
                if faults.should_fire("serve.poison_query", name):
                    raise TaskPoisoned(
                        f"fault injection: query {name!r} poisons its batch"
                    )
        t_batch = time.perf_counter()
        # Snapshot the subject once: the whole batch -- thresholds,
        # step 2, e-values -- runs against one consistent generation
        # even if a mutation swaps the live subject mid-batch.  Retired
        # arenas are reaped first: the previous batch has completed, so
        # their pages are no longer needed by anyone.
        self._reap_retired()
        subject = self._subject
        encoded = [encode(seq) for _name, seq in queries]
        names = [name for name, _seq in queries]
        qbanks = [Bank([n], [e]) for n, e in zip(names, encoded)]
        merged = Bank(names, encoded)
        thresholds = [self._query_threshold(b, subject) for b in qbanks]

        try:
            with span("serve.batch", n_queries=len(queries)):
                tables = self._step2(
                    subject, merged, min(thresholds), thresholds
                )
                # Each call's queries finish before the next call runs,
                # so no call's kernel results outlive their queries.
                out: list[str] = []
                for lo, hi in _step3_calls(tables):
                    kernels = self._step3(subject, merged, tables, lo, hi)
                    out += [
                        self._finish_query(subject, qbanks[q], tables[q], kernel)
                        for q, kernel in zip(range(lo, hi), kernels)
                    ]
        except PoolUnhealthy:
            # The pool burnt its failure budget on this batch.  Swap it
            # wholesale -- the next batch leases a fresh pool -- and let
            # the batcher's bisection decide who was to blame.
            self.pool.replace()
            raise
        self.registry.observe("serve.batch_size", len(queries))
        self.registry.observe("serve.batch_residues", merged.size_nt)
        self.registry.observe(
            "serve.batch_latency_seconds", time.perf_counter() - t_batch
        )
        self.registry.inc("serve.batches")
        return out

    def _step2(
        self,
        subject: _Subject,
        merged: Bank,
        batch_threshold: int,
        thresholds: list[int],
    ) -> list[HSPTable]:
        """Shared ungapped pass; demultiplexed per-query HSP tables."""
        p = self.params
        index1 = CsrSeedIndex(merged, p.w, make_filter_mask(merged, p.filter_kind))
        common = index1.common_codes(subject.index)
        expanded, _owners = expand_common_per_query(
            common, index1.positions, merged.starts
        )
        payload = build_range_payload(
            index1, subject.index, expanded, p, batch_threshold, obs=self.obs
        )
        ranges = plan_ranges(
            expanded, self.config.n_workers * self.config.tasks_per_worker, p
        )
        batch_registry = MetricsRegistry()
        try:
            table = run_step2(
                payload, ranges, self.config, self.pool, batch_registry,
                stop=self._never_stop, base_spec=subject.spec,
            )
        finally:
            self.registry.merge(batch_registry)

        s1, e1, s2, sc = table.columns()
        owner = np.searchsorted(merged.starts, s1, side="right") - 1
        tables: list[HSPTable] = []
        for q, threshold in enumerate(thresholds):
            # Re-apply this query's own S1 (the shared pass ran at the
            # batch minimum) and rebase onto the single-query bank, whose
            # sequence starts at global position 1.
            keep = (owner == q) & (sc >= threshold)
            delta = 1 - int(merged.starts[q])
            table = HSPTable()
            table.append_chunk(s1[keep] + delta, e1[keep] + delta, s2[keep], sc[keep])
            tables.append(table)
        return tables

    def _step3(
        self,
        subject: _Subject,
        merged: Bank,
        tables: list[HSPTable],
        lo: int,
        hi: int,
    ) -> list:
        """Step 3's kernel, one call for queries ``[lo, hi)`` of the batch.

        Each query's lanes (:func:`~repro.core.gapped_stage.gapped_lanes`
        of its HSPs in diagonal order, the order its own step 3 uses)
        are shifted into merged-bank coordinates, and the call runs every
        left lane, then every right lane.  Lanes are independent, and a
        lane dies on the first separator it reads, so each lane's result
        is the one the query's single-shot call computes.  Returns one
        ``gapped_kernel`` hook per query that hands it its lanes back
        (``None`` for a query with no HSP, and for the ``serial``
        schedule, which keeps its own per-query loop).
        """
        p = self.params
        kernels: list = [None] * (hi - lo)
        if p.gapped_scheduling != "single" or not any(
            len(tables[q]) for q in range(lo, hi)
        ):
            return kernels
        t0 = time.perf_counter()
        with span("step3.gapped", n_queries=hi - lo):
            shifts = [int(merged.starts[q]) - 1 for q in range(lo, hi)]
            hsps = []
            for q, d in zip(range(lo, hi), shifts):
                s1, e1, s2, _sc, _diag = tables[q].sorted_by_diagonal()
                hsps.append((s1 + d, e1 + d, s2))
            s1, e1, s2 = (np.concatenate(column) for column in zip(*hsps))
            p1, p2, dirs = gapped_lanes(s1, e1, s2)
            both = batch_gapped_extend(
                merged.seq, subject.bank.seq, p1, p2, dirs,
                p.scoring, p.band_radius,
            )
            k, a = s1.size, 0
            for i, (hs1, _he1, _hs2) in enumerate(hsps):
                b = a + hs1.size
                if b > a:
                    own = np.r_[a:b, k + a : k + b]  # its left, then right lanes
                    kernels[i] = _served_lanes(
                        p1[own] - shifts[i], p2[own], dirs[own], both.lanes(own)
                    )
                a = b
        self.registry.inc("step3.lane_rows", both.steps)
        self.registry.inc("step3.kernel_rows", both.rows)
        self.registry.set_gauge(
            "time.step3_gapped_seconds", time.perf_counter() - t0, mode="sum"
        )
        return kernels

    def _finish_query(
        self, subject: _Subject, qbank: Bank, table: HSPTable, kernel=None
    ) -> str:
        """Steps 3-4 for one query -- the single-shot code on rebased HSPs,
        with its step-3 kernel results from :meth:`_step3`."""
        p = self.params
        registry = MetricsRegistry()
        result = finish_comparison(
            qbank, subject.bank, table, p, registry,
            scheduling=p.gapped_scheduling,
            min_align_score=p.min_align_score,
            exclude_self=p.exclude_self,
            subject_lengths=subject.evalue_lengths,
            gapped_kernel=kernel,
        )
        self.registry.merge(registry)
        return format_m8(result.records)


def _step3_calls(tables: list[HSPTable]) -> list[tuple[int, int]]:
    """Pack a batch's queries, in order, into step-3 kernel calls.

    Greedy: a call takes the next query while its lanes (two per HSP)
    stay within :data:`STEP3_BATCH_LANES`.  A query is never split, so
    one with more lanes gets a call of its own, and a one-query batch
    makes exactly the single-shot call.  Returns each call's ``[lo, hi)``.
    """
    calls: list[tuple[int, int]] = []
    lo, held = 0, 0
    for q, table in enumerate(tables):
        n_lanes = 2 * len(table)
        if q > lo and held + n_lanes > STEP3_BATCH_LANES:
            calls.append((lo, q))
            lo, held = q, 0
        held += n_lanes
    calls.append((lo, len(tables)))
    return calls


def _served_lanes(
    p1: np.ndarray, p2: np.ndarray, dirs: np.ndarray, result: BatchGappedResult
):
    """A ``gapped_kernel`` that returns *result*, the batch kernel's run of
    lanes ``(p1, p2, dirs)``, after checking it is asked for those lanes."""

    def kernel(seq1, seq2, q1, q2, qdirs, scoring, band_radius):
        if not (
            np.array_equal(q1, p1)
            and np.array_equal(q2, p2)
            and np.array_equal(qdirs, dirs)
        ):
            raise RuntimeError(
                "step 3 asked for lanes the batch's gapped kernel did not run"
            )
        return result

    return kernel
