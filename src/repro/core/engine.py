"""The ORIS engine: the paper's 4-step pipeline (section 2, figure 1).

``OrisEngine.compare(bank1, bank2)`` runs:

1. **Index** both banks on ``W``-nt seeds (CSR layout; optional
   low-complexity filter, optional asymmetric 10-nt mode).
2. **Hit extension**: enumerate the seed codes present in both indexes in
   strictly increasing code order; extend every occurrence pair ungapped
   with the ordered-seed cutoff; keep HSPs scoring above ``S1``; sort them
   by diagonal number.
3. **Gapped extension**: walk HSPs in diagonal order; skip any HSP already
   contained in a stored alignment (paper line 14); extend the rest from
   their middle in both directions with the banded x-drop DP; store
   alignments in a diagonal-bucketed catalogue.
   To keep the DP lane-parallel, every HSP is extended in *one* batch and
   the serial skip is then emulated by dropping each alignment contained
   in a higher-scoring one (``gapped_scheduling="single"``).  The paper's
   literal loop (``"serial"``) stays available as the test oracle.
4. **Display**: attach e-values (search space = bank-1 size x subject
   sequence size, section 3.1), filter on the report threshold, sort, and
   emit ``-m 8`` records.

Every count and step time of a run is recorded once, in the run's
:class:`~repro.obs.MetricsRegistry` (``ComparisonResult.metrics``);
:class:`WorkCounters` and :class:`StepTimings` are read-only views of
it, which the benchmark harness reports alongside the paper's tables.

Every entry point shares three pieces of this module: step 1
(:meth:`OrisEngine.index_step`), the step-2 chunk loop
(:func:`extend_hit_pairs`, run on the whole common-code list here and on
one slice of it by :func:`repro.core.parallel.run_range`) and steps 3-4
(:func:`finish_comparison`, also used by the resilient runtime, the
query service and the three baselines; tiled comparison runs the whole
one-strand pipeline per tile).  They look their kernels up as globals
of this module (``iter_pair_chunks``, ``extend_filter_vector``,
``run_gapped_stage``, ``alignments_to_m8`` ...), so a tracer that
rebinds those names here sees every entry point.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..align.evalue import KarlinAltschul, karlin_params
from ..align.hsp import GappedAlignment, HSPTable
from ..align.records import alignments_to_m8, sort_records
from ..align.ungapped import batch_extend, span_initial_score
from ..align.vector_kernel import extend_filter_vector
from ..encoding.packed import packed_bank_cached
from ..filters import make_filter_mask
from ..index.asymmetric import build_asymmetric_indexes
from ..index.seed_index import CommonCodes, CsrSeedIndex
from ..io.bank import Bank
from ..io.m8 import M8Record
from ..obs import MetricsRegistry, span
from .gapped_stage import run_gapped_stage
from .pairs import iter_pair_chunks
from .params import OrisParams

__all__ = [
    "OrisEngine",
    "ComparisonResult",
    "StepTimings",
    "WorkCounters",
    "extend_hit_pairs",
    "finish_comparison",
]


#: :class:`StepTimings` field -> the ``time.*`` gauge it reads.
TIMING_GAUGES: dict[str, str] = {
    "index": "time.step1_index_seconds",
    "ungapped": "time.step2_ungapped_seconds",
    "gapped": "time.step3_gapped_seconds",
    "display": "time.step4_display_seconds",
}

#: :class:`WorkCounters` field -> the registry counter(s) it sums;
#: ``rss_peak_bytes`` reads the ``resources.rss_peak_bytes`` max gauge.
COUNTER_NAMES: dict[str, tuple[str, ...]] = {
    "n_pairs": ("step2.hit_pairs",),
    "n_cut": (
        "step2.cutoff_aborts_left",
        "step2.cutoff_aborts_right",
        "step2.hits_skipped",
    ),
    "n_hsps": ("step2.hsps_kept",),
    "ungapped_steps": ("step2.lane_steps",),
    "gapped_steps": ("step3.lane_rows",),
    "n_gapped_extensions": ("step3.extensions",),
    "n_skipped_contained": ("step3.skipped_contained",),
    "n_alignments": ("step3.alignments",),
    "n_records": ("step4.records",),
    "n_waves": ("step3.waves",),
    "n_retries": ("scheduler.retries",),
    "n_crashes": ("scheduler.crashes",),
    "n_timeouts": ("scheduler.timeouts",),
    "n_quarantined": ("scheduler.quarantined",),
    "n_degraded": ("scheduler.degraded",),
    "n_skipped_tasks": ("scheduler.skipped_tasks",),
    "n_resumed": ("scheduler.resumed",),
    "n_tiles": ("tile.tiles",),
    "n_memory_degradations": ("governor.memory_degradations",),
    "rss_peak_bytes": ("resources.rss_peak_bytes",),
}


@dataclass(frozen=True, slots=True)
class StepTimings:
    """Wall-clock seconds per pipeline step: a read-only view of the
    ``time.*`` gauges of a run's :class:`MetricsRegistry`."""

    index: float
    ungapped: float
    gapped: float
    display: float

    @classmethod
    def of(cls, registry: MetricsRegistry) -> "StepTimings":
        return cls(
            **{f: float(registry.value(g) or 0.0) for f, g in TIMING_GAUGES.items()}
        )

    @property
    def total(self) -> float:
        return self.index + self.ungapped + self.gapped + self.display


@dataclass(frozen=True, slots=True)
class WorkCounters:
    """Work metrics of one comparison: a read-only view of a run's
    :class:`MetricsRegistry` through :data:`COUNTER_NAMES`."""

    n_pairs: int  # hit pairs examined (the paper's X1*X2 totals)
    n_cut: int  # pairs killed by the ordered-seed cutoff (baselines: skipped)
    n_hsps: int  # HSPs stored after step 2
    ungapped_steps: int  # lane-steps in the ungapped kernel
    gapped_steps: int  # lane-rows in the gapped kernel
    n_gapped_extensions: int  # HSPs actually extended in step 3
    n_skipped_contained: int  # HSPs skipped by the containment test
    n_alignments: int  # alignments stored
    n_records: int  # records after e-value filtering
    n_waves: int  # step-3 extension batches
    # Resilient-runtime metrics (repro.runtime.scheduler); all zero on
    # serial runs.
    n_retries: int  # task re-executions (any cause)
    n_crashes: int  # worker deaths detected mid-task
    n_timeouts: int  # tasks killed for exceeding their deadline
    n_quarantined: int  # tasks that exhausted their retries
    n_degraded: int  # tasks completed in-parent after degradation
    n_skipped_tasks: int  # poisoned tasks dropped from the result
    n_resumed: int  # tasks restored from a checkpoint journal
    # Resource-governor metrics (repro.runtime.governor).
    n_tiles: int  # subject tiles processed (tiled/degraded runs)
    n_memory_degradations: int  # budget-forced switches to tiling
    rss_peak_bytes: int  # process peak RSS high-water mark

    @classmethod
    def of(cls, registry: MetricsRegistry) -> "WorkCounters":
        return cls(
            **{
                f: int(sum(registry.value(n) or 0 for n in names))
                for f, names in COUNTER_NAMES.items()
            }
        )


@dataclass(slots=True)
class ComparisonResult:
    """Everything a comparison produced.

    ``metrics`` is the run's one ledger: every count and step time lands
    there once, and :attr:`counters` / :attr:`timings` are views of it.
    """

    records: list[M8Record]
    alignments: list[GappedAlignment]
    params: OrisParams | None = field(repr=False, default=None)
    metrics: MetricsRegistry = field(repr=False, default_factory=MetricsRegistry)

    @property
    def counters(self) -> WorkCounters:
        return WorkCounters.of(self.metrics)

    @property
    def timings(self) -> StepTimings:
        return StepTimings.of(self.metrics)


class OrisEngine:
    """Ordered Index Seed comparison engine (the paper's contribution)."""

    def __init__(self, params: OrisParams | None = None, index_cache=None):
        self.params = params or OrisParams()
        #: Optional :class:`~repro.index.persist.IndexCache`.  When set,
        #: step 1 for the standard contiguous-seed configuration becomes
        #: an O(1) mmap load on repeated inputs (the ``formatdb`` role).
        self.index_cache = index_cache

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #

    def compare(self, bank1: Bank, bank2: Bank) -> ComparisonResult:
        """Compare two banks; returns sorted ``-m 8`` records plus stats.

        With ``strand == "both"`` the minus-strand pass runs against the
        reverse-complemented bank 2 and its records are mapped back to
        plus-strand subject coordinates (BLAST convention).
        """
        result = self._compare_one_strand(bank1, bank2, minus=False)
        if self.params.strand == "both":
            rc = bank2.reverse_complemented()
            minus = self._compare_one_strand(bank1, rc, minus=True)
            result = _merge_results(result, minus, self.params)
        return result

    # ------------------------------------------------------------------ #
    # Pipeline
    # ------------------------------------------------------------------ #

    def _compare_one_strand(
        self, bank1: Bank, bank2: Bank, minus: bool, profile=None
    ) -> ComparisonResult:
        """Steps 1-4 on one strand.  ``profile`` (a
        :class:`repro.core.tiled.FleetProfile`) makes a tile of a larger
        bank use that whole bank's S1 threshold and e-value lengths."""
        p = self.params
        registry = MetricsRegistry()
        strand = "minus" if minus else "plus"
        index1, index2 = self.index_step(bank1, bank2, registry, strand)

        t0 = time.perf_counter()
        s1_threshold = self._resolve_hsp_min_score(
            bank1, bank2, karlin_params(p.scoring), profile
        )
        with span("step2.extend", strand=strand) as s:
            table = self._ungapped_stage(index1, index2, s1_threshold, registry)
            s.set(n_hsps=len(table))
        registry.set_gauge(
            "time.step2_ungapped_seconds", time.perf_counter() - t0, mode="sum"
        )

        return finish_comparison(
            bank1, bank2, table, p, registry,
            scheduling=p.gapped_scheduling,
            min_align_score=p.min_align_score,
            exclude_self=p.exclude_self,
            minus_strand=minus,
            subject_lengths=(
                None if profile is None else profile.subject_lengths_for(bank2)
            ),
        )

    def index_step(
        self,
        bank1: Bank,
        bank2: Bank,
        registry: MetricsRegistry,
        strand: str = "plus",
    ) -> tuple[CsrSeedIndex, CsrSeedIndex]:
        """Step 1: index both banks, recording index metrics and time."""
        t0 = time.perf_counter()
        with span("step1.index", strand=strand):
            index1, index2 = self._build_indexes(bank1, bank2)
        index1.record_metrics(registry, "bank1")
        index2.record_metrics(registry, "bank2")
        registry.set_gauge(
            "time.step1_index_seconds", time.perf_counter() - t0, mode="sum"
        )
        return index1, index2

    def _build_indexes(self, bank1: Bank, bank2: Bank) -> tuple[CsrSeedIndex, CsrSeedIndex]:
        p = self.params
        seed_mask = p.seed_mask
        if self.index_cache is not None and seed_mask is None and not p.asymmetric:
            # Standard contiguous-seed path only: spaced/subset masks and
            # asymmetric strides are not part of the cache key space.
            return (
                self.index_cache.get(bank1, p.w, p.filter_kind),
                self.index_cache.get(bank2, p.w, p.filter_kind),
            )
        mask1 = make_filter_mask(bank1, p.filter_kind)
        mask2 = make_filter_mask(bank2, p.filter_kind)
        if seed_mask is not None:
            return (
                CsrSeedIndex(bank1, 0, mask1, mask=seed_mask),
                CsrSeedIndex(bank2, 0, mask2, mask=seed_mask),
            )
        if p.asymmetric:
            # Halve the larger bank (memory argument, see module docs).
            sub = 1 if bank1.size_nt > bank2.size_nt else 2
            return build_asymmetric_indexes(
                bank1, bank2, w=p.asymmetric_w,
                low_complexity_mask1=mask1, low_complexity_mask2=mask2,
                subsample_bank=sub,
            )
        return (
            CsrSeedIndex(bank1, p.w, mask1),
            CsrSeedIndex(bank2, p.w, mask2),
        )

    def _resolve_hsp_min_score(
        self,
        bank1: Bank,
        bank2: Bank,
        stats: KarlinAltschul,
        profile=None,
    ) -> int:
        """The S1 threshold; a ``profile`` (see :meth:`_compare_one_strand`)
        overrides the subject-side sizes so one tile of a larger bank
        uses the *global* bank's statistics."""
        p = self.params
        if p.hsp_min_score is not None:
            return p.hsp_min_score
        # BLAST-style preliminary threshold: an HSP enters the gapped stage
        # if alone it would reach hsp_evalue against an average subject.
        nt = bank2.size_nt if profile is None else profile.subject_nt
        seqs = bank2.n_sequences if profile is None else profile.subject_seqs
        n_mean = max(nt // max(seqs, 1), 1)
        s = stats.min_score_for_evalue(p.hsp_evalue, bank1.size_nt, n_mean)
        # Never below the seed's own score + 1 (a bare seed is not an HSP).
        return max(s, p.scoring.seed_score(self.params.effective_w) + 1)

    def hsp_table(
        self,
        bank1: Bank,
        bank2: Bank,
        registry: MetricsRegistry | None = None,
    ) -> HSPTable:
        """Run steps 1-2 only and return the raw HSP table.

        Public entry point for tests and tools that study the ungapped
        funnel (e.g. the differential harness) without paying for the
        gapped stage.  Pass a :class:`MetricsRegistry` to also collect
        the step-1/step-2 funnel counters.
        """
        if registry is None:
            registry = MetricsRegistry()
        index1, index2 = self.index_step(bank1, bank2, registry)
        threshold = self._resolve_hsp_min_score(
            bank1, bank2, karlin_params(self.params.scoring)
        )
        return self._ungapped_stage(index1, index2, threshold, registry)

    def _ungapped_stage(
        self,
        index1: CsrSeedIndex,
        index2: CsrSeedIndex,
        s1_threshold: int,
        registry: MetricsRegistry,
    ) -> HSPTable:
        """Step 2 over the whole common-code list of two indexes."""
        spaced = index1.mask is not None
        return extend_hit_pairs(
            index1.bank.seq,
            index2.bank.seq,
            index1,
            index2,
            index1.common_codes(index2),
            index1.cutoff_codes,
            index1.span,
            self.params,
            s1_threshold,
            ok2=None if spaced else index2.indexed_mask,
            codes2=index2.cutoff_codes if spaced else None,
            registry=registry,
            dedup=None if self.params.ordered_cutoff else set(),
        )


def extend_hit_pairs(
    seq1: np.ndarray,
    seq2: np.ndarray,
    index1,
    index2,
    common: CommonCodes,
    codes1: np.ndarray,
    w: int,
    params: OrisParams,
    s1_threshold: int,
    ok2: np.ndarray | None,
    codes2: np.ndarray | None,
    registry: MetricsRegistry,
    dedup: set[tuple[int, int, int, int]] | None = None,
) -> HSPTable:
    """Step 2 over ``common``: extend every hit pair, keep HSPs >= S1.

    The one chunk loop behind :meth:`OrisEngine._ungapped_stage` (the
    whole common-code list) and :func:`repro.core.parallel.run_range`
    (one slice of it).  ``index1``/``index2`` only need ``.positions``;
    ``codes1`` are bank 1's cutoff codes and ``w`` the seed span.
    Spaced and subset seeds pass bank 2's cutoff codes as ``codes2``;
    contiguous seeds pass its enumerability mask as ``ok2`` instead.
    ``dedup`` is the duplicate filter of the no-cutoff ablation.
    """
    registry.inc("step2.seeds_enumerated", common.n_codes)
    table = HSPTable()
    spaced = codes2 is not None
    vector = params.kernel == "vector"
    if vector:
        # Packing is one linear sweep per bank and the memo (keyed on the
        # array object) makes repeat calls, self-comparisons and every
        # later task of a worker process free.
        packed1 = packed_bank_cached(seq1)
        packed2 = packed_bank_cached(seq2)
    for chunk in iter_pair_chunks(
        index1, index2, common, params.chunk_pairs, params.max_occurrences
    ):
        registry.inc("step2.hit_pairs", chunk.n_pairs)
        # Every hit pair starts exactly one extension lane; tracking
        # both makes the funnel explicit (and checkable) even though
        # this implementation never drops a hit before extending.
        registry.inc("step2.extensions_started", chunk.n_pairs)
        registry.observe("step2.chunk_pairs", chunk.n_pairs)
        init = (
            span_initial_score(seq1, seq2, chunk.p1, chunk.p2, w, params.scoring)
            if spaced
            else None
        )
        if vector:
            stage = extend_filter_vector(
                seq1,
                seq2,
                codes1,
                chunk.p1,
                chunk.p2,
                chunk.codes,
                w,
                params.scoring,
                s1_threshold,
                ordered_cutoff=params.ordered_cutoff,
                ok2=ok2,
                codes2=codes2,
                initial_scores=init,
                packed1=packed1,
                packed2=packed2,
            )
            registry.inc("step2.lane_steps", stage.steps)
            registry.inc("step2.cutoff_aborts_left", stage.n_cut_left)
            registry.inc("step2.cutoff_aborts_right", stage.n_cut_right)
            registry.inc("step2.dropped_below_s1", stage.n_below_s1)
            s1 = stage.start1
            e1 = stage.end1
            s2 = stage.start2
            sc = stage.score
        else:
            res = batch_extend(
                seq1,
                seq2,
                codes1,
                chunk.p1,
                chunk.p2,
                chunk.codes,
                w,
                params.scoring,
                ordered_cutoff=params.ordered_cutoff,
                ok2=ok2,
                codes2=codes2,
                initial_scores=init,
            )
            registry.inc("step2.lane_steps", res.steps)
            registry.inc("step2.cutoff_aborts_left", int(res.cut_left.sum()))
            registry.inc("step2.cutoff_aborts_right", int(res.cut_right.sum()))
            registry.inc(
                "step2.dropped_below_s1",
                int((res.kept & (res.score < s1_threshold)).sum()),
            )
            keep = res.kept & (res.score >= s1_threshold)
            s1 = res.start1[keep]
            e1 = res.end1[keep]
            s2 = res.start2[keep]
            sc = res.score[keep]
        if dedup is not None and s1.size:
            # Ablation mode: the cutoff is off, so the same HSP arrives
            # many times; this is exactly the "costly procedure to
            # suppress all the duplicates" the paper avoids.
            fresh = np.ones(s1.shape[0], dtype=bool)
            for i in range(s1.shape[0]):
                box = (int(s1[i]), int(e1[i]), int(s2[i]), int(sc[i]))
                if box in dedup:
                    fresh[i] = False
                else:
                    dedup.add(box)
            registry.inc("step2.dedup_dropped", int((~fresh).sum()))
            s1, e1, s2, sc = s1[fresh], e1[fresh], s2[fresh], sc[fresh]
        registry.inc("step2.hsps_kept", int(s1.shape[0]))
        table.append_chunk(s1, e1, s2, sc)
    return table


def finish_comparison(
    bank1: Bank,
    bank2: Bank,
    table: HSPTable,
    params,
    registry: MetricsRegistry,
    *,
    scheduling: str = "single",
    min_align_score: int | None = None,
    exclude_self: bool = False,
    minus_strand: bool = False,
    subject_lengths: np.ndarray | None = None,
    gapped_kernel=None,
) -> ComparisonResult:
    """Steps 3-4 on a step-2 HSP table, for every engine and entry point.

    ``params`` supplies ``scoring``, ``band_radius``, ``max_evalue`` and
    ``sort_key`` (an :class:`OrisParams` or a baseline's parameters).
    The values only some callers set come explicitly: the step-3
    ``scheduling``, the ``min_align_score`` floor, ``exclude_self``,
    ``minus_strand`` (a pass against the reverse-complemented bank 2)
    and ``subject_lengths``, which overrides the per-sequence subject
    length used for e-values (fleet shards serving windows of longer
    sequences; see :func:`repro.align.records.alignments_to_m8`).
    ``gapped_kernel`` runs the ``single`` schedule's step-3 batch (see
    :func:`~repro.core.gapped_stage.run_gapped_stage`); ``None`` runs it
    in this process.  Counts and step times land in ``registry``, which
    the returned result carries.
    """
    strand = "minus" if minus_strand else "plus"

    t0 = time.perf_counter()
    with span("step3.gapped", strand=strand) as s:
        alignments = run_gapped_stage(
            bank1,
            bank2,
            table,
            scoring=params.scoring,
            band_radius=params.band_radius,
            min_align_score=min_align_score,
            scheduling=scheduling,
            registry=registry,
            kernel=gapped_kernel,
        )
        s.set(n_alignments=len(alignments))
    registry.inc("step3.alignments", len(alignments))
    registry.set_gauge(
        "time.step3_gapped_seconds", time.perf_counter() - t0, mode="sum"
    )

    t0 = time.perf_counter()
    with span("step4.display", strand=strand):
        records = alignments_to_m8(
            alignments,
            bank1,
            bank2,
            karlin_params(params.scoring),
            max_evalue=params.max_evalue,
            minus_strand=minus_strand,
            exclude_self=exclude_self,
            subject_lengths=subject_lengths,
        )
        records = sort_records(records, key=params.sort_key)
    registry.inc("step4.records", len(records))
    registry.inc("step4.evalue_filtered", len(alignments) - len(records))
    registry.set_gauge(
        "time.step4_display_seconds", time.perf_counter() - t0, mode="sum"
    )
    return ComparisonResult(
        records=records, alignments=alignments, params=params, metrics=registry
    )


def _merge_results(
    plus: ComparisonResult, minus: ComparisonResult, params
) -> ComparisonResult:
    """Combine plus- and minus-strand passes into one result."""
    metrics = MetricsRegistry()
    metrics.merge(plus.metrics).merge(minus.metrics)
    return ComparisonResult(
        records=sort_records(plus.records + minus.records, key=params.sort_key),
        alignments=plus.alignments + minus.alignments,
        params=params,
        metrics=metrics,
    )
