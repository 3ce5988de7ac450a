"""Shared step-3 implementation (gapped alignments from HSPs).

Every engine of this reproduction -- ORIS and the three baselines -- runs
exactly this gapped stage on its step-2 HSP table, through the shared
steps 3-4 (:func:`repro.core.engine.finish_comparison`).
Sharing it is a deliberate experimental-design choice: the paper's
contribution is the *seed handling* of steps 1-2 (ordered index seeds vs
scan-and-skip), so the comparison isolates that difference while holding
the gapped extension machinery constant (the paper itself notes in
section 3.4 that its gapped/ungapped extension procedures were "rewritten
and tuned", which is one of its sensitivity confounders; we remove it).

Two schedules share one extension kernel: ``"single"`` (production)
extends every HSP in one lane-parallel batch and then drops alignments
contained in a higher-scoring one; ``"serial"`` is the paper's literal
skip-or-extend loop, kept as the test oracle.  See
:mod:`repro.core.containment` for the skip test.  The ``single`` batch
may run through a caller's ``kernel`` (the resilient runtime deals it
into lane slices on its worker pool); everything after the kernel stays
here, so the output and the counts do not depend on where it ran.
"""

from __future__ import annotations

import numpy as np

from ..align.gapped import batch_gapped_extend
from ..align.hsp import GappedAlignment, HSPTable
from ..align.scoring import ScoringScheme
from ..io.bank import Bank
from ..obs import MetricsRegistry
from .containment import AlignmentCatalog

__all__ = ["gapped_lanes", "run_gapped_stage"]


def run_gapped_stage(
    bank1: Bank,
    bank2: Bank,
    table: HSPTable,
    scoring: ScoringScheme,
    band_radius: int,
    min_align_score: int | None = None,
    scheduling: str = "single",
    registry: MetricsRegistry | None = None,
    kernel=None,
) -> list[GappedAlignment]:
    """Build gapped alignments from a diagonal-sorted HSP table.

    ``kernel`` runs the ``single`` schedule's batch in place of
    :func:`~repro.align.gapped.batch_gapped_extend`, with its signature
    and result; ``None`` runs it here.

    ``registry`` optionally collects the stage's counts: extension
    batches (``step3.waves``), extensions, their kernel lane rows and
    the band rows the kernel swept (``step3.extensions``,
    ``step3.lane_rows``, ``step3.kernel_rows``), containment skips
    (``step3.skipped_contained``), the extensions that rebuilt an
    already-built alignment (``step3.duplicate_alignments``) and a
    batch-size histogram (``step3.wave_hsps``).
    """
    if registry is None:
        registry = MetricsRegistry()
    s1, e1, s2, sc, diag = table.sorted_by_diagonal()
    n = s1.shape[0]
    catalog = AlignmentCatalog(band_radius)
    if n == 0:
        return []
    seq1, seq2 = bank1.seq, bank2.seq

    def extend(chosen: np.ndarray, kernel=None) -> None:
        registry.inc("step3.waves")
        _extend_wave(
            seq1, seq2, s1, e1, s2, diag, chosen, catalog, registry,
            scoring, band_radius, min_align_score, kernel,
        )

    if scheduling == "serial":
        for h in range(n):
            hd, hs1, he1 = int(diag[h]), int(s1[h]), int(e1[h])
            if catalog.covers_hsp(hs1, he1, hd):
                registry.inc("step3.skipped_contained")
                continue
            extend(np.asarray([h], dtype=np.int64))
        return catalog.alignments

    if scheduling == "single":
        # Extend every HSP in one batch, then emulate the serial skip by
        # dropping alignments contained in a higher-scoring one.  Compared
        # to "serial", this spends extra extensions on HSPs the serial loop
        # would have skipped (their results are then deduplicated or
        # filtered here), but runs the DP at full lane parallelism.
        extend(np.arange(n, dtype=np.int64), kernel)
        return _filter_contained(catalog.alignments, band_radius, registry)

    raise ValueError(f"unknown gapped scheduling {scheduling!r}")


def _filter_contained(
    alignments: list[GappedAlignment],
    band_radius: int,
    registry: MetricsRegistry | None = None,
) -> list[GappedAlignment]:
    """Drop alignments whose box and diagonal range lie inside a
    higher-scoring alignment's (the "single" schedule's post-pass).

    This is the alignment-level analogue of the per-HSP containment skip:
    an HSP the serial loop would have skipped extends (in the single
    batch) to an alignment contained in the one that would have covered
    it.
    """
    if registry is None:
        registry = MetricsRegistry()
    order = sorted(
        range(len(alignments)),
        key=lambda i: (-alignments[i].score, alignments[i].start1),
    )
    catalog = AlignmentCatalog(band_radius)
    kept_flags = [False] * len(alignments)
    for i in order:
        a = alignments[i]
        if catalog.covers_alignment(a):
            registry.inc("step3.skipped_contained")
            continue
        catalog.add(a)
        kept_flags[i] = True
    # Preserve discovery (diagonal) order for downstream determinism.
    return [a for a, k in zip(alignments, kept_flags) if k]


def gapped_lanes(
    s1: np.ndarray, e1: np.ndarray, s2: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The two-sided gapped batch of HSPs ``(s1, e1, s2)``: ``(p1, p2, dirs)``.

    Each HSP is extended "from the middle ... on both extremities"
    (paper section 2.3): every left lane comes first, then every right
    lane, in HSP order, so lanes ``i`` and ``i + k`` are HSP ``i``'s two
    sides (the layout :func:`~repro.core.parallel.slice_lanes` deals).
    """
    mid1 = (s1 + e1) // 2
    mid2 = s2 + (mid1 - s1)
    dirs = np.repeat(np.array([-1, 1], dtype=np.int64), mid1.size)
    return np.concatenate((mid1, mid1)), np.concatenate((mid2, mid2)), dirs


def _extend_wave(
    seq1: np.ndarray,
    seq2: np.ndarray,
    s1: np.ndarray,
    e1: np.ndarray,
    s2: np.ndarray,
    diag: np.ndarray,
    chosen: np.ndarray,
    catalog: AlignmentCatalog,
    registry: MetricsRegistry,
    scoring: ScoringScheme,
    band_radius: int,
    min_align_score: int | None,
    kernel=None,
) -> None:
    """Gapped-extend the chosen HSPs (one batch) and store alignments.

    Left and right run as one mixed-direction batch (:func:`gapped_lanes`).
    ``step3.duplicate_alignments`` counts the alignments the catalog
    dropped as exact duplicates of one an earlier HSP already built.
    """
    registry.inc("step3.extensions", int(chosen.size))
    registry.observe("step3.wave_hsps", int(chosen.size))
    k = chosen.size
    p1, p2, dirs = gapped_lanes(s1[chosen], e1[chosen], s2[chosen])
    both = (kernel or batch_gapped_extend)(
        seq1, seq2, p1, p2, dirs, scoring, band_radius
    )
    mid1, mid2 = p1[:k], p2[:k]
    left = both.lanes(slice(0, k))
    right = both.lanes(slice(k, 2 * k))
    registry.inc("step3.lane_rows", both.steps)
    registry.inc("step3.kernel_rows", both.rows)
    diag_mid = diag[chosen]
    duplicates = 0
    for i in range(k):
        score = int(left.score[i] + right.score[i])
        if min_align_score is not None and score < min_align_score:
            continue
        a_start1 = int(mid1[i] - left.consumed1[i])
        a_end1 = int(mid1[i] + right.consumed1[i])
        a_start2 = int(mid2[i] - left.consumed2[i])
        a_end2 = int(mid2[i] + right.consumed2[i])
        if a_end1 <= a_start1 or a_end2 <= a_start2:
            continue  # degenerate (both extensions empty)
        dm = int(diag_mid[i])
        duplicates += not catalog.add(
            GappedAlignment(
                start1=a_start1,
                end1=a_end1,
                start2=a_start2,
                end2=a_end2,
                score=score,
                matches=int(left.matches[i] + right.matches[i]),
                mismatches=int(left.mismatches[i] + right.mismatches[i]),
                gap_columns=int(left.gap_columns[i] + right.gap_columns[i]),
                gap_openings=int(left.gap_openings[i] + right.gap_openings[i]),
                min_diag=dm + min(int(right.min_dd[i]), -int(left.max_dd[i]), 0),
                max_diag=dm + max(int(right.max_dd[i]), -int(left.min_dd[i]), 0),
            )
        )
    registry.inc("step3.duplicate_alignments", duplicates)
