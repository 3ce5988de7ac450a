"""BLASTZ-like baseline (the paper's third named comparator).

Section 4 lists BLASTZ among the in-memory-indexing programs SCORIS-N
should be compared against.  BLASTZ (Schwartz et al. 2003) is the
genome-to-genome aligner behind the UCSC human/mouse alignments; the
traits that matter at this reproduction's altitude:

* **seeding with a spaced 12-of-19 seed allowing transitions** -- here the
  subset-seed machinery (``repro.encoding.subset``) with BLASTZ's
  published template, transition-tolerant at every sampled position;
* **index once, both sides** (like ORIS, unlike blastall);
* **chaining**: colinear HSPs are linked into chains
  (``repro.align.chaining``) and scored together, then each chain's
  anchors seed the shared gapped stage.

The ungapped extension runs without ORIS's ordered cutoff (BLASTZ has no
such rule): redundancy is removed by the same per-diagonal skip waves as
the BLASTN baseline.  Output is the shared ``-m 8`` format.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..align.chaining import Chain, ChainingParams, chain_hsps
from ..align.evalue import karlin_params
from ..align.hsp import HSPTable
from ..align.scoring import DEFAULT_SCORING, ScoringScheme
from ..align.ungapped import batch_extend, span_initial_score
from ..core.engine import ComparisonResult, finish_comparison
from ..core.pairs import iter_pair_chunks
from ..encoding.subset import SubsetSeedMask
from ..filters import make_filter_mask
from ..index.seed_index import CsrSeedIndex
from ..io.bank import Bank
from ..obs import MetricsRegistry
from .blastn import _record_wave, _segmented_forward_max

__all__ = ["BlastzParams", "BlastzEngine", "BLASTZ_SEED"]

#: BLASTZ's classic 12-of-19 spaced template (Schwartz et al. 2003).
_PATTERN_12_19 = "1110100110010101111"

#: Default seed: the 12-of-19 template with exact sampled positions.
BLASTZ_SEED = "".join("#" if c == "1" else "-" for c in _PATTERN_12_19)

#: Transition-tolerant variant (BLASTZ's T=1 behaviour approximated as
#: per-position transition classes; ends stay exact -- the ordered-probe
#: machinery's normalisation, see repro.encoding.subset).
BLASTZ_SEED_TRANSITION = (
    "#"
    + "".join(("@" if c == "1" else "-") for c in _PATTERN_12_19[1:-1])
    + "#"
)


@dataclass(frozen=True, slots=True)
class BlastzParams:
    """Knobs of the BLASTZ-like baseline."""

    seed: str = BLASTZ_SEED
    scoring: ScoringScheme = field(default_factory=lambda: DEFAULT_SCORING)
    filter_kind: str = "dust"
    max_evalue: float | None = 1e-3
    hsp_min_score: int | None = None
    hsp_evalue: float = 0.05
    band_radius: int = 16
    chaining: ChainingParams = field(default_factory=ChainingParams)
    sort_key: str = "evalue"


class BlastzEngine:
    """Index-once, subset-seeded, chaining baseline."""

    def __init__(self, params: BlastzParams | None = None):
        self.params = params or BlastzParams()

    def compare(self, bank1: Bank, bank2: Bank) -> ComparisonResult:
        """Compare two banks; returns the shared ComparisonResult."""
        p = self.params
        registry = MetricsRegistry()
        stats = karlin_params(p.scoring)
        mask = SubsetSeedMask(p.seed)

        # --- Index both banks once (like ORIS / real BLASTZ) ------------- #
        t0 = time.perf_counter()
        lcm1 = make_filter_mask(bank1, p.filter_kind)
        lcm2 = make_filter_mask(bank2, p.filter_kind)
        index1 = CsrSeedIndex(bank1, 0, lcm1, mask=mask)
        index2 = CsrSeedIndex(bank2, 0, lcm2, mask=mask)
        registry.set_gauge(
            "time.step1_index_seconds", time.perf_counter() - t0, mode="sum"
        )

        n_mean = max(bank2.size_nt // max(bank2.n_sequences, 1), 1)
        if p.hsp_min_score is not None:
            threshold = p.hsp_min_score
        else:
            threshold = max(
                stats.min_score_for_evalue(p.hsp_evalue, bank1.size_nt, n_mean),
                int(mask.weight) + 1,
            )

        # --- Hit enumeration + per-diagonal skip + extension -------------- #
        t0 = time.perf_counter()
        common = index1.common_codes(index2)
        p1_chunks, p2_chunks = [], []
        for chunk in iter_pair_chunks(index1, index2, common, 1 << 16):
            p1_chunks.append(chunk.p1)
            p2_chunks.append(chunk.p2)
        if p1_chunks:
            q_pos = np.concatenate(p1_chunks)
            db_pos = np.concatenate(p2_chunks)
        else:
            q_pos = np.empty(0, dtype=np.int64)
            db_pos = q_pos.copy()
        registry.inc("step2.hit_pairs", int(q_pos.shape[0]))

        table = HSPTable()
        if q_pos.shape[0]:
            diag = db_pos - q_pos
            order = np.lexsort((db_pos, diag))
            d_sorted = diag[order]
            j_sorted = db_pos[order]
            i_sorted = q_pos[order]
            span = mask.span
            while d_sorted.size:
                first = np.empty(d_sorted.shape[0], dtype=bool)
                first[0] = True
                np.not_equal(d_sorted[1:], d_sorted[:-1], out=first[1:])
                sel1 = i_sorted[first]
                sel2 = j_sorted[first]
                init = span_initial_score(
                    bank1.seq, bank2.seq, sel1, sel2, span, p.scoring
                )
                res = batch_extend(
                    bank1.seq, bank2.seq, index1.cutoff_codes,
                    sel1, sel2,
                    np.zeros(sel1.shape[0], dtype=np.int64),
                    span, p.scoring,
                    ordered_cutoff=False, initial_scores=init,
                )
                keep = res.score >= threshold
                _record_wave(registry, res.steps, keep)
                table.append_chunk(
                    res.start1[keep], res.end1[keep], res.start2[keep],
                    res.score[keep],
                )
                cover = np.full(d_sorted.shape[0], -1, dtype=np.int64)
                cover[first] = res.end2
                grp = np.cumsum(first) - 1
                cover_ff = _segmented_forward_max(cover, grp)
                skip = (j_sorted < cover_ff) | first
                registry.inc("step2.hits_skipped", int((skip & ~first).sum()))
                keep_hits = ~skip
                d_sorted = d_sorted[keep_hits]
                j_sorted = j_sorted[keep_hits]
                i_sorted = i_sorted[keep_hits]
        registry.set_gauge(
            "time.step2_ungapped_seconds", time.perf_counter() - t0, mode="sum"
        )

        # --- Chaining: keep, per chain, its best anchor as the gapped seed #
        # (timed as part of step 3, which it feeds).
        t0 = time.perf_counter()
        chained = self._chain_filter(table, registry)
        registry.set_gauge(
            "time.step3_gapped_seconds", time.perf_counter() - t0, mode="sum"
        )
        return finish_comparison(bank1, bank2, chained, p, registry)

    def _chain_filter(
        self, table: HSPTable, registry: MetricsRegistry
    ) -> HSPTable:
        """Chain the HSPs; keep one representative anchor per chain.

        The gapped x-drop from a chain's best anchor re-covers the whole
        chain (band permitting), so chaining here serves the same role as
        in BLASTZ: collapsing colinear anchor clusters into one polished
        alignment seed each.  The anchors a chain drops count as
        ``step3.skipped_contained``: the chain's alignment contains them.
        """
        s1, e1, s2, sc, diag = table.sorted_by_diagonal()
        if s1.shape[0] == 0:
            return table
        chains = chain_hsps(
            s1, e1, s2, s2 + (e1 - s1), sc.astype(np.float64), self.params.chaining
        )
        out = HSPTable()
        keep_idx = []
        for chain in chains:
            best_member = max(chain.members, key=lambda m: sc[m])
            keep_idx.append(best_member)
        if keep_idx:
            keep = np.asarray(sorted(keep_idx), dtype=np.int64)
            out.append_chunk(s1[keep], e1[keep], s2[keep], sc[keep])
        registry.inc("step3.skipped_contained", int(s1.shape[0] - len(keep_idx)))
        return out
