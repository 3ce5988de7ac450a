"""BLAT-like baseline (the paper's named future-work comparator).

Section 4: "Comparing SCORIS-N with other programs which have also been
designed for dealing with large DNA sequences and which also handle
sequence indexing into main memory (BLAT, FLASH, BLASTZ)".  This module
implements the BLAT-flavoured member of that list so the comparison the
paper defers is runnable here.

BLAT (Kent 2002) differs from BLAST in two structural ways that matter at
this altitude:

* the *database* is indexed once on **non-overlapping** k-mers (stride =
  k), which shrinks the index k-fold and is built a single time (like
  ORIS, unlike blastall's per-query lookup tables);
* the *query* is scanned with overlapping k-mers against that index, and
  hits are extended.

Non-overlapping database words mean an alignment is only anchored when
one of its exact-match stretches happens to contain a database word at
the right phase, which costs sensitivity for diverged matches (BLAT was
designed for high-identity data).  We reuse the shared ungapped/gapped
machinery so the outputs stay comparable; per-diagonal redundancy
skipping follows the same wave pattern as the BLASTN baseline.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..align.evalue import karlin_params
from ..align.hsp import HSPTable
from ..align.scoring import DEFAULT_SCORING, ScoringScheme
from ..align.ungapped import batch_extend
from ..core.engine import ComparisonResult, finish_comparison
from ..encoding import invalid_code, seed_codes
from ..filters import make_filter_mask
from ..index.seed_index import CsrSeedIndex
from ..io.bank import Bank
from ..obs import MetricsRegistry
from .blastn import _record_wave, _segmented_forward_max

__all__ = ["BlatParams", "BlatEngine"]


@dataclass(frozen=True, slots=True)
class BlatParams:
    """Knobs of the BLAT-like baseline (defaults follow BLAT's DNA mode)."""

    k: int = 11
    scoring: ScoringScheme = field(default_factory=lambda: DEFAULT_SCORING)
    filter_kind: str = "dust"
    max_evalue: float | None = 1e-3
    hsp_min_score: int | None = None
    hsp_evalue: float = 0.05
    band_radius: int = 16
    sort_key: str = "evalue"


class BlatEngine:
    """Index-once (non-overlapping words), scan-query baseline."""

    def __init__(self, params: BlatParams | None = None):
        self.params = params or BlatParams()

    def compare(self, bank1: Bank, bank2: Bank) -> ComparisonResult:
        """Compare query bank ``bank1`` against database ``bank2``."""
        p = self.params
        registry = MetricsRegistry()
        stats = karlin_params(p.scoring)

        # --- Index the database ONCE on non-overlapping k-mers ----------- #
        t0 = time.perf_counter()
        mask1 = make_filter_mask(bank1, p.filter_kind)
        mask2 = make_filter_mask(bank2, p.filter_kind)
        db_index = CsrSeedIndex(bank2, p.k, mask2, stride=p.k)
        codes1_full = seed_codes(bank1.seq, p.k)
        q_index = CsrSeedIndex(bank1, p.k, mask1)  # overlapping query words
        registry.set_gauge(
            "time.step1_index_seconds", time.perf_counter() - t0, mode="sum"
        )

        n_mean = max(bank2.size_nt // max(bank2.n_sequences, 1), 1)
        if p.hsp_min_score is not None:
            threshold = p.hsp_min_score
        else:
            threshold = max(
                stats.min_score_for_evalue(p.hsp_evalue, bank1.size_nt, n_mean),
                p.scoring.seed_score(p.k) + 1,
            )

        # --- Join query words against the database index ------------------ #
        t0 = time.perf_counter()
        common = q_index.common_codes(db_index)
        from ..core.pairs import iter_pair_chunks

        q_pos_chunks = []
        db_pos_chunks = []
        for chunk in iter_pair_chunks(q_index, db_index, common, 1 << 16):
            q_pos_chunks.append(chunk.p1)
            db_pos_chunks.append(chunk.p2)
        if q_pos_chunks:
            q_pos = np.concatenate(q_pos_chunks)
            db_pos = np.concatenate(db_pos_chunks)
        else:
            q_pos = np.empty(0, dtype=np.int64)
            db_pos = q_pos.copy()
        registry.inc("step2.hit_pairs", int(q_pos.shape[0]))

        # --- Per-diagonal redundancy skip + wave extension ----------------- #
        table = HSPTable()
        if q_pos.shape[0]:
            diag = db_pos - q_pos
            order = np.lexsort((db_pos, diag))
            d_sorted = diag[order]
            j_sorted = db_pos[order]
            i_sorted = q_pos[order]
            n = d_sorted.shape[0]
            alive = np.ones(n, dtype=bool)
            run_start = np.empty(n, dtype=bool)
            run_start[0] = True
            np.not_equal(d_sorted[1:], d_sorted[:-1], out=run_start[1:])
            grp = np.cumsum(run_start) - 1
            while True:
                alive_idx = np.nonzero(alive)[0]
                if alive_idx.size == 0:
                    break
                dd = d_sorted[alive_idx]
                first = np.empty(alive_idx.shape[0], dtype=bool)
                first[0] = True
                np.not_equal(dd[1:], dd[:-1], out=first[1:])
                chosen = alive_idx[first]
                res = batch_extend(
                    bank1.seq, bank2.seq, codes1_full,
                    i_sorted[chosen], j_sorted[chosen],
                    np.zeros(chosen.shape[0], dtype=np.int64),
                    p.k, p.scoring, ordered_cutoff=False,
                )
                keep = res.score >= threshold
                _record_wave(registry, res.steps, keep)
                table.append_chunk(
                    res.start1[keep], res.end1[keep], res.start2[keep],
                    res.score[keep],
                )
                alive[chosen] = False
                cover = np.full(n, -1, dtype=np.int64)
                cover[chosen] = res.end2
                cover_ff = _segmented_forward_max(cover, grp)
                skip = alive & (j_sorted < cover_ff)
                registry.inc("step2.hits_skipped", int(skip.sum()))
                alive &= ~skip
        registry.set_gauge(
            "time.step2_ungapped_seconds", time.perf_counter() - t0, mode="sum"
        )

        # --- Shared gapped stage + display -------------------------------- #
        return finish_comparison(bank1, bank2, table, p, registry)
