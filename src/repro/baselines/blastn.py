"""BLASTN-like baseline engine (the paper's comparison target).

The paper benchmarks SCORIS-N against ``blastall -p blastn`` (NCBI BLAST
2.2.17) run with one bank as the query set and the other as the formatted
database.  This module reimplements that *algorithmic shape* on the same
substrate (same banks, scoring, filters, gapped stage and output format),
so engine-vs-engine comparisons isolate the seed-handling difference that
is the paper's contribution.  The baseline follows classic BLASTN:

1. **Query batching.** ``blastall`` never indexes the whole query bank at
   once: queries are concatenated into batches of bounded total length,
   and the *entire database is re-scanned for every batch*.  This is the
   structural reason the paper's speed-ups grow with bank size (more
   batches, more database re-scans) and the single biggest difference
   from ORIS, which indexes both banks exactly once.  ``query_batch_nt``
   controls the batch size (scaled down with everything else).
2. **Lookup table on the query batch**, W-mer exact words (default W=11,
   one-hit seeding, like classic ``blastn``; a two-hit mode is provided).
3. **Database scan**: every database position's W-mer is looked up in the
   batch table; each (query-pos, db-pos) hit is processed in database
   order.
4. **Per-diagonal redundancy skip**: a hit whose database position lies
   inside the last ungapped extension's span on the same diagonal is
   dropped (the ``diag_level`` array of BLAST).  Unlike ORIS's ordered-
   seed cutoff, this requires mutable per-diagonal state and still lets
   every surviving hit start a full extension.
5. **Ungapped x-drop extension** (no ordered-seed cutoff), HSPs over the
   preliminary threshold enter the shared gapped stage, then e-value
   filtering and ``-m 8`` output -- identical to the ORIS engine from that
   point on.

Like the vectorised ORIS engine, the scan/skip/extend loop is realised in
*waves*: the first unskipped hit of every diagonal is extended in one
batch, the per-diagonal spans are updated, and the survivors iterate.
This preserves the serial semantics (each extension sees exactly the
diagonal state a serial scan would) while letting NumPy do the work.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from ..align.evalue import karlin_params
from ..align.hsp import HSPTable
from ..align.scoring import DEFAULT_SCORING, ScoringScheme
from ..align.ungapped import batch_extend
from ..core.engine import ComparisonResult, _merge_results, finish_comparison
from ..encoding import invalid_code, seed_codes
from ..filters import make_filter_mask
from ..index.seed_index import CsrSeedIndex, valid_window_mask
from ..io.bank import Bank
from ..obs import MetricsRegistry

__all__ = ["BlastnParams", "BlastnEngine"]


@dataclass(frozen=True, slots=True)
class BlastnParams:
    """Knobs of the BLASTN-like baseline.

    Defaults mirror classic ``blastn``: W = 11, one-hit seeding, the same
    scoring scheme as the ORIS engine, e-value threshold applied at
    output.  ``query_batch_nt`` bounds the total length of a query batch;
    the default of 1 makes every query sequence its own batch, which is
    what ``blastall`` 2.2.17's ``blastn`` does (one lookup table and one
    full database scan per query) and is the cost structure behind the
    paper's growing speed-ups.  Raise it to model query-concatenating
    behaviour (megablast-style).
    """

    w: int = 11
    scoring: ScoringScheme = field(default_factory=lambda: DEFAULT_SCORING)
    filter_kind: str = "dust"
    max_evalue: float | None = 1e-3
    hsp_min_score: int | None = None
    hsp_evalue: float = 0.05
    min_align_score: int | None = None
    band_radius: int = 16
    strand: str = "plus"
    query_batch_nt: int = 1
    two_hit: bool = False
    two_hit_window: int = 40
    sort_key: str = "evalue"

    def __post_init__(self) -> None:
        if self.strand not in ("plus", "both"):
            raise ValueError("strand must be 'plus' or 'both'")
        if self.query_batch_nt < 1:
            raise ValueError("query_batch_nt must be positive")


class BlastnEngine:
    """Scan-and-extend baseline with classic BLASTN structure."""

    def __init__(self, params: BlastnParams | None = None):
        self.params = params or BlastnParams()

    def compare(self, bank1: Bank, bank2: Bank) -> ComparisonResult:
        """Compare query bank (``bank1``) against database (``bank2``).

        Returns the same :class:`~repro.core.engine.ComparisonResult`
        structure as the ORIS engine (records sorted by the same key, the
        same metrics where they apply).
        """
        result = self._one_strand(bank1, bank2, minus=False)
        if self.params.strand == "both":
            rc = bank2.reverse_complemented()
            minus = self._one_strand(bank1, rc, minus=True)
            result = _merge_results(result, minus, self.params)
        return result

    # ------------------------------------------------------------------ #

    def _one_strand(self, bank1: Bank, bank2: Bank, minus: bool) -> ComparisonResult:
        p = self.params
        registry = MetricsRegistry()
        stats = karlin_params(p.scoring)

        # Database "formatting": masks and the raw code array.  (This is
        # the analogue of formatdb; computed once, unlike the per-batch
        # scan below.)
        t0 = time.perf_counter()
        mask1 = make_filter_mask(bank1, p.filter_kind)
        mask2 = make_filter_mask(bank2, p.filter_kind)
        db_codes = seed_codes(bank2.seq, p.w)
        db_ok = valid_window_mask(bank2, p.w, mask2)
        bad = invalid_code(p.w)
        db_scan_codes = np.where(db_ok, db_codes, bad)
        codes1_full = seed_codes(bank1.seq, p.w)
        ok1_full = valid_window_mask(bank1, p.w, mask1)
        registry.set_gauge(
            "time.step1_index_seconds", time.perf_counter() - t0, mode="sum"
        )

        n_mean = max(bank2.size_nt // max(bank2.n_sequences, 1), 1)
        if p.hsp_min_score is not None:
            s1_threshold = p.hsp_min_score
        else:
            s1_threshold = max(
                stats.min_score_for_evalue(p.hsp_evalue, bank1.size_nt, n_mean),
                p.scoring.seed_score(p.w) + 1,
            )

        table = HSPTable()
        t0 = time.perf_counter()
        for q_lo, q_hi in self._query_batches(bank1):
            self._scan_batch(
                bank1, bank2, q_lo, q_hi, ok1_full, db_scan_codes,
                codes1_full, s1_threshold, table, registry,
            )
        registry.set_gauge(
            "time.step2_ungapped_seconds", time.perf_counter() - t0, mode="sum"
        )
        return finish_comparison(
            bank1, bank2, table, p, registry,
            min_align_score=p.min_align_score, minus_strand=minus,
        )

    def _query_batches(self, bank1: Bank):
        """Split query sequences into batches of bounded total length.

        Yields global position ranges ``(lo, hi)`` covering whole
        sequences; a single sequence longer than the batch size forms its
        own batch (it is never split, matching blastall).
        """
        p = self.params
        lo = None
        acc = 0
        for i in range(bank1.n_sequences):
            s, e = bank1.bounds(i)
            if lo is None:
                lo = s
            acc += e - s
            if acc >= p.query_batch_nt:
                yield lo, e
                lo = None
                acc = 0
        if lo is not None:
            yield lo, bank1.bounds(bank1.n_sequences - 1)[1]

    def _scan_batch(
        self,
        bank1: Bank,
        bank2: Bank,
        q_lo: int,
        q_hi: int,
        ok1_full: np.ndarray,
        db_scan_codes: np.ndarray,
        codes1_full: np.ndarray,
        s1_threshold: int,
        table: HSPTable,
        registry: MetricsRegistry,
    ) -> None:
        p = self.params
        w = p.w
        # --- Build the batch lookup table (limited to [q_lo, q_hi)) ------ #
        batch_index = _BatchLookup(codes1_full, ok1_full, q_lo, q_hi)
        if batch_index.n_words == 0:
            return

        # --- Scan the WHOLE database against this batch ------------------ #
        # (The per-batch rescan is the blastall cost structure; see module
        # docs.)  membership: for every db position, find its code in the
        # batch's sorted unique code table.
        hit_db_pos, hit_q_pos = batch_index.join(db_scan_codes)
        n_hits = int(hit_db_pos.shape[0])
        registry.inc("step2.hit_pairs", n_hits)
        if n_hits == 0:
            return

        if p.two_hit:
            hit_db_pos, hit_q_pos = _two_hit_filter(
                hit_db_pos, hit_q_pos, w, p.two_hit_window
            )
            registry.inc("step2.hits_skipped", n_hits - hit_db_pos.shape[0])
            if hit_db_pos.shape[0] == 0:
                return

        # --- Per-diagonal scan order with redundancy skip ----------------- #
        diag = hit_db_pos - hit_q_pos
        order = np.lexsort((hit_db_pos, diag))
        d_sorted = diag[order]
        j_sorted = hit_db_pos[order]
        i_sorted = hit_q_pos[order]

        # Wave loop: extend the first surviving hit of each diagonal run,
        # update that diagonal's covered span, drop hits inside it, repeat.
        # The surviving-hit arrays are compressed every round, so total
        # bookkeeping work is proportional to the hit count (as in the
        # serial C scan), not to rounds x hits.
        seq1, seq2 = bank1.seq, bank2.seq
        while d_sorted.size:
            first = np.empty(d_sorted.shape[0], dtype=bool)
            first[0] = True
            np.not_equal(d_sorted[1:], d_sorted[:-1], out=first[1:])

            res = batch_extend(
                seq1,
                seq2,
                codes1_full,
                i_sorted[first],
                j_sorted[first],
                # start_codes irrelevant without the ordered cutoff
                np.zeros(int(first.sum()), dtype=np.int64),
                w,
                p.scoring,
                ordered_cutoff=False,
            )
            keep = res.score >= s1_threshold
            _record_wave(registry, res.steps, keep)
            table.append_chunk(
                res.start1[keep], res.end1[keep], res.start2[keep], res.score[keep]
            )

            # Coverage: on each extended hit's diagonal, db positions up to
            # its extension end are covered; drop the extended hits and
            # every survivor starting inside its diagonal's covered span
            # (hits are diagonal-major, db-position ascending, so a
            # per-run forward fill propagates the cover).
            cover = np.full(d_sorted.shape[0], -1, dtype=np.int64)
            cover[first] = res.end2
            run_start = first.copy()  # same boundaries
            grp = np.cumsum(run_start) - 1
            cover_ff = _segmented_forward_max(cover, grp)
            skip = j_sorted < cover_ff
            skip |= first
            registry.inc("step2.hits_skipped", int((skip & ~first).sum()))
            keep_hits = ~skip
            d_sorted = d_sorted[keep_hits]
            j_sorted = j_sorted[keep_hits]
            i_sorted = i_sorted[keep_hits]


def _record_wave(registry: MetricsRegistry, steps: int, keep: np.ndarray) -> None:
    """Count one wave of a baseline's ungapped extensions.

    No ordered cutoff aborts a baseline extension, so each one ends as
    an HSP (``keep``) or below S1.  Hits the per-diagonal skip drops
    before extending count as ``step2.hits_skipped``.
    """
    n_kept = int(keep.sum())
    registry.inc("step2.extensions_started", keep.shape[0])
    registry.inc("step2.lane_steps", steps)
    registry.inc("step2.dropped_below_s1", keep.shape[0] - n_kept)
    registry.inc("step2.hsps_kept", n_kept)


def _segmented_forward_max(values: np.ndarray, groups: np.ndarray) -> np.ndarray:
    """Per-group running maximum (forward fill of -1 gaps).

    ``groups`` must be non-decreasing.  Used to propagate each diagonal's
    covered span to later hits on the same diagonal.
    """
    big = np.int64(1) << 42
    keyed = values + groups * big
    ff = np.maximum.accumulate(keyed)
    return ff - groups * big


class _BatchLookup:
    """Sorted-code lookup table over one query batch (BLAST's NA lookup)."""

    __slots__ = ("unique_codes", "starts", "counts", "positions", "n_words")

    def __init__(
        self,
        codes: np.ndarray,
        ok_full: np.ndarray,
        q_lo: int,
        q_hi: int,
    ):
        pos = q_lo + np.nonzero(ok_full[q_lo:q_hi])[0].astype(np.int64)
        self.n_words = int(pos.shape[0])
        if self.n_words == 0:
            self.unique_codes = np.empty(0, dtype=np.int64)
            self.starts = np.empty(0, dtype=np.int64)
            self.counts = np.empty(0, dtype=np.int64)
            self.positions = pos
            return
        order = np.argsort(codes[pos], kind="stable")
        self.positions = pos[order]
        sorted_codes = codes[self.positions]
        boundary = np.empty(self.n_words, dtype=bool)
        boundary[0] = True
        np.not_equal(sorted_codes[1:], sorted_codes[:-1], out=boundary[1:])
        self.starts = np.nonzero(boundary)[0].astype(np.int64)
        self.counts = np.diff(np.concatenate((self.starts, [self.n_words])))
        self.unique_codes = sorted_codes[self.starts]

    def join(self, db_scan_codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """All (db_pos, query_pos) hits of the database against the batch.

        This performs the lookup for *every* database position (the scan),
        then expands matching positions by their per-code query occurrence
        lists, in database order -- the vectorised equivalent of BLAST's
        serial scan loop.
        """
        if self.unique_codes.shape[0] == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy()
        slot = np.searchsorted(self.unique_codes, db_scan_codes)
        np.clip(slot, 0, self.unique_codes.shape[0] - 1, out=slot)
        is_hit = self.unique_codes[slot] == db_scan_codes
        db_pos = np.nonzero(is_hit)[0].astype(np.int64)
        if db_pos.shape[0] == 0:
            return db_pos, db_pos.copy()
        hit_slots = slot[db_pos]
        reps = self.counts[hit_slots]
        out_db = np.repeat(db_pos, reps)
        # Query positions: for each hit, the full occurrence slice.
        total = int(reps.sum())
        seg_off = np.concatenate(([0], np.cumsum(reps)))[:-1]
        rank = np.arange(total, dtype=np.int64) - np.repeat(seg_off, reps)
        out_q = self.positions[np.repeat(self.starts[hit_slots], reps) + rank]
        return out_db, out_q


def _two_hit_filter(
    db_pos: np.ndarray, q_pos: np.ndarray, w: int, window: int
) -> tuple[np.ndarray, np.ndarray]:
    """Keep hits with a second non-overlapping hit on the same diagonal
    within ``window`` positions (BLAST-2-style two-hit seeding).

    The *second* hit of each qualifying pair is kept (it triggers the
    extension in BLAST).
    """
    diag = db_pos - q_pos
    order = np.lexsort((db_pos, diag))
    d = diag[order]
    j = db_pos[order]
    same = np.zeros(order.shape[0], dtype=bool)
    if order.shape[0] > 1:
        same[1:] = (d[1:] == d[:-1]) & (j[1:] - j[:-1] >= w) & (
            j[1:] - j[:-1] <= window
        )
    keep = order[same]
    return db_pos[keep], q_pos[keep]
