"""Tiled comparison: banks larger than memory (paper sections 3.1 and 4).

The paper: "The size of the bank ... depends of the size of the available
memory on the computer" (5N bytes of index per bank), and its future work
warns that full-genome comparisons "will require systems having large
memory".  This module removes that constraint the standard way: the
subject bank is cut into *tiles* whose index fits a memory budget, and a
long sequence is windowed with an overlap so alignments near window
borders are still seen whole by exactly one window.  It is the one owner
of tiling: the ``--memory-budget`` fallback (:func:`compare_tiled`) and
the serving fleet (:mod:`repro.serve.fleet`) share the cutter, the
per-tile comparison, the ownership rule and the merge below.

Ownership rule (:func:`tile_owns`): each window owns the alignments whose
subject interval *starts* inside its ownership region -- the window minus
half an overlap of margin on each interior edge.  The margins guarantee
an owned alignment's true start is visible to its owner (a version
truncated at the window's left edge starts *inside* the margin and is
discarded; the previous window owns and sees it whole).

Two per-tile statistics would drift from the uncut run, so every tile is
compared with the :class:`FleetProfile` of the whole bank
(:func:`compare_shard`): the S1 threshold uses the whole bank's size and
sequence count, and e-values use each subject sequence's full length.

Contract: the merged output is byte-identical to the uncut comparison
when the overlap is at least
:func:`repro.serve.fleet.required_overlap` of the longest bank-1
sequence (twice the longest alignment span plus edge slack).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, replace

import numpy as np

from ..align.records import sort_records
from ..io.bank import Bank
from ..io.m8 import M8Record
from ..obs import MetricsRegistry, span
from .engine import ComparisonResult, OrisEngine, StepTimings, WorkCounters
from .params import OrisParams

__all__ = [
    "FleetProfile",
    "compare_shard",
    "compare_tiled",
    "iter_subject_tiles",
    "merge_shard_records",
    "tile_owns",
]

PROFILE_SCHEMA = "scoris-fleet-profile/1"


@dataclass(frozen=True)
class FleetProfile:
    """Global subject statistics every tile must use instead of its own.

    ``subject_nt``/``subject_seqs`` size the S1 threshold; ``full_nt``
    maps each sequence name to its *original* length for e-values (a
    windowed tile sees only a slice).
    """

    subject_nt: int
    subject_seqs: int
    full_nt: dict[str, int]

    @classmethod
    def of(cls, bank: Bank) -> "FleetProfile":
        """The profile of a whole subject bank."""
        return cls(
            subject_nt=bank.size_nt,
            subject_seqs=bank.n_sequences,
            full_nt={
                bank.names[i]: bank.sequence_length(i)
                for i in range(bank.n_sequences)
            },
        )

    def to_dict(self) -> dict:
        return {
            "schema": PROFILE_SCHEMA,
            "subject_nt": self.subject_nt,
            "subject_seqs": self.subject_seqs,
            "full_nt": dict(self.full_nt),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FleetProfile":
        if data.get("schema") != PROFILE_SCHEMA:
            raise ValueError(
                f"not a fleet profile (schema {data.get('schema')!r})"
            )
        return cls(
            subject_nt=int(data["subject_nt"]),
            subject_seqs=int(data["subject_seqs"]),
            full_nt={str(k): int(v) for k, v in data["full_nt"].items()},
        )

    def subject_lengths_for(self, bank: Bank) -> np.ndarray:
        """Per-sequence e-value lengths for one tile bank."""
        return np.array(
            [
                self.full_nt.get(bank.names[i], bank.sequence_length(i))
                for i in range(bank.n_sequences)
            ],
            dtype=np.int64,
        )


@dataclass(frozen=True, slots=True)
class _Tile:
    """One subject tile: a bank plus coordinate/ownership metadata."""

    bank: Bank
    #: per tile sequence: offset of the window within the original sequence
    offsets: dict[str, int]
    #: per tile sequence: [owned_from, owned_until) in original coordinates
    owned_from: dict[str, int]
    owned_until: dict[str, int]


def iter_subject_tiles(bank2: Bank, tile_nt: int, overlap: int):
    """Yield subject tiles of at most ~``tile_nt`` nucleotides.

    Whole short sequences are packed together; sequences longer than
    ``tile_nt`` are windowed with ``overlap``-sized overlaps.  Every
    original position is owned by exactly one tile.
    """
    if tile_nt <= 0:
        raise ValueError("tile_nt must be positive")
    if overlap < 0 or overlap >= tile_nt:
        raise ValueError("overlap must satisfy 0 <= overlap < tile_nt")

    records: list[tuple[str, str]] = []
    offsets: dict[str, int] = {}
    owned_lo: dict[str, int] = {}
    owned_hi: dict[str, int] = {}
    acc = 0

    def flush():
        nonlocal records, offsets, owned_lo, owned_hi, acc
        if records:
            yield _Tile(Bank.from_strings(records), offsets, owned_lo, owned_hi)
        records, offsets, owned_lo, owned_hi, acc = [], {}, {}, {}, 0

    margin = overlap // 2
    for i in range(bank2.n_sequences):
        name = bank2.names[i]
        seq = bank2.sequence_str(i)
        if len(seq) <= tile_nt:
            if acc + len(seq) > tile_nt and records:
                yield from flush()
            records.append((name, seq))
            offsets[name] = 0
            owned_lo[name] = 0
            owned_hi[name] = len(seq)
            acc += len(seq)
            continue
        # Long sequence: emit any pending pack first, then window it.
        yield from flush()
        step = tile_nt - overlap
        pos = 0
        while pos < len(seq):
            hi = min(pos + tile_nt, len(seq))
            window = seq[pos:hi]
            own_lo = 0 if pos == 0 else pos + margin
            own_hi = len(seq) if hi == len(seq) else hi - overlap + margin
            yield _Tile(
                Bank.from_strings([(name, window)]),
                {name: pos},
                {name: own_lo},
                {name: own_hi},
            )
            if hi == len(seq):
                break
            pos += step
    yield from flush()


def tile_owns(tile, subject_id: str, s_start: int, s_end: int) -> bool:
    """The ownership test for one record in *tile-local* coordinates.

    ``tile`` is anything carrying the cutter's ``offsets``,
    ``owned_from`` and ``owned_until`` maps: a tile, or a fleet
    :class:`~repro.serve.fleet.ShardSpec`.
    """
    s_lo = min(s_start, s_end) - 1 + tile.offsets[subject_id]
    return tile.owned_from[subject_id] <= s_lo < tile.owned_until[subject_id]


def _shift_record(rec: M8Record, offset: int) -> M8Record:
    return replace(rec, s_start=rec.s_start + offset, s_end=rec.s_end + offset)


def compare_shard(
    bank1: Bank,
    shard_bank: Bank,
    params: OrisParams,
    profile: FleetProfile,
) -> ComparisonResult:
    """Steps 1-4 against one tile with the profile's overrides.

    Local pair enumeration and extension, the whole bank's S1
    threshold, full-length e-values and window-relative coordinates:
    what a fleet shard daemon computes for one query bank, and what
    :func:`compare_tiled` runs per tile.
    """
    return OrisEngine(params)._compare_one_strand(
        bank1, shard_bank, minus=False, profile=profile
    )


def merge_shard_records(
    shard_results: Iterable[tuple[object, list[M8Record]]],
    sort_key: str = "evalue",
) -> tuple[list[M8Record], int]:
    """Seam-exact merge of per-tile record lists.

    ``shard_results`` yields ``(tile, records)`` pairs in tile order
    (``tile`` as for :func:`tile_owns`).  The merge drops the non-owner
    copy of every seam-straddling alignment, shifts subject coordinates
    back into the original sequences, and re-sorts with the engine's
    own key; the sort is stable, so ties keep tile order.  Returns
    ``(records, n_deduped)`` where ``n_deduped`` counts the ownership
    drops (the ``fleet.seam_hits_deduped`` metric).
    """
    kept: list[M8Record] = []
    dropped = 0
    for tile, records in shard_results:
        for rec in records:
            if tile_owns(tile, rec.subject_id, rec.s_start, rec.s_end):
                kept.append(_shift_record(rec, tile.offsets[rec.subject_id]))
            else:
                dropped += 1
    return sort_records(kept, key=sort_key), dropped


def compare_tiled(
    bank1: Bank,
    bank2: Bank,
    params: OrisParams | None = None,
    tile_nt: int = 1_000_000,
    overlap: int = 10_000,
) -> ComparisonResult:
    """ORIS comparison with the subject bank processed tile by tile.

    Peak index memory is bounded by ``bank1`` plus one tile instead of
    both full banks.  Each tile runs :func:`compare_shard` with the
    whole bank's profile and :func:`merge_shard_records` joins them, so
    the records equal the monolithic comparison's whenever ``overlap``
    meets the module's contract.
    """
    params = params or OrisParams()
    if params.strand != "plus":
        raise ValueError("compare_tiled is single-strand; call per strand")
    profile = FleetProfile.of(bank2)
    timings = StepTimings()
    counters = WorkCounters()
    registry = MetricsRegistry()

    def per_tile():
        # A generator, so the merge filters each tile's records as it
        # arrives and no tile bank outlives its comparison.
        for tile in iter_subject_tiles(bank2, tile_nt, overlap):
            with span("tile.compare", tile=counters.n_tiles):
                res = compare_shard(bank1, tile.bank, params, profile)
            registry.merge(res.metrics)
            registry.observe("tile.records", len(res.records))
            timings.add(res.timings)
            counters.add(res.counters)
            counters.n_tiles += 1
            yield tile, res.records

    records, n_deduped = merge_shard_records(per_tile(), params.sort_key)
    counters.n_records = len(records)
    # The ownership rule dropped border duplicates after the per-tile
    # display stage; restate step 4 so the funnel describes the *final*
    # output (records + evalue_filtered + ownership_filtered == alignments).
    registry.counter("step4.records").value = len(records)
    registry.inc("step4.ownership_filtered", n_deduped)
    registry.inc("tile.tiles", counters.n_tiles)
    return ComparisonResult(
        records=records,
        alignments=[],  # per-tile alignments are not retained
        timings=timings,
        counters=counters,
        params=params,
        metrics=registry,
    )
