"""Shard planner: cut a subject bank into overlapping, seam-exact tiles.

The cutting itself is :func:`repro.core.tiled.iter_subject_tiles` -- the
same windows-with-overlap the tiled batch comparison uses -- so every
original subject position is *owned* by exactly one shard and any
alignment short enough for the overlap is seen whole by its owner.  The
ordered-seed canonical-generator property then makes dedup exact: the
owner window contains the complete alignment, produces it from the same
canonical seed, and emits the identical record; non-owner copies are
dropped by the ownership rule, never merged or clipped.

Two per-shard statistics would drift from the monolithic run and are
fixed by the :class:`FleetProfile` every shard daemon loads:

* the **S1 threshold** is a function of the subject bank's total size
  and sequence count -- the profile carries the *global* values and the
  shard engine overrides its local ones
  (:meth:`repro.core.engine.OrisEngine._resolve_hsp_min_score`);
* **e-values** use the *subject sequence* length ``n`` -- a shard
  serving a window of a longer sequence reports the original full
  length from the profile (``subject_lengths`` override in
  :func:`repro.align.records.alignments_to_m8`).

Subject coordinates stay window-relative on the wire; the router shifts
them by the planner's per-sequence offsets during the merge.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from ...align.evalue import karlin_params
from ...align.records import sort_records
from ...core.engine import OrisEngine, StepTimings, WorkCounters
from ...core.params import OrisParams
from ...core.tiled import _shift_record, iter_subject_tiles
from ...io.bank import Bank
from ...io.m8 import M8Record
from ...obs import MetricsRegistry

__all__ = [
    "FleetPlan",
    "FleetProfile",
    "ShardSpec",
    "compare_shard",
    "load_plan",
    "load_profile",
    "merge_shard_records",
    "plan_fleet",
    "required_overlap",
    "write_plan",
]

PLAN_SCHEMA = "scoris-fleet-plan/1"
PROFILE_SCHEMA = "scoris-fleet-profile/1"

#: Safety margin absorbing boundary effects that are not part of the
#: alignment span proper: the DUST filter's window near a cut point and
#: ungapped x-drop overshoot.  Generous and cheap (it only grows the
#: overlap, never the output).
_EDGE_SLACK_NT = 256


@dataclass(frozen=True)
class FleetProfile:
    """Global subject statistics every shard must use instead of its own.

    ``subject_nt``/``subject_seqs`` size the S1 threshold; ``full_nt``
    maps each sequence name to its *original* length for e-values (a
    windowed shard sees only a slice).
    """

    subject_nt: int
    subject_seqs: int
    full_nt: dict[str, int]

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
        """Per-sequence e-value lengths for one shard bank."""
        return np.array(
            [
                self.full_nt.get(bank.names[i], bank.sequence_length(i))
                for i in range(bank.n_sequences)
            ],
            dtype=np.int64,
        )


@dataclass(frozen=True)
class ShardSpec:
    """One shard: its tile bank plus seam-ownership metadata.

    Per sequence *in this shard*: ``offsets[name]`` is the window's
    start within the original sequence (0 for unsplit sequences) and
    ``[owned_from[name], owned_until[name])`` the 0-based range of
    original subject positions whose alignments this shard owns.
    """

    shard_id: int
    offsets: dict[str, int]
    owned_from: dict[str, int]
    owned_until: dict[str, int]
    window_nt: dict[str, int]
    fasta: str = ""  # relative path once written; "" for in-memory plans

    def owns(self, subject_id: str, s_start: int, s_end: int) -> bool:
        """Ownership test for one record in *shard-local* coordinates."""
        s_lo = min(s_start, s_end) - 1 + self.offsets[subject_id]
        return (
            self.owned_from[subject_id] <= s_lo < self.owned_until[subject_id]
        )

    def to_dict(self) -> dict:
        return {
            "shard_id": self.shard_id,
            "fasta": self.fasta,
            "offsets": dict(self.offsets),
            "owned_from": dict(self.owned_from),
            "owned_until": dict(self.owned_until),
            "window_nt": dict(self.window_nt),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ShardSpec":
        return cls(
            shard_id=int(data["shard_id"]),
            fasta=str(data.get("fasta", "")),
            offsets={k: int(v) for k, v in data["offsets"].items()},
            owned_from={k: int(v) for k, v in data["owned_from"].items()},
            owned_until={k: int(v) for k, v in data["owned_until"].items()},
            window_nt={k: int(v) for k, v in data["window_nt"].items()},
        )


@dataclass
class FleetPlan:
    """The planner's output: shard specs, banks, and the global profile."""

    profile: FleetProfile
    specs: list[ShardSpec]
    banks: list[Bank] = field(default_factory=list)  # parallel to specs
    tile_nt: int = 0
    overlap: int = 0

    @property
    def n_shards(self) -> int:
        return len(self.specs)

    def to_dict(self) -> dict:
        return {
            "schema": PLAN_SCHEMA,
            "tile_nt": self.tile_nt,
            "overlap": self.overlap,
            "profile": self.profile.to_dict(),
            "shards": [spec.to_dict() for spec in self.specs],
        }


def required_overlap(max_query_nt: int, params: OrisParams | None = None) -> int:
    """Smallest safe window overlap for queries up to ``max_query_nt``.

    The tiled module's contract: the overlap must be at least twice the
    longest alignment span.  A plus-strand subject span is bounded by
    the query length plus the gapped band's slack on both ends, plus a
    fixed margin for filter/x-drop edge effects.
    """
    if max_query_nt < 1:
        raise ValueError("max_query_nt must be >= 1")
    p = params or OrisParams()
    span = max_query_nt + 2 * p.band_radius + _EDGE_SLACK_NT
    return 2 * span


def plan_fleet(
    bank2: Bank,
    n_shards: int,
    overlap: int,
) -> FleetPlan:
    """Cut ``bank2`` into about ``n_shards`` overlapping tiles.

    ``overlap`` must come from :func:`required_overlap` (or be larger);
    the planner only sizes the tiles.  The tile size starts at an even
    split and grows until the tile count fits the target -- the cutter
    can produce more tiles than asked when sequence boundaries force
    extra flushes, and fewer for tiny banks; exactness never depends on
    the count, only on the overlap.
    """
    if n_shards < 1:
        raise ValueError("n_shards must be >= 1")
    if overlap < 0:
        raise ValueError("overlap must be >= 0")
    profile = FleetProfile(
        subject_nt=bank2.size_nt,
        subject_seqs=bank2.n_sequences,
        full_nt={
            bank2.names[i]: bank2.sequence_length(i)
            for i in range(bank2.n_sequences)
        },
    )
    tile_nt = _fit_tile_nt(-(-bank2.size_nt // n_shards), overlap)  # ceil
    tiles = list(iter_subject_tiles(bank2, tile_nt, overlap))
    # Grow gently (x1.25) when boundary flushes produced extra tiles: a
    # doubling step overshoots on small banks and collapses a requested
    # 2-shard plan straight to 1.
    while len(tiles) > n_shards and tile_nt < bank2.size_nt:
        tile_nt = _fit_tile_nt(
            min(max(tile_nt + tile_nt // 4, tile_nt + 1), bank2.size_nt),
            overlap,
        )
        tiles = list(iter_subject_tiles(bank2, tile_nt, overlap))
    specs: list[ShardSpec] = []
    banks: list[Bank] = []
    for shard_id, tile in enumerate(tiles):
        specs.append(
            ShardSpec(
                shard_id=shard_id,
                offsets=dict(tile.offsets),
                owned_from=dict(tile.owned_from),
                owned_until=dict(tile.owned_until),
                window_nt={
                    tile.bank.names[i]: tile.bank.sequence_length(i)
                    for i in range(tile.bank.n_sequences)
                },
            )
        )
        banks.append(tile.bank)
    return FleetPlan(
        profile=profile, specs=specs, banks=banks,
        tile_nt=tile_nt, overlap=overlap,
    )


def _fit_tile_nt(tile_nt: int, overlap: int) -> int:
    """Grow a candidate tile size until the cutter's invariants hold.

    The cutter needs ``overlap < tile_nt`` unconditionally, and a
    comfortable ``tile_nt >= 2 * overlap`` keeps the window step at
    least one overlap wide (degenerate steps would be correct but would
    explode the window count).
    """
    return max(tile_nt, 2 * overlap, overlap + 1, 1)


def write_plan(plan: FleetPlan, directory: str) -> str:
    """Materialise a plan: one FASTA per shard plus ``plan.json``.

    Returns the plan file's path.  The profile is also written as its
    own ``profile.json`` (shard daemons load just that file).
    """
    os.makedirs(directory, exist_ok=True)
    specs: list[ShardSpec] = []
    for spec, bank in zip(plan.specs, plan.banks):
        fasta = f"shard{spec.shard_id:03d}.fa"
        bank.to_fasta(os.path.join(directory, fasta))
        specs.append(
            ShardSpec(
                shard_id=spec.shard_id,
                offsets=spec.offsets,
                owned_from=spec.owned_from,
                owned_until=spec.owned_until,
                window_nt=spec.window_nt,
                fasta=fasta,
            )
        )
    plan.specs = specs
    profile_path = os.path.join(directory, "profile.json")
    _atomic_json(profile_path, plan.profile.to_dict())
    plan_path = os.path.join(directory, "plan.json")
    _atomic_json(plan_path, plan.to_dict())
    return plan_path


def _atomic_json(path: str, payload: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def load_plan(plan_path: str) -> FleetPlan:
    """Read a materialised plan (banks are *not* loaded -- the shard
    daemons own their FASTAs; the router only needs the metadata)."""
    with open(plan_path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if data.get("schema") != PLAN_SCHEMA:
        raise ValueError(f"not a fleet plan (schema {data.get('schema')!r})")
    return FleetPlan(
        profile=FleetProfile.from_dict(data["profile"]),
        specs=[ShardSpec.from_dict(s) for s in data["shards"]],
        banks=[],
        tile_nt=int(data["tile_nt"]),
        overlap=int(data["overlap"]),
    )


def load_profile(profile_path: str) -> FleetProfile:
    with open(profile_path, "r", encoding="utf-8") as fh:
        return FleetProfile.from_dict(json.load(fh))


# --------------------------------------------------------------------- #
# Reference per-shard comparison + merge (socket-free)
# --------------------------------------------------------------------- #

def compare_shard(
    bank1: Bank,
    shard_bank: Bank,
    params: OrisParams,
    profile: FleetProfile,
) -> list[M8Record]:
    """Steps 1-4 against one shard tile with the profile's overrides.

    This is the unit-level reference for what a shard *daemon* computes
    for one query bank: local pair enumeration and extension, global S1
    threshold, full-length e-values, window-relative coordinates.  The
    seam property test runs it per tile and asserts the merged output
    equals the uncut comparison exactly.
    """
    engine = OrisEngine(params)
    registry = MetricsRegistry()
    counters = WorkCounters()
    timings = StepTimings()
    index1, index2 = engine.index_step(bank1, shard_bank, timings, registry)
    threshold = engine._resolve_hsp_min_score(
        bank1,
        shard_bank,
        karlin_params(params.scoring),
        subject_nt=profile.subject_nt,
        subject_seqs=profile.subject_seqs,
    )
    table = engine._ungapped_stage(index1, index2, threshold, counters, registry)
    result = engine.finish_comparison(
        bank1,
        shard_bank,
        table,
        counters,
        timings,
        registry,
        subject_lengths=profile.subject_lengths_for(shard_bank),
    )
    return result.records


def merge_shard_records(
    shard_results: list[tuple[ShardSpec, list[M8Record]]],
    sort_key: str = "evalue",
) -> tuple[list[M8Record], int]:
    """Seam-exact merge of per-shard record lists.

    Applies each shard's ownership rule (dropping the non-owner copy of
    every seam-straddling alignment), shifts subject coordinates back
    into the original sequences, and re-sorts with the engine's own
    key.  Shards are concatenated in ``shard_id`` order and the sort is
    stable, so ties keep a deterministic order.  Returns
    ``(records, n_deduped)`` where ``n_deduped`` counts the ownership
    drops (the ``fleet.seam_hits_deduped`` metric).
    """
    kept: list[M8Record] = []
    dropped = 0
    for spec, records in sorted(shard_results, key=lambda sr: sr[0].shard_id):
        for rec in records:
            if spec.owns(rec.subject_id, rec.s_start, rec.s_end):
                kept.append(_shift_record(rec, spec.offsets[rec.subject_id]))
            else:
                dropped += 1
    return sort_records(kept, key=sort_key), dropped
