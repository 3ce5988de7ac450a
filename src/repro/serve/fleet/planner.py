"""Shard planner: cut a subject bank into overlapping, seam-exact tiles.

Tiling itself lives in :mod:`repro.core.tiled`, shared with the
memory-budget fallback: the cutter, the ownership rule every
:class:`ShardSpec` applies, the per-tile comparison and the merge.  So
every original subject position is *owned* by exactly one shard and any
alignment short enough for the overlap is seen whole by its owner.  The
ordered-seed canonical-generator property then makes dedup exact: the
owner window contains the complete alignment, produces it from the same
canonical seed, and emits the identical record; non-owner copies are
dropped by the ownership rule, never merged or clipped.

Two per-shard statistics would drift from the monolithic run and are
fixed by the :class:`~repro.core.tiled.FleetProfile` every shard daemon
loads: the **S1 threshold** uses the whole bank's size and sequence
count, and **e-values** use each subject sequence's full length.

This module sizes the tiles (:func:`plan_fleet`, :func:`required_overlap`)
and writes and reads the plan files.  Subject coordinates stay
window-relative on the wire; the router shifts them by the planner's
per-sequence offsets during the merge.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

from ...core.params import OrisParams
from ...core.tiled import FleetProfile, iter_subject_tiles, tile_owns
from ...io.bank import Bank

__all__ = [
    "FleetPlan",
    "FleetProfile",
    "ShardSpec",
    "load_plan",
    "load_profile",
    "plan_fleet",
    "required_overlap",
    "write_plan",
]

PLAN_SCHEMA = "scoris-fleet-plan/1"

#: Safety margin absorbing boundary effects that are not part of the
#: alignment span proper: the DUST filter's window near a cut point and
#: ungapped x-drop overshoot.  Generous and cheap (it only grows the
#: overlap, never the output).
_EDGE_SLACK_NT = 256


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
        return tile_owns(self, subject_id, s_start, s_end)

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
    profile = FleetProfile.of(bank2)
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
