"""Sharded scatter-gather serving: planner, shard manager, router.

The fleet layer horizontally partitions the resident query service: the
subject bank is cut into overlapping tiles (:mod:`planner`, over the
tiling shared with the batch engine in :mod:`repro.core.tiled`), one
query daemon is launched and supervised per tile (:mod:`manager`), and a
router frontend speaking the existing length-prefixed protocol scatters
each query to every shard and merges the partial ``-m 8`` streams back
into the exact byte stream a single daemon over the whole bank would
have produced (:mod:`router`).
"""

from ...core.tiled import FleetProfile, compare_shard, merge_shard_records
from .planner import (
    FleetPlan,
    ShardSpec,
    load_plan,
    plan_fleet,
    required_overlap,
    write_plan,
)
from .manager import ShardManager, ShardState
from .router import FleetRouter, RouterConfig

__all__ = [
    "FleetPlan",
    "FleetProfile",
    "FleetRouter",
    "RouterConfig",
    "ShardManager",
    "ShardSpec",
    "ShardState",
    "compare_shard",
    "load_plan",
    "merge_shard_records",
    "plan_fleet",
    "required_overlap",
    "write_plan",
]
