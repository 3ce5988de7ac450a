"""Resource governor: preflight estimation, budgets, graceful degradation.

The paper is explicit that memory is the binding constraint of intensive
comparison (section 3.1: the index "is approximately equal to 5 x N
bytes"; section 4: full-genome runs "will require systems having large
memory").  PR 1 made the pipeline survive crashes; this module makes it
survive *its own appetite*: instead of letting the OOM killer deliver an
unresumable SIGKILL, the governor

* estimates the comparison's in-memory footprint **before** any index is
  built (:func:`estimate_comparison_bytes`), using the measured per-nt
  peak of building this reproduction's CSR layout (int32 arrays like the
  paper's 5N C layout, plus per-position cutoff codes and the build's
  int64 sort keys);
* plans the run against a ``--memory-budget`` ceiling
  (:func:`plan_comparison`): when the monolithic footprint fits, nothing
  changes; when it does not, the subject bank degrades to tiled
  comparison (:func:`repro.core.tiled.compare_tiled`) with tile sizes
  shrunk (halved from the default) until one query index plus one tile
  index fits, and only if *no* viable tile exists does it raise
  :class:`~repro.runtime.errors.ResourceExhausted`.  The degraded
  output is byte-identical to the monolithic run when the overlap is at
  least :func:`repro.serve.fleet.required_overlap` of the longest
  bank-1 sequence;
* preflights free disk space for ``--checkpoint`` directories
  (:func:`preflight_disk`) so a journal never dies half-written on a
  full filesystem;
* samples the process's peak RSS (:func:`rss_peak_bytes`,
  ``VmHWM`` from ``/proc/self/status`` with a ``getrusage`` fallback)
  into the run's ``resources.rss_peak_bytes`` gauge so ``--stats`` reports
  what the run actually used next to what the governor predicted.
"""

from __future__ import annotations

import os
import re
import shutil
from dataclasses import dataclass

from ..io.bank import Bank
from .errors import ResourceExhausted

__all__ = [
    "ResourcePlan",
    "parse_size",
    "format_size",
    "estimate_index_bytes",
    "estimate_comparison_bytes",
    "estimate_arena_bytes",
    "plan_comparison",
    "estimate_checkpoint_bytes",
    "preflight_disk",
    "preflight_shm_arena",
    "rss_peak_bytes",
    "sample_rss",
]

#: Per-nucleotide peak of building one bank's CSR seed index and packed
#: image, filter mask included, with a tenth for headroom.  What stays
#: held is ~18 bytes/nt: 1 byte encoded ``SEQ``, int32 ``positions`` and
#: ``cutoff_codes`` (4 + 4), int32 ``unique_codes`` and ``code_starts``
#: (up to 4 + 4: one entry per distinct code), the 1-byte indexed mask
#: and the 3/8-byte packed image.  The build's transients top that: the
#: DUST scratch of a sequence run, then the int64 sort keys beside the
#: int32 codes.  ``test_index_estimate_covers_measured_build`` measures
#: the peak under tracemalloc on a bank of all-distinct codes
#: (~33 bytes/nt); the paper's C prototype needs 5 bytes/nt.
INDEX_BYTES_PER_NT: int = 36

#: Flat allowance for interpreter, NumPy, code and working set.
BASELINE_BYTES: int = 96 << 20

#: Default subject tile size when degradation starts (matches
#: :func:`repro.core.tiled.compare_tiled`'s default).
DEFAULT_TILE_NT: int = 1_000_000

#: Smallest subject tile the governor will plan.  Below this, tiling
#: overhead (overlap re-indexing) dominates and the budget is hopeless.
MIN_TILE_NT: int = 20_000

#: Journal preflight: worst-case bytes per range-task chunk plus slack.
CHECKPOINT_BYTES_PER_TASK: int = 4 << 20
CHECKPOINT_FLOOR_BYTES: int = 32 << 20

_SIZE_RE = re.compile(r"^\s*(\d+(?:\.\d+)?)\s*([KMGT]I?B?|B)?\s*$", re.IGNORECASE)
_SIZE_MULT = {"": 1, "B": 1, "K": 1 << 10, "M": 1 << 20, "G": 1 << 30, "T": 1 << 40}


def parse_size(text: str | int) -> int:
    """Parse a human byte size (``"512M"``, ``"1.5G"``, ``"4096"``).

    Suffixes are binary (K=2^10, M=2^20, G=2^30, T=2^40); ``KiB``/``KB``
    spellings are accepted and treated identically.
    """
    if isinstance(text, int):
        if text <= 0:
            raise ValueError("size must be positive")
        return text
    m = _SIZE_RE.match(text)
    if not m:
        raise ValueError(
            f"cannot parse size {text!r}; use e.g. 512M, 2G, or a byte count"
        )
    value = float(m.group(1))
    suffix = (m.group(2) or "").upper().rstrip("B").rstrip("I")
    result = int(value * _SIZE_MULT[suffix])
    if result <= 0:
        raise ValueError("size must be positive")
    return result


def format_size(n: int) -> str:
    """Render bytes with a binary suffix (inverse-ish of :func:`parse_size`)."""
    value = float(n)
    for suffix in ("B", "KiB", "MiB", "GiB"):
        if value < 1024 or suffix == "GiB":
            return f"{value:.0f}{suffix}" if suffix == "B" else f"{value:.1f}{suffix}"
        value /= 1024
    return f"{n}B"  # pragma: no cover - unreachable


def estimate_index_bytes(n_nt: int) -> int:
    """Projected bytes to hold one bank of ``n_nt`` nucleotides indexed."""
    return INDEX_BYTES_PER_NT * max(int(n_nt), 0)


def estimate_comparison_bytes(bank1_nt: int, bank2_nt: int) -> int:
    """Projected peak bytes of a monolithic comparison of two banks."""
    return (
        BASELINE_BYTES
        + estimate_index_bytes(bank1_nt)
        + estimate_index_bytes(bank2_nt)
    )


@dataclass(frozen=True, slots=True)
class ResourcePlan:
    """The governor's verdict on how a comparison should run.

    ``mode`` is ``"monolithic"`` (both indexes fit) or ``"tiled"``
    (subject degraded to :func:`~repro.core.tiled.compare_tiled` with
    :attr:`tile_nt`/:attr:`overlap`).  ``estimated_bytes`` is the
    monolithic projection, ``planned_bytes`` the projection of the
    chosen mode.
    """

    mode: str
    budget_bytes: int | None
    estimated_bytes: int
    planned_bytes: int
    tile_nt: int | None = None
    overlap: int | None = None
    reason: str = ""

    @property
    def degraded(self) -> bool:
        return self.mode == "tiled"

    def describe(self) -> str:
        budget = (
            "unbounded" if self.budget_bytes is None
            else format_size(self.budget_bytes)
        )
        line = (
            f"mode={self.mode} budget={budget} "
            f"estimated={format_size(self.estimated_bytes)} "
            f"planned={format_size(self.planned_bytes)}"
        )
        if self.mode == "tiled":
            line += f" tile_nt={self.tile_nt} overlap={self.overlap}"
        return line


def plan_comparison(
    bank1: Bank,
    bank2: Bank,
    budget_bytes: int | None,
    overlap: int = 10_000,
    start_tile_nt: int = DEFAULT_TILE_NT,
) -> ResourcePlan:
    """Choose monolithic vs tiled execution under a memory budget.

    Degradation shrinks the subject tile by halving from
    ``start_tile_nt`` until query index + one tile index fits the
    budget; the overlap shrinks with the tile (at most a quarter of it)
    so the tiling invariant ``overlap < tile_nt`` always holds.  Raises
    :class:`ResourceExhausted` when even the smallest viable tile
    (:data:`MIN_TILE_NT`) cannot fit.
    """
    n1, n2 = bank1.size_nt, bank2.size_nt
    estimated = estimate_comparison_bytes(n1, n2)
    if budget_bytes is None or estimated <= budget_bytes:
        return ResourcePlan(
            mode="monolithic",
            budget_bytes=budget_bytes,
            estimated_bytes=estimated,
            planned_bytes=estimated,
            reason="estimated footprint fits the budget"
            if budget_bytes is not None
            else "no memory budget set",
        )
    fixed = BASELINE_BYTES + estimate_index_bytes(n1)
    if fixed + estimate_index_bytes(MIN_TILE_NT) > budget_bytes:
        raise ResourceExhausted(
            f"memory budget {format_size(budget_bytes)} cannot hold the "
            f"query-side index ({format_size(fixed)} incl. baseline) plus "
            f"even a minimum {MIN_TILE_NT} nt subject tile; raise "
            f"--memory-budget to at least "
            f"{format_size(fixed + estimate_index_bytes(MIN_TILE_NT))} "
            "or swap the banks so the smaller one is the query"
        )
    tile_nt = min(start_tile_nt, max(n2, MIN_TILE_NT))
    while fixed + estimate_index_bytes(tile_nt) > budget_bytes:
        tile_nt //= 2  # shrink until one tile's index fits
    tile_nt = max(tile_nt, MIN_TILE_NT)
    tile_overlap = min(overlap, tile_nt // 4)
    planned = fixed + estimate_index_bytes(tile_nt)
    return ResourcePlan(
        mode="tiled",
        budget_bytes=budget_bytes,
        estimated_bytes=estimated,
        planned_bytes=planned,
        tile_nt=tile_nt,
        overlap=tile_overlap,
        reason=(
            f"monolithic footprint {format_size(estimated)} exceeds the "
            f"budget {format_size(budget_bytes)}; degrading to tiled "
            f"indexing with {tile_nt} nt tiles"
        ),
    )


#: Per-nucleotide footprint of the published step-2 worker arena: one
#: encoded byte per nt plus the int64 CSR ``positions`` entry (8 bytes)
#: for each bank, plus a small allowance for the common-code extent
#: arrays (bounded by the smaller bank's code count).
ARENA_BYTES_PER_NT: int = 12


def estimate_arena_bytes(bank1_nt: int, bank2_nt: int) -> int:
    """Projected bytes of the shared-memory worker arena for two banks.

    A deliberate over-estimate (like the checkpoint projection): the
    preflight's job is to warn before the run commits, not to be tight.
    The exact total is re-checked against ``/dev/shm`` at publish time
    by :func:`repro.runtime.shm.preflight_shm`.
    """
    return ARENA_BYTES_PER_NT * (max(int(bank1_nt), 0) + max(int(bank2_nt), 0))


def preflight_shm_arena(bank1_nt: int, bank2_nt: int) -> int:
    """Verify ``/dev/shm`` can plausibly hold the worker arena.

    Returns the estimated arena bytes; raises
    :class:`ResourceExhausted` when the shared-memory filesystem is
    clearly too small -- callers degrade to the pickled payload path
    (the run still works, just with per-worker copies).
    """
    from .shm import preflight_shm

    estimate = estimate_arena_bytes(bank1_nt, bank2_nt)
    preflight_shm(estimate)
    return estimate


def estimate_checkpoint_bytes(n_tasks: int) -> int:
    """Worst-case journal + chunk footprint for ``n_tasks`` range tasks.

    HSP counts are data-dependent and unknowable before step 2 runs, so
    this is a deliberate over-estimate (dense chunks) with a floor; the
    preflight's job is to fail *before* hours of compute, not to be a
    tight bound.
    """
    return max(CHECKPOINT_FLOOR_BYTES, CHECKPOINT_BYTES_PER_TASK * max(n_tasks, 1))


def preflight_disk(directory, required_bytes: int) -> int:
    """Verify the filesystem under *directory* has ``required_bytes`` free.

    The directory may not exist yet (the journal creates it); the check
    walks up to the nearest existing ancestor.  Returns the free bytes
    found; raises :class:`ResourceExhausted` when insufficient.
    """
    probe = os.path.abspath(os.fspath(directory))
    while not os.path.exists(probe):
        parent = os.path.dirname(probe)
        if parent == probe:  # filesystem root missing: let open() report it
            break
        probe = parent
    free = shutil.disk_usage(probe).free
    if free < required_bytes:
        raise ResourceExhausted(
            f"checkpoint directory {os.fspath(directory)!r} has "
            f"{format_size(free)} free but the journal may need up to "
            f"{format_size(required_bytes)}; free space or point "
            "--checkpoint at a roomier filesystem"
        )
    return free


def available_memory_bytes() -> int | None:
    """System memory currently available without swapping (``None`` unknown).

    Reads ``MemAvailable`` from ``/proc/meminfo`` (Linux's own estimate of
    how much anonymous memory can be allocated before reclaim hurts).
    The serving admission controller sheds load against this number so a
    burst of large queries degrades into 429s instead of an OOM kill of a
    daemon holding a warm multi-gigabyte index.
    """
    try:
        with open("/proc/meminfo", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    return None


def estimate_batch_bytes(batch_nt: int, n_workers: int = 1) -> int:
    """Rough peak footprint of serving one micro-batch of ``batch_nt`` nt.

    The query-side index (built fresh per batch) plus the per-batch
    arena copy plus per-worker extension lanes.  Like every governor
    estimate this is deliberately generous -- its job is to shed load
    *before* the allocation, not to be tight.
    """
    index = estimate_index_bytes(batch_nt)
    lanes = 4 * 1024 * 1024 * max(n_workers, 1)
    return 2 * index + lanes


def rss_peak_bytes() -> int:
    """Peak resident set size of this process, in bytes (0 if unknown).

    Prefers ``VmHWM`` from ``/proc/self/status`` (Linux); falls back to
    ``resource.getrusage`` (kilobytes on Linux, bytes on macOS).
    """
    try:
        with open("/proc/self/status", "r", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource
        import sys

        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        return peak if sys.platform == "darwin" else peak * 1024
    except Exception:  # pragma: no cover - exotic platforms
        return 0


def sample_rss(registry) -> int:
    """Fold the current RSS high-water mark into ``registry``.

    The ``resources.rss_peak_bytes`` gauge merges with ``max``, so it
    only ever grows: later samples can only confirm or raise it.
    """
    peak = rss_peak_bytes()
    registry.set_gauge("resources.rss_peak_bytes", float(peak), mode="max")
    return peak
