"""Checkpoint journal for resumable step-2 runs.

A checkpoint is a directory holding

``journal.jsonl``
    An append-only JSON-lines file.  The first line is a *header* naming
    the run fingerprint (bank/code/parameter identity); every subsequent
    line records one completed range task and points at its chunk file.
``chunk_<task>.npz``
    The HSPs the task produced, written atomically
    (temp file + ``os.replace``) and checksummed with CRC-32; the journal
    line stores the checksum so resume never trusts a torn or bit-rotten
    chunk.

Because range tasks are idempotent (see :mod:`repro.core.parallel`), the
journal needs no distributed-log machinery: a task either has a valid
line + chunk (skip it on resume) or it does not (re-run it).  A torn
*final* journal line -- the signature of a ``SIGKILL`` mid-append -- is
silently dropped; damage anywhere else, or a header that does not match
the resuming run, raises :class:`~repro.runtime.errors.CheckpointCorrupt`
instead of resuming against the wrong inputs.

Each task line carries the task's metrics snapshot
(:meth:`~repro.obs.MetricsRegistry.as_dict`), the only record of its
counts.  Version 1 journals kept separate ``n_pairs``/``n_cut``/``steps``
fields and an optional snapshot; they are refused, never resumed with
missing counts.
"""

from __future__ import annotations

import json
import os
import warnings
import zlib
from pathlib import Path

import numpy as np

from ..core.parallel import RangeResult
from ..obs import MetricsRegistry
from .errors import CheckpointCorrupt

__all__ = ["CheckpointJournal", "JOURNAL_VERSION"]

#: Journal format version (bump on layout changes).
JOURNAL_VERSION = 2

_JOURNAL_NAME = "journal.jsonl"


def _crc32_file(path: Path) -> int:
    crc = 0
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            crc = zlib.crc32(block, crc)
    return crc


class CheckpointJournal:
    """Append-only record of completed range tasks in one directory."""

    def __init__(self, directory):
        self.directory = Path(directory)
        self.path = self.directory / _JOURNAL_NAME
        self._fh = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    @property
    def exists(self) -> bool:
        return self.path.is_file()

    def create(self, fingerprint: dict) -> None:
        """Start a fresh journal (truncates any previous one)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        header = {
            "kind": "header",
            "version": JOURNAL_VERSION,
            "fingerprint": fingerprint,
        }
        self._fh = open(self.path, "w", encoding="utf-8")
        self._append(header)

    def open_for_append(self) -> None:
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Writing
    # ------------------------------------------------------------------ #

    def _append(self, obj: dict) -> None:
        assert self._fh is not None, "journal not open"
        self._fh.write(json.dumps(obj, sort_keys=True) + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def _chunk_path(self, task_id: int) -> Path:
        return self.directory / f"chunk_{task_id:06d}.npz"

    def record(self, task_id: int, lo: int, hi: int, result: RangeResult) -> None:
        """Persist one completed task: chunk file first, journal line last.

        The ordering is the crash-safety argument: a journal line is only
        ever appended after its chunk is fully on disk, so any line that
        parses refers to data that existed at append time (the CRC guards
        against later corruption).
        """
        chunk = self._chunk_path(task_id)
        tmp = chunk.with_suffix(".tmp")
        with open(tmp, "wb") as fh:
            np.savez(
                fh,
                start1=result.start1,
                end1=result.end1,
                start2=result.start2,
                score=result.score,
            )
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, chunk)
        self._append(
            {
                "kind": "task",
                "task": task_id,
                "lo": lo,
                "hi": hi,
                "file": chunk.name,
                "crc": _crc32_file(chunk),
                "n_hsps": result.n_hsps,
                "metrics": result.metrics.as_dict(),
            }
        )

    # ------------------------------------------------------------------ #
    # Resume
    # ------------------------------------------------------------------ #

    def load(self, fingerprint: dict) -> dict[int, RangeResult]:
        """Read the journal back; returns {task_id: RangeResult}.

        Raises :class:`CheckpointCorrupt` when the header is unreadable
        or names a different run; tolerates a torn final line; drops (and
        warns about) tasks whose chunk file is missing or fails its CRC,
        so those ranges are simply recomputed.
        """
        if not self.exists:
            raise CheckpointCorrupt(f"no journal at {self.path}")
        raw_lines = self.path.read_text(encoding="utf-8").splitlines()
        if not raw_lines:
            raise CheckpointCorrupt(f"empty journal at {self.path}")
        entries: list[dict] = []
        for i, line in enumerate(raw_lines):
            if not line.strip():
                continue
            try:
                entries.append(json.loads(line))
            except json.JSONDecodeError:
                if i == len(raw_lines) - 1:
                    # Torn tail: the run died mid-append.  The chunk the
                    # line was describing is intact on disk but unclaimed;
                    # re-running its task is safe (idempotent).
                    break
                raise CheckpointCorrupt(
                    f"journal {self.path} line {i + 1} is not valid JSON"
                ) from None
        if not entries or entries[0].get("kind") != "header":
            raise CheckpointCorrupt(f"journal {self.path} has no header")
        header = entries[0]
        if header.get("version") != JOURNAL_VERSION:
            raise CheckpointCorrupt(
                f"journal version {header.get('version')!r} != {JOURNAL_VERSION}"
            )
        if header.get("fingerprint") != fingerprint:
            raise CheckpointCorrupt(
                "checkpoint fingerprint does not match this run (different "
                "banks, parameters, or task split); refusing to resume"
            )
        completed: dict[int, RangeResult] = {}
        for entry in entries[1:]:
            if entry.get("kind") != "task":
                raise CheckpointCorrupt(
                    f"unexpected journal entry kind {entry.get('kind')!r}"
                )
            if not isinstance(entry.get("metrics"), dict):
                raise CheckpointCorrupt(
                    f"journal {self.path} task entry has no metrics snapshot"
                )
            task_id = int(entry["task"])
            chunk = self.directory / str(entry["file"])
            if not chunk.is_file():
                warnings.warn(
                    f"checkpoint chunk {chunk.name} missing; task {task_id} "
                    "will be recomputed",
                    RuntimeWarning,
                    stacklevel=2,
                )
                completed.pop(task_id, None)
                continue
            if _crc32_file(chunk) != int(entry["crc"]):
                warnings.warn(
                    f"checkpoint chunk {chunk.name} failed its checksum; "
                    f"task {task_id} will be recomputed",
                    RuntimeWarning,
                    stacklevel=2,
                )
                completed.pop(task_id, None)
                continue
            with np.load(chunk) as z:
                completed[task_id] = RangeResult(
                    start1=z["start1"].copy(),
                    end1=z["end1"].copy(),
                    start2=z["start2"].copy(),
                    score=z["score"].copy(),
                    metrics=MetricsRegistry.from_dict(entry["metrics"]),
                )
        return completed
