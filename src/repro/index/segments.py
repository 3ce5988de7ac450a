"""Crash-safe incremental seed index: an LSM-style segment store.

The batch pipeline indexes a bank once and throws the index away; the
resident daemon keeps one warm.  Neither lets the bank *change*.  This
module adds the missing shape -- the standard log-structured-merge
layout, specialised to the paper's ordered seed index:

* **Immutable segments** -- each a v4 mmap archive
  (:mod:`repro.index.persist`) holding a sub-bank and its CSR seed
  index.  Segments are never rewritten; mutation never touches them.
* **A mutable delta** -- sequences added since the last flush, held in
  memory and re-indexed on demand (the delta is small by construction).
* **Tombstones** -- removed sequence names, applied when postings merge.
* **A write-ahead log** -- every ``add``/``remove`` is appended (with a
  CRC-32 per record and an ``fsync``) *before* it is applied, so a
  ``SIGKILL`` after the append replays the mutation on reopen and a
  ``SIGKILL`` during the append leaves a torn tail that replay drops --
  the mutation simply never happened.
* **A CRC'd manifest** (:mod:`repro.index.manifest`), published
  atomically, naming the current segment set, tombstones, and WAL.

**The merge preserves the ordered-seed invariant.**  Queries need one
logical :class:`~repro.index.seed_index.CsrSeedIndex` over the logical
bank (segments in insertion order minus tombstones, then the delta).
Seed codes, window validity, and the low-complexity filter are all
*per-sequence-local* properties (windows touching a separator are never
indexed, and :func:`~repro.filters.dust_mask` masks each sequence
independently), so a sequence's postings are invariant across bank
layouts up to one constant position shift.  :meth:`SegmentStore.merged`
therefore places each segment's cutoff codes at its kept sequences'
offsets in the merged bank (tombstoned owners are left out) and runs the
one posting sort over them -- producing arrays **byte-identical** to a cold
``CsrSeedIndex`` over the merged bank, which is exactly the ordered
cutoff's enumeration order.  A hypothesis property test asserts the
byte-identity; the serving layer's byte-equivalence tests inherit it.

**Crash-exactness.**  Flush and compaction follow write-ahead ordering:
new segment fully on disk (fsynced, renamed) -> new WAL created -> new
manifest published atomically -> old files deleted.  A kill at any
stage leaves either the old generation (plus reapable debris) or the
new one.  On open, the janitor reaps ``*.tmp`` files, torn/stale
manifests, and segment/WAL files no manifest references (counted as
``index.orphans_reaped``).  The ``index.wal_truncate``,
``index.compact_crash`` and ``index.manifest_torn`` fault points let
tests provoke a failure at each stage deterministically;
``scripts/ci_index_crash_smoke.py`` adds real ``SIGKILL``\\ s at
randomised points on top.
"""

from __future__ import annotations

import json
import os
import secrets
import warnings
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..encoding import code_dtype, encode, invalid_code
from ..filters import make_filter_mask
from ..io.bank import Bank
from ..runtime import faults
from ..runtime.errors import IndexCorrupt, IndexOutdated
from .manifest import (
    Manifest,
    SegmentEntry,
    load_latest,
    manifest_path,
    publish_manifest,
)
from .persist import load_archived_bank, load_index, save_index
from .seed_index import CsrSeedIndex, sort_postings

__all__ = ["SegmentStore", "StoreFailed", "WAL_VERSION"]

#: WAL format version (bump on layout changes).
WAL_VERSION = 1


class StoreFailed(RuntimeError):
    """The store hit an injected or real mid-operation failure.

    In-memory state can no longer be trusted to match disk; the only
    safe continuation is to reopen the store (which replays the durable
    prefix).  Raised by every operation after the first failure.
    """


def _fsync_path(path: Path) -> None:
    fd = os.open(os.fspath(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _record_crc(body: dict) -> int:
    return zlib.crc32(json.dumps(body, sort_keys=True).encode("utf-8"))


def _encode_record(body: dict) -> bytes:
    line = dict(body)
    line["crc"] = _record_crc(body)
    return (json.dumps(line, sort_keys=True) + "\n").encode("utf-8")


def _decode_record(raw: bytes, origin: str) -> dict:
    """Parse + CRC-check one WAL line; raises :class:`IndexCorrupt`."""
    try:
        line = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IndexCorrupt(f"{origin}: not valid JSON ({exc})") from None
    if not isinstance(line, dict) or "crc" not in line:
        raise IndexCorrupt(f"{origin}: record carries no checksum")
    crc = line.pop("crc")
    if _record_crc(line) != crc:
        raise IndexCorrupt(f"{origin}: record failed its checksum")
    return line


@dataclass
class _Segment:
    """One loaded immutable segment: manifest entry + mmap'd index."""

    entry: SegmentEntry
    index: CsrSeedIndex

    @property
    def bank(self) -> Bank:
        return self.index.bank


class SegmentStore:
    """A mutable, crash-safe, on-disk seed index over a changing bank.

    Use :meth:`create` / :meth:`open` / :meth:`open_or_create`; the
    constructor is internal.  Not thread-safe: the serving layer
    serialises mutations behind its own lock and queries only immutable
    snapshots taken from :meth:`merged`.
    """

    def __init__(
        self,
        directory: Path,
        manifest: Manifest,
        segments: list[_Segment],
        delta: dict[str, str],
        tombstones: set[str],
        wal_records: int,
        wal_fh,
    ):
        self.directory = directory
        self.manifest = manifest
        self._segments = segments
        self._delta = delta
        self._tombstones = tombstones
        self._wal_records = wal_records
        self._wal_fh = wal_fh
        self._merged_cache: tuple[Bank, CsrSeedIndex] | None = None
        self._failed = False
        self.orphans_reaped = 0
        self.wal_torn_dropped = 0
        self.wal_replayed = 0
        self.last_compaction: dict = {
            "generation": manifest.generation,
            "ok": True,
        }

    # ------------------------------------------------------------------ #
    # Construction / recovery
    # ------------------------------------------------------------------ #

    @property
    def w(self) -> int:
        return self.manifest.w

    @property
    def filter_kind(self) -> str | None:
        return self.manifest.filter_kind

    @property
    def generation(self) -> int:
        return self.manifest.generation

    @classmethod
    def create(
        cls, directory, w: int, filter_kind: str | None = "dust"
    ) -> "SegmentStore":
        """Initialise an empty store in *directory* (which may exist)."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        existing, debris = load_latest(directory)
        if existing is not None or debris:
            raise FileExistsError(
                f"{directory} already holds a segment store "
                f"(generation {existing.generation if existing else '?'})"
            )
        generation = 1
        wal_name = f"wal_{generation:08d}.jsonl"
        wal_fh = cls._create_wal(directory / wal_name, generation)
        manifest = Manifest(
            generation=generation,
            w=int(w),
            filter_kind=filter_kind if filter_kind != "none" else None,
            wal=wal_name,
        )
        publish_manifest(directory, manifest)
        return cls(directory, manifest, [], {}, set(), 0, wal_fh)

    @classmethod
    def open(
        cls,
        directory,
        expect_w: int | None = None,
        expect_filter: str | None | type(...) = ...,
    ) -> "SegmentStore":
        """Recover the store from disk: manifest, segments, WAL replay.

        Raises :class:`FileNotFoundError` when no store exists,
        :class:`~repro.runtime.errors.IndexCorrupt` when only torn
        manifests exist or a referenced file is damaged, and
        ``ValueError`` when the store's parameters do not match
        ``expect_w``/``expect_filter``.
        """
        directory = Path(directory)
        manifest, debris = load_latest(directory)
        if manifest is None:
            if debris:
                raise IndexCorrupt(
                    f"{directory} holds only torn/unreadable manifests "
                    f"({', '.join(p.name for p in debris)})"
                )
            raise FileNotFoundError(f"no segment store at {directory}")
        if expect_w is not None and manifest.w != int(expect_w):
            raise ValueError(
                f"store at {directory} was built with W={manifest.w}, "
                f"not W={expect_w}"
            )
        if expect_filter is not ...:
            want = expect_filter if expect_filter != "none" else None
            if manifest.filter_kind != want:
                raise ValueError(
                    f"store at {directory} was built with filter="
                    f"{manifest.filter_kind!r}, not {want!r}"
                )
        segments: list[_Segment] = []
        for entry in manifest.segments:
            seg_path = directory / entry.file
            try:
                index = load_index(seg_path)
            except FileNotFoundError:
                raise IndexCorrupt(
                    f"segment {entry.file} referenced by manifest "
                    f"generation {manifest.generation} is missing"
                ) from None
            except IndexOutdated:
                # A segment of the previous archive format: re-index its
                # stored bank; the next compaction rewrites it.
                bank = load_archived_bank(seg_path)
                index = CsrSeedIndex(
                    bank,
                    manifest.w,
                    make_filter_mask(bank, manifest.filter_kind or "none"),
                )
            segments.append(_Segment(entry=entry, index=index))
        delta: dict[str, str] = {}
        tombstones = set(manifest.tombstones)
        replayed, valid_end, torn = cls._replay_wal(
            directory / manifest.wal, manifest.generation
        )
        wal_records = 0
        for record in replayed:
            cls._apply_static(record, delta, tombstones)
            wal_records += 1
        # Truncate the torn tail *before* appending: a new record after
        # damaged bytes would corrupt the log for the next replay.
        wal_fh = open(directory / manifest.wal, "r+b")
        wal_fh.truncate(valid_end)
        wal_fh.seek(valid_end)
        store = cls(
            directory, manifest, segments, delta, tombstones,
            wal_records, wal_fh,
        )
        store.wal_replayed = len(replayed)
        if torn:
            store.wal_torn_dropped = 1
        store._reap_orphans(debris)
        return store

    @classmethod
    def open_or_create(
        cls, directory, w: int, filter_kind: str | None = "dust"
    ) -> "SegmentStore":
        try:
            return cls.open(directory, expect_w=w, expect_filter=filter_kind)
        except FileNotFoundError:
            return cls.create(directory, w, filter_kind)

    def close(self) -> None:
        """Release the WAL handle (idempotent; the store stays on disk)."""
        if self._wal_fh is not None:
            try:
                self._wal_fh.close()
            except OSError:  # pragma: no cover - fh already broken
                pass
            self._wal_fh = None

    def __enter__(self) -> "SegmentStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # WAL plumbing
    # ------------------------------------------------------------------ #

    @staticmethod
    def _create_wal(path: Path, generation: int):
        fh = open(path, "wb")
        fh.write(
            _encode_record(
                {"kind": "header", "version": WAL_VERSION,
                 "generation": generation}
            )
        )
        fh.flush()
        os.fsync(fh.fileno())
        return fh

    @staticmethod
    def _replay_wal(path: Path, generation: int):
        """Read a WAL back: ``(records, valid_end_offset, torn_tail)``.

        The final line is allowed to be torn (SIGKILL mid-append): it is
        dropped and its byte offset returned so the caller can truncate.
        Damage anywhere else raises :class:`IndexCorrupt`.
        """
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            raise IndexCorrupt(
                f"WAL {path.name} referenced by the manifest is missing"
            ) from None
        records: list[dict] = []
        offset = 0
        torn = False
        lines = data.split(b"\n")
        # A well-formed file ends with a newline, so the final split
        # element is empty; anything else is a torn tail candidate.
        for i, raw in enumerate(lines):
            is_last = i == len(lines) - 1
            if raw == b"":
                if not is_last:
                    offset += 1
                continue
            origin = f"WAL {path.name} line {i + 1}"
            try:
                record = _decode_record(raw, origin)
            except IndexCorrupt:
                if is_last or (i == len(lines) - 2 and lines[-1] == b""):
                    torn = True
                    break
                raise
            if i == 0:
                if record.get("kind") != "header":
                    raise IndexCorrupt(f"{origin}: WAL has no header")
                if record.get("version") != WAL_VERSION:
                    raise IndexCorrupt(
                        f"{origin}: unsupported WAL version "
                        f"{record.get('version')!r}"
                    )
                if record.get("generation") != generation:
                    raise IndexCorrupt(
                        f"{origin}: WAL belongs to generation "
                        f"{record.get('generation')!r}, manifest says "
                        f"{generation}"
                    )
            else:
                records.append(record)
            offset += len(raw) + 1
        return records, offset, torn

    def _append_wal(self, body: dict) -> None:
        """Durably append one mutation record *before* applying it."""
        if self._wal_fh is None:
            raise StoreFailed("store is closed")
        data = _encode_record(body)
        if faults.should_fire("index.wal_truncate", body.get("name")):
            # Simulate a SIGKILL mid-append: half the record reaches the
            # disk, the store's in-memory state never changes, and the
            # process (conceptually) dies.  Replay must drop the tail.
            self._wal_fh.write(data[: max(len(data) // 2, 1)])
            self._wal_fh.flush()
            os.fsync(self._wal_fh.fileno())
            self._fail("fault injection: WAL record torn mid-append")
        self._wal_fh.write(data)
        self._wal_fh.flush()
        os.fsync(self._wal_fh.fileno())
        self._wal_records += 1

    def _fail(self, message: str) -> "NoReturn":  # noqa: F821
        self._failed = True
        self.close()
        raise StoreFailed(message)

    def _check_usable(self) -> None:
        if self._failed:
            raise StoreFailed(
                "store hit a mid-operation failure; reopen it to recover"
            )
        if self._wal_fh is None:
            raise StoreFailed("store is closed")

    @staticmethod
    def _apply_static(
        record: dict, delta: dict[str, str], tombstones: set[str]
    ) -> None:
        kind = record.get("kind")
        if kind == "add":
            delta[str(record["name"])] = str(record["sequence"])
        elif kind == "remove":
            name = str(record["name"])
            if name in delta:
                del delta[name]
            else:
                tombstones.add(name)
        else:
            raise IndexCorrupt(f"unknown WAL record kind {kind!r}")

    def _apply(self, record: dict) -> None:
        self._apply_static(record, self._delta, self._tombstones)
        self._merged_cache = None

    # ------------------------------------------------------------------ #
    # Logical contents
    # ------------------------------------------------------------------ #

    @property
    def n_segments(self) -> int:
        return len(self._segments)

    @property
    def n_delta(self) -> int:
        return len(self._delta)

    @property
    def delta_nt(self) -> int:
        return sum(len(s) for s in self._delta.values())

    @property
    def n_tombstones(self) -> int:
        return len(self._tombstones)

    @property
    def wal_records(self) -> int:
        return self._wal_records

    def names(self) -> list[str]:
        """Logical sequence names, in canonical (insertion) order."""
        out = [
            name
            for seg in self._segments
            for name in seg.bank.names
            if name not in self._tombstones
        ]
        out.extend(self._delta)
        return out

    @property
    def n_sequences(self) -> int:
        return len(self.names())

    def logical_records(self) -> list[tuple[str, np.ndarray]]:
        """``(name, encoded sequence)`` pairs in canonical order.

        This is the *definition* of the store's logical bank: a cold
        full re-index is ``CsrSeedIndex(Bank(*zip(records)), w, mask)``,
        and :meth:`merged` is byte-identical to it.
        """
        out: list[tuple[str, np.ndarray]] = []
        for seg in self._segments:
            bank = seg.bank
            for j, name in enumerate(bank.names):
                if name in self._tombstones:
                    continue
                s, e = bank.bounds(j)
                out.append((name, bank.seq[s:e]))
        for name, sequence in self._delta.items():
            out.append((name, encode(sequence)))
        return out

    # ------------------------------------------------------------------ #
    # Mutation
    # ------------------------------------------------------------------ #

    def add(self, name: str, sequence: str) -> None:
        """Durably add one sequence (WAL first, then the delta)."""
        self.add_many([(name, sequence)])

    def add_many(self, records: list[tuple[str, str]]) -> None:
        """Add several sequences; validates *all* before applying *any*."""
        self._check_usable()
        existing = set(self.names())
        seen: set[str] = set()
        for name, sequence in records:
            if not isinstance(name, str) or not name:
                raise ValueError("a sequence needs a non-empty string name")
            if not isinstance(sequence, str) or not sequence:
                raise ValueError(f"sequence {name!r} is empty")
            if name in existing or name in seen:
                raise ValueError(
                    f"sequence {name!r} already exists in the store"
                )
            seen.add(name)
        for name, sequence in records:
            body = {"kind": "add", "name": name, "sequence": sequence}
            self._append_wal(body)
            self._apply(body)

    def remove(self, name: str) -> None:
        """Durably remove one sequence by name (tombstone or delta drop)."""
        self.remove_many([name])

    def remove_many(self, names: list[str]) -> None:
        """Remove several sequences; validates *all* before applying *any*."""
        self._check_usable()
        existing = set(self.names())
        seen: set[str] = set()
        for name in names:
            if name not in existing or name in seen:
                raise ValueError(f"no sequence named {name!r} in the store")
            seen.add(name)
        for name in names:
            body = {"kind": "remove", "name": name}
            self._append_wal(body)
            self._apply(body)

    # ------------------------------------------------------------------ #
    # Flush / compaction
    # ------------------------------------------------------------------ #

    def _write_segment(self, index: CsrSeedIndex, generation: int) -> SegmentEntry:
        """Write one immutable segment durably; returns its entry.

        Temp file + fsync + rename + directory fsync: the manifest only
        ever references segments that are fully on disk.
        """
        name = f"seg_{generation:08d}_{secrets.token_hex(4)}.scoris3"
        path = self.directory / name
        tmp = path.with_suffix(".tmp")
        save_index(tmp, index)
        _fsync_path(tmp)
        os.replace(tmp, path)
        _fsync_path(self.directory)
        bank = index.bank
        return SegmentEntry(
            file=name,
            n_sequences=bank.n_sequences,
            n_nt=bank.size_nt,
            nbytes=path.stat().st_size,
        )

    def _publish_generation(
        self,
        entries: list[SegmentEntry],
        segments: list[_Segment],
        tombstones: set[str],
        compactions: int,
    ) -> None:
        """Rotate the WAL and publish a new manifest generation.

        On success the in-memory state is swapped to the new generation
        and superseded files (old WAL, stale manifests) are deleted
        best-effort.  On an injected torn publish the store marks itself
        failed -- disk still holds the previous consistent generation.
        """
        generation = self.manifest.generation + 1
        wal_name = f"wal_{generation:08d}.jsonl"
        new_wal_fh = self._create_wal(self.directory / wal_name, generation)
        new_manifest = Manifest(
            generation=generation,
            w=self.manifest.w,
            filter_kind=self.manifest.filter_kind,
            segments=tuple(entries),
            tombstones=tuple(sorted(tombstones)),
            wal=wal_name,
            compactions=compactions,
        )
        try:
            publish_manifest(self.directory, new_manifest)
        except RuntimeError:
            new_wal_fh.close()
            self._fail(
                "manifest publish failed mid-write; previous generation "
                "is still current on disk"
            )
        old_wal = self.directory / self.manifest.wal
        old_manifest = manifest_path(self.directory, self.manifest.generation)
        old_wal_fh = self._wal_fh
        self.manifest = new_manifest
        self._segments = segments
        self._tombstones = tombstones
        self._delta = {}
        self._wal_records = 0
        self._wal_fh = new_wal_fh
        if old_wal_fh is not None:
            old_wal_fh.close()
        for stale in (old_wal, old_manifest):
            try:
                stale.unlink()
            except OSError:  # pragma: no cover - raced by another janitor
                pass

    def flush(self) -> bool:
        """Fold the delta into a new immutable segment; False if empty.

        The logical bank is unchanged -- flush only moves durability
        from the WAL into a segment archive and resets the log.
        """
        self._check_usable()
        if not self._delta:
            return False
        names = list(self._delta)
        encoded = [encode(s) for s in self._delta.values()]
        bank = Bank(names, encoded)
        index = CsrSeedIndex(
            bank, self.w, make_filter_mask(bank, self.filter_kind or "none")
        )
        entry = self._write_segment(index, self.manifest.generation + 1)
        if faults.should_fire("index.compact_crash", entry.file):
            self._fail(
                "fault injection: crashed between segment write and "
                "manifest publish"
            )
        self._publish_generation(
            entries=list(self.manifest.segments) + [entry],
            segments=self._segments + [_Segment(entry=entry, index=index)],
            tombstones=set(self._tombstones),
            compactions=self.manifest.compactions,
        )
        return True

    def compact(self) -> None:
        """Fold segments + delta + tombstones into one fresh segment.

        Tombstoned sequences disappear physically, the tombstone list
        and the WAL reset, and old segment files are deleted once the
        new manifest is durable.  Crash-resume: a kill before the
        manifest publish leaves the old generation current and the
        half-born segment as janitor-reapable debris.
        """
        self._check_usable()
        old_files = [seg.entry.file for seg in self._segments]
        records = self.logical_records()
        entries: list[SegmentEntry] = []
        segments: list[_Segment] = []
        if records:
            bank, index = self.merged()
            entry = self._write_segment(index, self.manifest.generation + 1)
            entries.append(entry)
            segments.append(_Segment(entry=entry, index=index))
        if faults.should_fire("index.compact_crash", "compact"):
            self.last_compaction = {
                "generation": self.manifest.generation + 1,
                "ok": False,
            }
            self._fail(
                "fault injection: crashed between segment write and "
                "manifest publish"
            )
        self._publish_generation(
            entries=entries,
            segments=segments,
            tombstones=set(),
            compactions=self.manifest.compactions + 1,
        )
        self.last_compaction = {
            "generation": self.manifest.generation,
            "ok": True,
        }
        for name in old_files:
            try:
                (self.directory / name).unlink()
            except OSError:  # pragma: no cover - raced by another janitor
                pass

    # ------------------------------------------------------------------ #
    # The merged (queryable) view
    # ------------------------------------------------------------------ #

    def merged(self) -> tuple[Bank, CsrSeedIndex]:
        """The logical bank and its CSR index, merged across segments.

        Byte-identical to ``CsrSeedIndex(Bank(logical records), w,
        filter)`` -- the ordered-cutoff preservation property -- but
        built from the segments' cutoff codes, remapped, instead of
        recomputing seed codes and filter masks over the whole bank.
        Cached until the next mutation.  Raises ``ValueError`` on an
        empty store.
        """
        self._check_usable()
        if self._merged_cache is not None:
            return self._merged_cache
        records = self.logical_records()
        if not records:
            raise ValueError("the store holds no sequences")
        merged_bank = Bank([n for n, _ in records], [a for _, a in records])

        sources: list[tuple[CsrSeedIndex, np.ndarray]] = []
        for seg in self._segments:
            kept = np.array(
                [name not in self._tombstones for name in seg.bank.names],
                dtype=bool,
            )
            if kept.any():
                sources.append((seg.index, kept))
        if self._delta:
            delta_names = list(self._delta)
            delta_bank = Bank(
                delta_names, [encode(s) for s in self._delta.values()]
            )
            delta_index = CsrSeedIndex(
                delta_bank,
                self.w,
                make_filter_mask(delta_bank, self.filter_kind or "none"),
            )
            sources.append(
                (delta_index, np.ones(delta_bank.n_sequences, dtype=bool))
            )

        # A window's code is a per-sequence-local property, so the merged
        # bank's cutoff codes are the sources' own, shifted to where each
        # kept sequence lands; tombstoned sequences leave the sentinel.
        sentinel = invalid_code(self.w)
        cutoff_codes = np.full(
            merged_bank.seq.shape[0], sentinel, dtype=code_dtype(sentinel)
        )
        merged_seq_idx = 0
        for index, kept in sources:
            bank = index.bank
            n_kept = int(kept.sum())
            # Merged-bank index of each kept source sequence, in order.
            target = np.empty(bank.n_sequences, dtype=np.int64)
            target[kept] = merged_seq_idx + np.arange(n_kept, dtype=np.int64)
            merged_seq_idx += n_kept
            shift = np.zeros(bank.n_sequences, dtype=np.int64)
            shift[kept] = merged_bank.starts[target[kept]] - bank.starts[kept]
            owner = (
                np.searchsorted(bank.starts, index.positions, side="right") - 1
            )
            keep_mask = kept[owner]
            src = index.positions[keep_mask]
            cutoff_codes[src + shift[owner[keep_mask]]] = index.cutoff_codes[src]
        # The postings are then exactly those a fresh CsrSeedIndex over
        # the merged bank sorts.
        positions, unique_codes, code_starts = sort_postings(
            cutoff_codes, cutoff_codes < sentinel
        )
        index = CsrSeedIndex.from_arrays(
            bank=merged_bank,
            w=self.w,
            span=self.w,
            mask=None,
            positions=positions,
            unique_codes=unique_codes,
            code_starts=code_starts,
            cutoff_codes=cutoff_codes,
        )
        self._merged_cache = (merged_bank, index)
        return self._merged_cache

    # ------------------------------------------------------------------ #
    # Janitor
    # ------------------------------------------------------------------ #

    def _reap_orphans(self, manifest_debris: list[Path]) -> None:
        """Delete crash debris: temp files, torn/stale manifests, and
        segment/WAL files the current manifest does not reference."""
        referenced = {entry.file for entry in self.manifest.segments}
        referenced.add(self.manifest.wal)
        referenced.add(manifest_path(self.directory, self.generation).name)
        victims: list[Path] = list(manifest_debris)
        try:
            names = os.listdir(self.directory)
        except OSError:  # pragma: no cover - store dir raced away
            names = []
        for name in names:
            if name in referenced:
                continue
            if name.endswith(".tmp") or (
                name.startswith(("seg_", "wal_")) and "." in name
            ):
                victims.append(self.directory / name)
        for victim in dict.fromkeys(victims):  # de-dup, keep order
            try:
                victim.unlink()
            except OSError:
                continue
            self.orphans_reaped += 1
        if self.orphans_reaped:
            warnings.warn(
                f"segment store janitor reaped {self.orphans_reaped} "
                f"orphaned file(s) in {self.directory}",
                RuntimeWarning,
                stacklevel=3,
            )

    # ------------------------------------------------------------------ #
    # Observability
    # ------------------------------------------------------------------ #

    def health(self) -> dict:
        """Component state for the daemon's ``health`` op."""
        return {
            "ok": not self._failed and self._wal_fh is not None,
            "generation": self.generation,
            "segments": self.n_segments,
            "delta_sequences": self.n_delta,
            "delta_nt": self.delta_nt,
            "wal_records": self.wal_records,
            "tombstones": self.n_tombstones,
            "n_sequences": self.n_sequences,
            "last_compaction": dict(self.last_compaction),
        }

    def record_metrics(self, registry) -> None:
        """Fold store shape into a :class:`MetricsRegistry`."""
        registry.set_gauge("index.segments", float(self.n_segments))
        registry.set_gauge("index.wal_records", float(self.wal_records))
        registry.set_gauge("index.tombstones", float(self.n_tombstones))
        registry.set_gauge("index.delta_sequences", float(self.n_delta))
        registry.set_gauge("index.compactions", float(self.manifest.compactions))
        if self.orphans_reaped:
            registry.inc("index.orphans_reaped", self.orphans_reaped)
        if self.wal_torn_dropped:
            registry.inc("index.wal_torn_dropped", self.wal_torn_dropped)
