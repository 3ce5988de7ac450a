"""Index persistence: archive a bank + CSR seed index, reload in O(1).

The paper's setting keeps indexes "into the main memory of the computer";
for a library, being able to build an index once and reload it (the
``formatdb`` role in the BLAST ecosystem) is the natural complement.  The
archive stores the encoded bank, its layout, and the CSR arrays; loading
reconstructs a :class:`~repro.index.seed_index.CsrSeedIndex` without
re-sorting.

The archive (format **v4**) is a single uncompressed file: an 8-byte
magic, a JSON header describing every array (name, dtype, shape, offset,
CRC-32), then the raw array bytes at 64-byte-aligned offsets.  The
arrays are the bank's ``seq``/``starts``/``lengths`` and the index's
:attr:`~repro.index.seed_index.CsrSeedIndex.ARRAY_FIELDS`, in their
narrow in-memory dtypes.  Loading ``mmap``\\ s the file and hands out
read-only views: O(1) regardless of bank size, the kernel pages data in
on first touch, and -- because file-backed mappings are shared -- every
worker process that loads the same archive shares one physical copy.
The header CRC is always checked; the per-array CRCs are checked when
``verify=True`` (paying one sequential read).

Damage raises :class:`~repro.runtime.errors.IndexCorrupt` -- the
resilient runtime's resume path depends on never silently deserialising
garbage inputs.  An archive of the previous format (v3: the same
container, with int64 arrays and the since-dropped ``sorted_codes`` /
``codes_at``) raises its subclass
:class:`~repro.runtime.errors.IndexOutdated`; its bank still loads
through :func:`load_archived_bank`, so a holder can re-index it.

:class:`IndexCache` keys archives by a content hash of the bank and
the index parameters, turning repeated-library workloads ("serve a
library of banks", ROADMAP) into cache hits that skip step 1 entirely.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import contextlib
import os
import struct
import zlib
from pathlib import Path

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None

import numpy as np

from ..io.bank import Bank
from ..runtime import faults
from ..runtime.errors import IndexCorrupt, IndexOutdated
from .seed_index import CsrSeedIndex

__all__ = ["save_index", "load_index", "load_archived_bank", "IndexCache"]


def _flip_one_byte(path: Path) -> None:
    """Chaos helper (``index.cache_corrupt``): corrupt a stored archive.

    Flips one byte in the archive *header* region (the default fast load
    only checksums the header, not the array payload) so the corruption
    is guaranteed to surface as :class:`IndexCorrupt` and the cache's
    unlink-and-rebuild self-healing path runs.
    """
    try:
        with open(path, "r+b") as fh:
            fh.seek(0, os.SEEK_END)
            size = fh.tell()
            if size == 0:
                return
            offset = min(len(_MAGIC) + 4, size - 1)
            fh.seek(offset)
            byte = fh.read(1)
            fh.seek(offset)
            fh.write(bytes([byte[0] ^ 0xFF]) if byte else b"\xff")
    except OSError:  # pragma: no cover - cache dir raced away
        pass

#: Current archive format version.
FORMAT_VERSION = 4

#: The previous version: same container, outdated index arrays.
_PREVIOUS_VERSION = 3

#: File magic (8 bytes), shared by v3 and v4: the header's version tells
#: them apart, so an outdated archive is named as such, not as junk.
_MAGIC = b"SCORIS3\x00"

#: Alignment of every array segment (cache-line friendly, and a multiple
#: of every dtype's itemsize).
_ALIGN = 64

#: The bank's arrays, stored first in every archive version.
_BANK_FIELDS = ("seq", "starts", "lengths")

#: Array fields persisted (and covered by checksums), in layout order.
_ARRAY_FIELDS = _BANK_FIELDS + CsrSeedIndex.ARRAY_FIELDS


def _index_meta(index: CsrSeedIndex) -> dict:
    return {
        "w": index.w,
        "span": index.span,
        "mask": index.mask.pattern if index.mask is not None else None,
        "names": index.bank.names,
    }


# --------------------------------------------------------------------- #
# Writer
# --------------------------------------------------------------------- #


def save_index(path, index: CsrSeedIndex) -> None:
    """Serialise *index* (with its bank) to ``path`` as a v4 archive."""
    bank = index.bank
    arrays = {"seq": bank.seq, "starts": bank.starts, "lengths": bank.lengths}
    arrays.update((name, getattr(index, name)) for name in index.ARRAY_FIELDS)
    _write_archive(path, FORMAT_VERSION, _index_meta(index), arrays)


def _write_archive(path, version: int, meta: dict, arrays: dict) -> None:
    """Write ``arrays`` (in dict order) under a header of ``version``."""
    arrays = {name: np.ascontiguousarray(arr) for name, arr in arrays.items()}
    # Array offsets are relative to the 64-aligned data section that
    # follows the header, so the header's own length never feeds back
    # into the offsets it describes (single-pass serialisation).
    table = []
    offset = 0
    for name, arr in arrays.items():
        offset = -(-offset // _ALIGN) * _ALIGN
        table.append(
            {
                "name": name,
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": int(arr.nbytes),
                "crc": zlib.crc32(arr),
            }
        )
        offset += arr.nbytes
    header = json.dumps(
        {"version": version, "meta": meta, "arrays": table}
    ).encode("utf-8")
    data_start = -(-(len(_MAGIC) + 8 + len(header)) // _ALIGN) * _ALIGN
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<II", len(header), zlib.crc32(header)))
        fh.write(header)
        for entry, arr in zip(table, arrays.values()):
            fh.seek(data_start + entry["offset"])
            fh.write(arr.data)


# --------------------------------------------------------------------- #
# Loaders
# --------------------------------------------------------------------- #


def _rebuild_bank(meta: dict, arrays: dict[str, np.ndarray]) -> Bank:
    starts = arrays["starts"]
    bank = Bank.__new__(Bank)
    bank.names = list(meta["names"])
    bank.lengths = arrays["lengths"]
    bank.starts = starts
    bank._ends = starts + arrays["lengths"]
    bank.seq = arrays["seq"]
    return bank


def load_index(path, verify: bool = False) -> CsrSeedIndex:
    """Load an index saved with :func:`save_index`.

    The archive is memory-mapped: the call is O(1) and the returned
    arrays are read-only views whose pages the OS shares across every
    process mapping the same file.  The header checksum is always
    verified; ``verify=True`` additionally checks every array's CRC-32
    (one sequential read).  Raises
    :class:`~repro.runtime.errors.IndexCorrupt` (a :class:`ValueError`
    subclass) on structural damage, an unsupported version, or a
    checksum mismatch, and its subclass
    :class:`~repro.runtime.errors.IndexOutdated` on an archive of the
    previous format.
    """
    from ..encoding.spaced import SpacedSeedMask

    meta, arrays = _load_archive(path, verify, _ARRAY_FIELDS, outdated_ok=False)
    mask_pattern = meta.get("mask")
    return CsrSeedIndex.from_arrays(
        bank=_rebuild_bank(meta, arrays),
        w=int(meta["w"]),
        span=int(meta.get("span", meta["w"])),
        mask=SpacedSeedMask(mask_pattern) if mask_pattern else None,
        **{name: arrays[name] for name in CsrSeedIndex.ARRAY_FIELDS},
    )


def load_archived_bank(path, verify: bool = False) -> Bank:
    """The bank stored in an archive of the current or previous format.

    The bank's arrays are laid out alike in both, so an outdated archive
    (:class:`~repro.runtime.errors.IndexOutdated`) can be re-indexed
    from what it stores.
    """
    meta, arrays = _load_archive(path, verify, _BANK_FIELDS, outdated_ok=True)
    return _rebuild_bank(meta, arrays)


def _close_quietly(mm: mmap.mmap) -> None:
    """Close a mapping on an error path; already-built views may still
    export its buffer, in which case it closes when they are collected."""
    try:
        mm.close()
    except BufferError:
        pass


def _load_archive(
    path, verify: bool, fields: tuple[str, ...], outdated_ok: bool
) -> tuple[dict, dict[str, np.ndarray]]:
    """The header meta and read-only mmap views of ``fields``."""
    try:
        fd = os.open(os.fspath(path), os.O_RDONLY)
        try:
            size = os.fstat(fd).st_size
            mm = mmap.mmap(fd, size, access=mmap.ACCESS_READ) if size else None
        finally:
            os.close(fd)  # the mapping keeps its own reference
    except FileNotFoundError:
        raise
    except (OSError, ValueError) as exc:
        raise IndexCorrupt(
            f"index archive {path!s} is unreadable: {exc}"
        ) from exc
    if mm is None or mm[: len(_MAGIC)] != _MAGIC:
        magic = b"" if mm is None else mm[:8]
        if mm is not None:
            _close_quietly(mm)
        raise IndexCorrupt(
            f"index archive {path!s} has an unrecognised signature "
            f"({magic!r}); not a scoris index archive"
        )
    try:
        base = len(_MAGIC)
        if size < base + 8:
            raise IndexCorrupt(f"index archive {path!s} is truncated")
        header_len, header_crc = struct.unpack_from("<II", mm, base)
        header_end = base + 8 + header_len
        if header_end > size:
            raise IndexCorrupt(f"index archive {path!s} is truncated")
        header_bytes = bytes(mm[base + 8 : header_end])
        if zlib.crc32(header_bytes) != header_crc:
            raise IndexCorrupt(
                f"index archive {path!s} failed its header checksum "
                "(truncated or corrupted data)"
            )
        try:
            header = json.loads(header_bytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise IndexCorrupt(
                f"index archive {path!s}: unreadable header ({exc})"
            ) from None
        version = header.get("version")
        if version == _PREVIOUS_VERSION and not outdated_ok:
            raise IndexOutdated(
                f"index archive {path!s} has the outdated format "
                f"v{version} (current v{FORMAT_VERSION}); rebuild it"
            )
        if version not in (FORMAT_VERSION, _PREVIOUS_VERSION):
            raise IndexCorrupt(
                f"unsupported index archive version {version!r}"
                f" (expected {FORMAT_VERSION})"
            )
        entries = {e["name"]: e for e in header.get("arrays", [])}
        missing = [n for n in fields if n not in entries]
        if missing:
            raise IndexCorrupt(
                f"index archive {path!s}: missing array {missing[0]!r}"
            )
        data_start = -(-header_end // _ALIGN) * _ALIGN
        arrays: dict[str, np.ndarray] = {}
        for name in fields:
            e = entries[name]
            lo = data_start + int(e["offset"])
            hi = lo + int(e["nbytes"])
            if hi > size:
                raise IndexCorrupt(
                    f"index archive {path!s} is truncated "
                    f"(array {name!r} extends past end of file)"
                )
            if verify and zlib.crc32(mm[lo:hi]) != int(e["crc"]):
                raise IndexCorrupt(
                    f"index archive {path!s} failed its content checksum "
                    f"on array {name!r} (truncated or corrupted data)"
                )
            dtype = np.dtype(e["dtype"])
            arr: np.ndarray = np.frombuffer(
                mm, dtype=dtype, count=int(e["nbytes"]) // dtype.itemsize,
                offset=lo,
            ).reshape(tuple(e["shape"]))
            # ACCESS_READ mappings are already immutable; the flag makes
            # NumPy say so instead of segfaulting on write attempts.
            arr.flags.writeable = False
            arrays[name] = arr
    except IndexCorrupt:
        _close_quietly(mm)
        raise
    except (KeyError, TypeError, ValueError, struct.error) as exc:
        _close_quietly(mm)
        raise IndexCorrupt(
            f"index archive {path!s} has a malformed header: {exc}"
        ) from exc
    # The arrays' buffer exports keep `mm` alive; no copy is ever made.
    return header["meta"], arrays


# --------------------------------------------------------------------- #
# Content-hash keyed cache of archives
# --------------------------------------------------------------------- #


class IndexCache:
    """A directory of index archives keyed by bank + parameter content.

    ``get(bank, w, filter_kind)`` returns the cached index when the exact
    (bank contents, seed width, filter) combination was built before --
    an O(1) mmap load whose pages are shared across every process using
    the same cache -- and otherwise builds, stores, and returns it.  The
    key hashes the encoded sequence bytes and the bank layout, so a
    changed input can never alias a stale archive.  A corrupt cache file
    is rebuilt in place rather than failing the run.

    Hit/miss totals accumulate on the instance; :meth:`record_metrics`
    folds them into a run's registry as ``index.cache_hit`` /
    ``index.cache_miss`` (and ``index.cache_evicted`` when capped).

    ``max_bytes`` caps the cache directory: after each store, archives
    are evicted oldest-access-first until the total size fits.  Hits
    refresh an archive's access time, so the policy is LRU over whole
    archives.  Eviction only ever considers ``*.scoris3`` files -- a
    cache directory pointed at pre-existing data will not eat it.

    The cache is safe to share between processes (daemons pointed at the
    same ``--index-cache``): probe-and-load and store-and-evict each run
    under an exclusive ``flock`` on ``.scoris-cache.lock``, so one
    daemon's LRU eviction can never unlink an archive another daemon is
    between ``is_file()`` and ``load_index()`` on.  Index *builds* (the
    expensive part) happen outside the lock; two simultaneous misses
    build twice and the second atomic publish harmlessly wins.
    """

    #: Cross-process mutex file created inside the cache directory.
    LOCK_NAME = ".scoris-cache.lock"

    def __init__(self, directory, max_bytes: int | None = None):
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be >= 1 (or None for unbounded)")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.max_bytes = max_bytes
        self.hits = 0
        self.misses = 0
        self.evicted = 0

    def key(self, bank: Bank, w: int, filter_kind: str | None) -> str:
        """Content hash of one (bank, parameters) combination."""
        h = hashlib.sha256()
        h.update(
            f"scoris-index/v{FORMAT_VERSION}|w={w}|filter={filter_kind}|".encode()
        )
        h.update(bank.seq.tobytes())
        h.update(np.ascontiguousarray(bank.starts).tobytes())
        h.update("\x00".join(bank.names).encode("utf-8", "surrogateescape"))
        return h.hexdigest()

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.scoris3"

    def get(
        self, bank: Bank, w: int, filter_kind: str | None = None
    ) -> CsrSeedIndex:
        """Cached index for *bank*, building (and storing) on first use."""
        from ..filters import make_filter_mask

        path = self.path_for(self.key(bank, w, filter_kind))
        with self._lock():
            if path.is_file():
                if faults.should_fire("index.cache_corrupt", str(path)):
                    _flip_one_byte(path)
                try:
                    index = load_index(path)
                except IndexCorrupt:
                    path.unlink(missing_ok=True)  # self-heal: rebuild below
                else:
                    self.hits += 1
                    self._touch(path)
                    return index
        # Build outside the lock: an index build can take minutes, and
        # other processes' cache *hits* must not queue behind it.
        self.misses += 1
        index = CsrSeedIndex(bank, w, make_filter_mask(bank, filter_kind))
        tmp = path.with_suffix(".tmp")
        with self._lock():
            save_index(tmp, index)
            os.replace(tmp, path)  # atomic publish: never a torn file
            self._evict(keep=path)
        return index

    @contextlib.contextmanager
    def _lock(self):
        """Exclusive cross-process section (flock on a sidecar file).

        Degrades to a no-op where ``flock`` is unavailable (or the cache
        directory vanished) -- single-process behaviour is unchanged
        either way; the lock only exists so concurrent daemons cannot
        interleave eviction with probe-and-load.
        """
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        try:
            fh = open(self.directory / self.LOCK_NAME, "ab")
        except OSError:  # pragma: no cover - cache dir raced away
            yield
            return
        try:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            yield
        finally:
            fh.close()  # closing the descriptor releases the flock

    @staticmethod
    def _touch(path: Path) -> None:
        """Refresh access time so LRU eviction sees the hit (filesystems
        mounted ``noatime`` would otherwise never update it on mmap)."""
        try:
            os.utime(path)
        except OSError:  # pragma: no cover - cache dir raced away
            pass

    def _evict(self, keep: Path | None = None) -> None:
        """Drop least-recently-used archives until the cap is satisfied.

        The just-stored archive (*keep*) is exempt: storing an index
        larger than the cap evicts everything else but still leaves the
        new archive usable for the run that built it.
        """
        if self.max_bytes is None:
            return
        entries = []
        total = 0
        for candidate in self.directory.glob("*.scoris3"):
            try:
                st = candidate.stat()
            except OSError:
                continue  # concurrently evicted by another process
            entries.append((st.st_atime, st.st_size, candidate))
            total += st.st_size
        entries.sort()  # oldest access first
        for _atime, size, candidate in entries:
            if total <= self.max_bytes:
                break
            if keep is not None and candidate == keep:
                continue
            try:
                candidate.unlink()
            except OSError:
                continue  # lost the race; its size no longer counts either
            total -= size
            self.evicted += 1

    def record_metrics(self, registry) -> None:
        """Fold hit/miss totals into a :class:`MetricsRegistry`."""
        if self.hits:
            registry.inc("index.cache_hit", self.hits)
        if self.misses:
            registry.inc("index.cache_miss", self.misses)
        if self.evicted:
            registry.inc("index.cache_evicted", self.evicted)
