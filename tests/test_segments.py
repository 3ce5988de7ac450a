"""Tests for the crash-safe segmented seed index (repro.index.segments).

The load-bearing property is *merge exactness*: the store's merged view
-- postings remapped across N immutable segments, an in-memory delta,
and a tombstone set -- must be **byte-identical** to a cold
``CsrSeedIndex`` built over the same logical bank.  The ordered-seed
cutoff enumerates postings in (code, position) order straight off these
arrays, so byte-identity here is what makes serving results invariant
under flush/compaction scheduling.  A hypothesis property test drives
random mutation histories at it.

The second property is *crash exactness*: a store killed (or fault-torn)
at any WAL/segment/manifest stage must reopen to a consistent recent
state -- all durable mutations replayed, torn tails dropped, debris
reaped -- never to garbage and never to an error.
"""

from __future__ import annotations

import json
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.synthetic import random_dna
from repro.encoding import encode
from repro.filters import make_filter_mask
from repro.index import SegmentStore, StoreFailed
from repro.index.manifest import (
    Manifest,
    decode_manifest,
    load_latest,
    manifest_path,
    publish_manifest,
)
from repro.index.seed_index import CsrSeedIndex
from repro.io.bank import Bank
from repro.obs import MetricsRegistry
from repro.runtime import faults
from repro.runtime.errors import IndexCorrupt


W = 8


@pytest.fixture(autouse=True)
def _disarm_faults():
    faults.disarm()
    yield
    faults.disarm()


def fresh_index(store: SegmentStore) -> tuple[Bank, CsrSeedIndex]:
    """The definition the merge must match: a cold full rebuild."""
    records = store.logical_records()
    bank = Bank([n for n, _ in records], [a for _, a in records])
    return bank, CsrSeedIndex(
        bank, store.w, make_filter_mask(bank, store.filter_kind or "none")
    )


def assert_merged_exact(store: SegmentStore) -> None:
    merged_bank, merged_index = store.merged()
    want_bank, want_index = fresh_index(store)
    assert merged_bank.names == want_bank.names
    assert np.array_equal(merged_bank.seq, want_bank.seq)
    for field in CsrSeedIndex.ARRAY_FIELDS:
        got = getattr(merged_index, field)
        want = getattr(want_index, field)
        assert got.dtype == want.dtype, field
        assert np.array_equal(got, want), field


def make_store(tmp_path, n=6, seed=3, filter_kind="dust") -> SegmentStore:
    rng = np.random.default_rng(seed)
    store = SegmentStore.create(tmp_path / "store", w=W, filter_kind=filter_kind)
    store.add_many(
        [(f"s{i}", random_dna(rng, int(rng.integers(50, 400)))) for i in range(n)]
    )
    return store


# --------------------------------------------------------------------- #
# Manifest encode/decode/publish
# --------------------------------------------------------------------- #


class TestManifest:
    def test_round_trip(self, tmp_path):
        manifest = Manifest(
            generation=3, w=11, filter_kind="dust", wal="wal_00000003.jsonl"
        )
        path = publish_manifest(tmp_path, manifest)
        assert path.name == "manifest_00000003.json"
        assert decode_manifest(path.read_bytes(), path.name) == manifest

    def test_torn_manifest_is_rejected(self, tmp_path):
        manifest = Manifest(generation=1, w=11, filter_kind=None, wal="w")
        data = manifest.encode()
        (tmp_path / "manifest_00000001.json").write_bytes(data[: len(data) // 2])
        with pytest.raises(IndexCorrupt, match="JSON"):
            decode_manifest(
                (tmp_path / "manifest_00000001.json").read_bytes(), "m"
            )

    def test_crc_mismatch_is_rejected(self, tmp_path):
        manifest = Manifest(generation=1, w=11, filter_kind=None, wal="w")
        outer = json.loads(manifest.encode())
        outer["body"]["w"] = 12  # content changed, CRC not recomputed
        with pytest.raises(IndexCorrupt, match="checksum"):
            decode_manifest(json.dumps(outer).encode(), "m")

    def test_load_latest_skips_torn_newest(self, tmp_path):
        good = Manifest(generation=1, w=11, filter_kind=None, wal="w")
        publish_manifest(tmp_path, good)
        manifest_path(tmp_path, 2).write_bytes(b'{"torn')
        chosen, debris = load_latest(tmp_path)
        assert chosen == good
        assert [p.name for p in debris] == ["manifest_00000002.json"]

    def test_load_latest_newest_valid_wins(self, tmp_path):
        publish_manifest(
            tmp_path, Manifest(generation=1, w=11, filter_kind=None, wal="a")
        )
        publish_manifest(
            tmp_path, Manifest(generation=2, w=11, filter_kind=None, wal="b")
        )
        chosen, debris = load_latest(tmp_path)
        assert chosen is not None and chosen.generation == 2
        assert [p.name for p in debris] == ["manifest_00000001.json"]

    def test_empty_directory(self, tmp_path):
        assert load_latest(tmp_path) == (None, [])


# --------------------------------------------------------------------- #
# Store lifecycle
# --------------------------------------------------------------------- #


class TestStoreLifecycle:
    def test_create_open_round_trip(self, tmp_path):
        store = make_store(tmp_path)
        names = store.names()
        store.flush()
        store.close()
        reopened = SegmentStore.open(
            tmp_path / "store", expect_w=W, expect_filter="dust"
        )
        assert reopened.names() == names
        assert_merged_exact(reopened)
        reopened.close()

    def test_v3_segment_is_reindexed(self, tmp_path):
        """A segment written in the previous archive format is re-indexed
        from its stored bank on open: the merged index still equals a
        cold build, and a compaction rewrites it in the current format."""
        from repro.index.persist import load_index

        from tests.v3_archive import write_v3_archive

        store = make_store(tmp_path)
        store.flush()
        names = store.names()
        seg = tmp_path / "store" / store.manifest.segments[0].file
        store.close()
        old = seg.with_name("old.v3")  # beside, then over: seg is mapped
        write_v3_archive(old, load_index(seg))
        old.replace(seg)
        reopened = SegmentStore.open(tmp_path / "store", expect_w=W)
        assert reopened.names() == names
        assert_merged_exact(reopened)
        reopened.compact()
        seg = tmp_path / "store" / reopened.manifest.segments[0].file
        assert load_index(seg).n_indexed == reopened.merged()[1].n_indexed
        reopened.close()

    def test_create_twice_refused(self, tmp_path):
        make_store(tmp_path).close()
        with pytest.raises(FileExistsError):
            SegmentStore.create(tmp_path / "store", w=W)

    def test_open_missing_raises_filenotfound(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            SegmentStore.open(tmp_path / "nope")

    def test_open_param_mismatch(self, tmp_path):
        make_store(tmp_path).close()
        with pytest.raises(ValueError, match="W=8"):
            SegmentStore.open(tmp_path / "store", expect_w=11)
        with pytest.raises(ValueError, match="filter"):
            SegmentStore.open(tmp_path / "store", expect_filter="none")

    def test_open_or_create(self, tmp_path):
        first = SegmentStore.open_or_create(tmp_path / "s", w=W)
        first.add("a", "ACGTACGTACGTACGTACGT")
        first.close()
        second = SegmentStore.open_or_create(tmp_path / "s", w=W)
        assert second.names() == ["a"]
        second.close()

    def test_duplicate_add_refused_atomically(self, tmp_path):
        store = make_store(tmp_path, n=2)
        before = store.wal_records
        with pytest.raises(ValueError, match="already exists"):
            store.add_many([("new", "ACGT" * 10), ("s0", "ACGT" * 10)])
        # whole-batch validation: nothing was applied or logged
        assert store.wal_records == before
        assert "new" not in store.names()
        store.close()

    def test_unknown_remove_refused(self, tmp_path):
        store = make_store(tmp_path, n=2)
        with pytest.raises(ValueError, match="no sequence named"):
            store.remove("ghost")
        store.close()

    def test_readd_after_remove(self, tmp_path):
        store = make_store(tmp_path, n=3)
        store.flush()  # s0..s2 now live in a segment
        store.remove("s1")
        store.add("s1", "ACGTACGTACGTACGTACGTACGT")
        assert store.names() == ["s0", "s2", "s1"]  # re-added at the end
        assert_merged_exact(store)
        store.close()

    def test_empty_store_merge_refused(self, tmp_path):
        store = SegmentStore.create(tmp_path / "s", w=W)
        with pytest.raises(ValueError, match="no sequences"):
            store.merged()
        store.close()

    def test_flush_and_compact_preserve_logical_state(self, tmp_path):
        store = make_store(tmp_path, n=8)
        store.flush()
        rng = np.random.default_rng(9)
        store.add_many([(f"x{i}", random_dna(rng, 120)) for i in range(3)])
        store.remove_many(["s1", "s4"])
        names = store.names()
        assert store.flush() is True
        assert store.flush() is False  # nothing buffered
        assert store.names() == names
        assert_merged_exact(store)
        assert store.n_segments == 2
        store.compact()
        assert store.names() == names
        assert store.n_segments == 1
        assert store.n_tombstones == 0
        assert store.manifest.compactions == 1
        assert_merged_exact(store)
        # compaction physically deleted the superseded files
        files = sorted(p.name for p in (tmp_path / "store").iterdir())
        assert sum(n.startswith("seg_") for n in files) == 1
        assert sum(n.startswith("wal_") for n in files) == 1
        assert sum(n.startswith("manifest_") for n in files) == 1
        store.close()

    def test_health_and_metrics(self, tmp_path):
        store = make_store(tmp_path, n=4)
        store.flush()
        store.remove("s0")
        health = store.health()
        assert health["ok"] is True
        assert health["segments"] == 1
        assert health["tombstones"] == 1
        assert health["wal_records"] == 1
        assert health["n_sequences"] == 3
        registry = MetricsRegistry()
        store.record_metrics(registry)
        snapshot = registry.as_dict()["gauges"]
        assert snapshot["index.segments"]["value"] == 1.0
        assert snapshot["index.tombstones"]["value"] == 1.0
        assert snapshot["index.wal_records"]["value"] == 1.0
        store.close()


# --------------------------------------------------------------------- #
# WAL replay and torn tails
# --------------------------------------------------------------------- #


class TestWalRecovery:
    def test_unflushed_mutations_replay(self, tmp_path):
        store = make_store(tmp_path, n=4)
        store.flush()
        rng = np.random.default_rng(5)
        store.add("late", random_dna(rng, 150))
        store.remove("s2")
        names = store.names()
        store.close()  # no flush: the WAL is the only durable copy
        reopened = SegmentStore.open(tmp_path / "store")
        assert reopened.wal_replayed == 2
        assert reopened.names() == names
        assert_merged_exact(reopened)
        reopened.close()

    def test_torn_final_record_dropped_and_truncated(self, tmp_path):
        store = make_store(tmp_path, n=3)
        store.flush()
        store.add("kept", "ACGT" * 20)
        wal = tmp_path / "store" / store.manifest.wal
        store.close()
        good_size = wal.stat().st_size
        with open(wal, "ab") as fh:
            fh.write(b'{"kind":"add","name":"torn","sequ')
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            reopened = SegmentStore.open(tmp_path / "store")
        assert reopened.wal_torn_dropped == 1
        assert "kept" in reopened.names()
        assert "torn" not in reopened.names()
        # the tail was truncated away, so appends extend a clean log
        assert wal.stat().st_size == good_size
        reopened.add("after", "ACGT" * 15)
        reopened.close()
        again = SegmentStore.open(tmp_path / "store")
        assert "after" in again.names()
        again.close()

    def test_mid_log_corruption_raises(self, tmp_path):
        store = make_store(tmp_path, n=3)
        store.add("extra", "ACGT" * 12)
        wal = tmp_path / "store" / store.manifest.wal
        store.close()
        lines = wal.read_bytes().splitlines(keepends=True)
        assert len(lines) >= 3  # header + >= 2 records
        lines[1] = b'{"corrupt": true}\n'
        wal.write_bytes(b"".join(lines))
        with pytest.raises(IndexCorrupt, match="checksum|header"):
            SegmentStore.open(tmp_path / "store")

    def test_wal_crc_protects_each_record(self, tmp_path):
        store = make_store(tmp_path, n=2)
        wal = tmp_path / "store" / store.manifest.wal
        store.close()
        lines = wal.read_bytes().splitlines(keepends=True)
        record = json.loads(lines[1])
        body = {k: v for k, v in record.items() if k != "crc"}
        canonical = json.dumps(body, sort_keys=True).encode()
        assert zlib.crc32(canonical) == record["crc"]


# --------------------------------------------------------------------- #
# Fault injection: every publication stage
# --------------------------------------------------------------------- #


class TestFaultRecovery:
    def _reopen(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return SegmentStore.open(tmp_path / "store")

    def test_wal_truncate_fault(self, tmp_path):
        store = make_store(tmp_path, n=3)
        names = store.names()
        faults.arm("index.wal_truncate:1:0")
        with pytest.raises(StoreFailed, match="torn mid-append"):
            store.add("doomed", "ACGT" * 12)
        faults.disarm()
        # the store refuses further use; disk holds the pre-fault state
        with pytest.raises(StoreFailed):
            store.names() and store.add("x", "ACGT" * 12)
        reopened = self._reopen(tmp_path)
        assert reopened.names() == names
        assert "doomed" not in reopened.names()
        assert_merged_exact(reopened)
        reopened.close()

    def test_compact_crash_fault_during_flush(self, tmp_path):
        store = make_store(tmp_path, n=3)
        names = store.names()
        faults.arm("index.compact_crash:1:0")
        with pytest.raises(StoreFailed, match="manifest publish"):
            store.flush()
        faults.disarm()
        reopened = self._reopen(tmp_path)
        # the orphaned segment (written but never referenced) was reaped
        assert reopened.orphans_reaped >= 1
        assert reopened.names() == names
        assert reopened.n_segments == 0  # flush never published
        assert reopened.flush() is True  # and cleanly retries
        assert_merged_exact(reopened)
        reopened.close()

    def test_manifest_torn_fault_during_compact(self, tmp_path):
        store = make_store(tmp_path, n=4)
        store.flush()
        store.remove("s3")
        names = store.names()
        generation = store.generation
        faults.arm("index.manifest_torn:1:0")
        with pytest.raises(StoreFailed, match="previous generation"):
            store.compact()
        faults.disarm()
        reopened = self._reopen(tmp_path)
        # the torn newer manifest lost; the old generation stayed current
        assert reopened.generation == generation
        assert reopened.names() == names
        assert reopened.orphans_reaped >= 1  # torn manifest + orphan segment
        reopened.compact()
        assert reopened.names() == names
        assert_merged_exact(reopened)
        reopened.close()


# --------------------------------------------------------------------- #
# Janitor
# --------------------------------------------------------------------- #


class TestJanitor:
    def test_orphan_tmp_and_unreferenced_files_reaped(self, tmp_path):
        store = make_store(tmp_path, n=3)
        store.flush()
        directory = tmp_path / "store"
        store.close()
        (directory / "seg_00000099_dead.tmp").write_bytes(b"half-written")
        (directory / "manifest_00000099.tmp").write_bytes(b"half")
        (directory / "seg_00000098_beef.scoris3").write_bytes(b"unreferenced")
        (directory / "wal_00000097.jsonl").write_bytes(b"stale")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            reopened = SegmentStore.open(directory)
        assert reopened.orphans_reaped == 4
        assert any("reaped 4" in str(w.message) for w in caught)
        survivors = {p.name for p in directory.iterdir()}
        assert not any(n.endswith(".tmp") for n in survivors)
        assert "seg_00000098_beef.scoris3" not in survivors
        assert "wal_00000097.jsonl" not in survivors
        registry = MetricsRegistry()
        reopened.record_metrics(registry)
        counters = registry.as_dict()["counters"]
        assert counters["index.orphans_reaped"] == 4
        reopened.close()

    def test_janitor_leaves_referenced_files(self, tmp_path):
        store = make_store(tmp_path, n=3)
        store.flush()
        directory = tmp_path / "store"
        referenced = {p.name for p in directory.iterdir()}
        store.close()
        reopened = SegmentStore.open(directory)
        assert reopened.orphans_reaped == 0
        assert {p.name for p in directory.iterdir()} == referenced
        reopened.close()

    def test_only_torn_manifests_is_corrupt(self, tmp_path):
        directory = tmp_path / "store"
        directory.mkdir()
        manifest_path(directory, 1).write_bytes(b'{"torn')
        with pytest.raises(IndexCorrupt, match="torn"):
            SegmentStore.open(directory)


# --------------------------------------------------------------------- #
# Merge exactness (the ordered-cutoff preservation property)
# --------------------------------------------------------------------- #


class TestMergeExactness:
    @pytest.mark.parametrize("filter_kind", ["dust", "entropy", "none"])
    def test_exact_across_filters(self, tmp_path, filter_kind):
        store = make_store(tmp_path, n=6, filter_kind=filter_kind)
        store.flush()
        rng = np.random.default_rng(21)
        store.add_many([(f"d{i}", random_dna(rng, 90)) for i in range(3)])
        store.remove("s2")
        assert_merged_exact(store)
        store.close()

    def test_low_complexity_sequences(self, tmp_path):
        # DUST-masked runs must stay masked identically after the merge.
        store = SegmentStore.create(tmp_path / "store", w=W, filter_kind="dust")
        store.add("poly_a", "A" * 200)
        store.add("mixed", "ACGT" * 40 + "A" * 60 + "GCGC" * 20)
        store.flush()
        store.add("tandem", "ATATATATAT" * 12)
        assert_merged_exact(store)
        store.close()

    def test_ambiguous_bases_survive_round_trip(self, tmp_path):
        store = SegmentStore.create(tmp_path / "store", w=W, filter_kind="dust")
        store.add("with_n", "ACGT" * 20 + "NNNNN" + "TTGGCCAA" * 10)
        store.flush()
        store.close()
        reopened = SegmentStore.open(tmp_path / "store")
        (name, seq_codes), = reopened.logical_records()
        assert name == "with_n"
        assert np.array_equal(seq_codes, encode("ACGT" * 20 + "NNNNN" + "TTGGCCAA" * 10))
        assert_merged_exact(reopened)
        reopened.close()

    @settings(max_examples=25, deadline=None)
    @given(data=st.data())
    def test_property_random_histories(self, tmp_path_factory, data):
        """Any interleaving of add/remove/flush/compact merges exactly."""
        directory = tmp_path_factory.mktemp("lsm") / "store"
        seed = data.draw(st.integers(0, 2**31 - 1), label="seed")
        rng = np.random.default_rng(seed)
        store = SegmentStore.create(directory, w=W, filter_kind="dust")
        counter = 0
        live: list[str] = []
        n_ops = data.draw(st.integers(2, 14), label="n_ops")
        for _ in range(n_ops):
            choices = ["add"]
            if live:
                choices += ["remove", "flush", "compact"]
            op = data.draw(st.sampled_from(choices))
            if op == "add":
                n_new = data.draw(st.integers(1, 3))
                batch = []
                for _ in range(n_new):
                    name = f"n{counter}"
                    counter += 1
                    batch.append(
                        (name, random_dna(rng, int(rng.integers(20, 200))))
                    )
                store.add_many(batch)
                live += [n for n, _ in batch]
            elif op == "remove":
                victim = data.draw(st.sampled_from(live))
                store.remove(victim)
                live.remove(victim)
            elif op == "flush":
                store.flush()
            else:
                store.compact()
        if live:
            assert store.names() == live or sorted(store.names()) == sorted(live)
            assert_merged_exact(store)
        store.close()
