"""Unit tests for the checkpoint journal (repro.runtime.checkpoint)."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core.parallel import RangeResult
from repro.obs import MetricsRegistry
from repro.runtime.checkpoint import JOURNAL_VERSION, CheckpointJournal
from repro.runtime.errors import CheckpointCorrupt

FP = {"algo": "test", "n_tasks": 4, "crc": 123}


def make_result(n: int = 5, offset: int = 0) -> RangeResult:
    s1 = np.arange(n, dtype=np.int64) + offset
    metrics = MetricsRegistry()
    metrics.inc("step2.hit_pairs", 12)
    metrics.inc("step2.lane_steps", 99)
    return RangeResult(
        start1=s1,
        end1=s1 + 10,
        start2=s1 + 3,
        score=np.full(n, 7, dtype=np.int64),
        metrics=metrics,
    )


@pytest.fixture
def journal(tmp_path):
    with CheckpointJournal(tmp_path / "ckpt") as j:
        yield j


class TestRoundTrip:
    def test_record_and_load(self, journal):
        journal.create(FP)
        a, b = make_result(5), make_result(3, offset=100)
        journal.record(0, 0, 10, a)
        journal.record(2, 20, 30, b)
        journal.close()
        loaded = journal.load(FP)
        assert sorted(loaded) == [0, 2]
        assert np.array_equal(loaded[0].start1, a.start1)
        assert np.array_equal(loaded[2].score, b.score)
        assert loaded[2].metrics.value("step2.hit_pairs") == 12
        assert loaded[0].metrics == a.metrics

    def test_empty_journal_loads_nothing(self, journal):
        journal.create(FP)
        journal.close()
        assert journal.load(FP) == {}

    def test_duplicate_record_last_wins(self, journal):
        journal.create(FP)
        journal.record(1, 0, 10, make_result(2))
        journal.record(1, 0, 10, make_result(6))
        journal.close()
        # The first line's CRC no longer matches the (overwritten) chunk;
        # the second line claims it back.
        with pytest.warns(RuntimeWarning, match="checksum"):
            loaded = journal.load(FP)
        assert loaded[1].n_hsps == 6


class TestCorruption:
    def test_missing_journal(self, tmp_path):
        with pytest.raises(CheckpointCorrupt, match="no journal"):
            CheckpointJournal(tmp_path / "nowhere").load(FP)

    def test_fingerprint_mismatch(self, journal):
        journal.create(FP)
        journal.close()
        with pytest.raises(CheckpointCorrupt, match="fingerprint"):
            journal.load({**FP, "crc": 999})

    def test_version_mismatch(self, journal):
        journal.create(FP)
        journal.close()
        rows = journal.path.read_text().splitlines()
        header = json.loads(rows[0])
        header["version"] = JOURNAL_VERSION + 1
        journal.path.write_text(json.dumps(header) + "\n")
        with pytest.raises(CheckpointCorrupt, match="version"):
            journal.load(FP)

    def test_version_1_journal_is_refused(self, journal):
        # Version 1 kept n_pairs/n_cut/steps beside an optional metrics
        # snapshot; resuming it would restore tasks with missing counts.
        journal.create(FP)
        journal.record(0, 0, 10, make_result())
        journal.close()
        header, task = map(json.loads, journal.path.read_text().splitlines())
        assert header["version"] == JOURNAL_VERSION == 2
        header["version"] = 1
        task = {**task, "n_pairs": 12, "n_cut": 3, "steps": 99, "metrics": None}
        journal.path.write_text(json.dumps(header) + "\n" + json.dumps(task) + "\n")
        with pytest.raises(CheckpointCorrupt, match="version 1"):
            journal.load(FP)

    def test_task_without_metrics_raises(self, journal):
        journal.create(FP)
        journal.record(0, 0, 10, make_result())
        journal.close()
        header, task = journal.path.read_text().splitlines()
        task = json.loads(task)
        del task["metrics"]
        journal.path.write_text(header + "\n" + json.dumps(task) + "\n")
        with pytest.raises(CheckpointCorrupt, match="metrics"):
            journal.load(FP)

    def test_torn_tail_is_tolerated(self, journal):
        journal.create(FP)
        journal.record(0, 0, 10, make_result())
        journal.close()
        with open(journal.path, "a") as fh:
            fh.write('{"kind": "task", "task": 1, "lo"')  # torn append
        loaded = journal.load(FP)
        assert sorted(loaded) == [0]

    def test_garbage_midline_raises(self, journal):
        journal.create(FP)
        journal.record(0, 0, 10, make_result())
        journal.close()
        rows = journal.path.read_text().splitlines()
        rows.insert(1, "!!not json!!")
        journal.path.write_text("\n".join(rows) + "\n")
        with pytest.raises(CheckpointCorrupt, match="not valid JSON"):
            journal.load(FP)

    def test_missing_chunk_recomputes(self, journal):
        journal.create(FP)
        journal.record(0, 0, 10, make_result())
        journal.record(1, 10, 20, make_result())
        journal.close()
        (journal.directory / "chunk_000000.npz").unlink()
        with pytest.warns(RuntimeWarning, match="missing"):
            loaded = journal.load(FP)
        assert sorted(loaded) == [1]

    def test_bitflipped_chunk_recomputes(self, journal):
        journal.create(FP)
        journal.record(0, 0, 10, make_result())
        journal.close()
        chunk = journal.directory / "chunk_000000.npz"
        blob = bytearray(chunk.read_bytes())
        blob[len(blob) // 2] ^= 0x55
        chunk.write_bytes(bytes(blob))
        with pytest.warns(RuntimeWarning, match="checksum"):
            loaded = journal.load(FP)
        assert loaded == {}

    def test_no_header_raises(self, journal):
        journal.create(FP)
        journal.record(0, 0, 10, make_result())
        journal.close()
        rows = journal.path.read_text().splitlines()
        journal.path.write_text("\n".join(rows[1:]) + "\n")
        with pytest.raises(CheckpointCorrupt, match="header"):
            journal.load(FP)
