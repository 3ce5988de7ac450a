"""Fault-injection tests for the resilient runtime (repro.runtime).

The acceptance bar: with a worker killed mid-run the comparison completes
with HSP output identical to the serial engine's, and a run resumed from
its checkpoint journal produces the same result while skipping all
previously completed ranges.
"""

from __future__ import annotations

import json
import signal

import pytest

from repro.core import OrisEngine, OrisParams
from repro.core.parallel import build_range_payload, plan_ranges
from repro.runtime import CheckpointCorrupt, TaskPoisoned, faults
from repro.runtime.scheduler import RuntimeConfig, WorkerPool, compare_resilient

N_WORKERS = 2
TASKS_PER_WORKER = 3


@pytest.fixture(scope="module")
def serial_lines(est_pair):
    res = OrisEngine(OrisParams()).compare(*est_pair)
    return [r.to_line() for r in res.records]


@pytest.fixture(scope="module")
def n_tasks_for(est_pair):
    """Actual task count the balanced planner produces for a target.

    The balanced split may return fewer tasks than requested (its
    max-cost bound), so count assertions must use the real plan, not
    the ``n_workers * tasks_per_worker`` target.
    """
    engine = OrisEngine(OrisParams())
    i1, i2 = engine._build_indexes(*est_pair)
    common = i1.common_codes(i2)

    def _n_tasks(target: int) -> int:
        return len(plan_ranges(common, target, OrisParams()))

    return _n_tasks


@pytest.fixture(scope="module")
def mid_task(est_pair):
    """The id of a middle range task, for targeted fault injection.

    Must use the same planner (and target) as the runs under test, so
    the injected fault lands on a real task.
    """
    engine = OrisEngine(OrisParams())
    i1, i2 = engine._build_indexes(*est_pair)
    common = i1.common_codes(i2)
    ranges = plan_ranges(common, N_WORKERS * TASKS_PER_WORKER, OrisParams())
    assert len(ranges) >= 3  # the fault/resume tests need a middle task
    return len(ranges) // 2


@pytest.fixture
def arm():
    """``faults.arm`` for one test; the registry is disarmed afterwards.

    Forked workers inherit the armed registry, so arming in-process
    reaches the pool a run creates after this call.
    """
    yield faults.arm
    faults.disarm()


def lines(result) -> list[str]:
    return [r.to_line() for r in result.records]


class TestHealthyRuns:
    def test_identical_to_serial(self, est_pair, serial_lines):
        res = compare_resilient(
            *est_pair,
            OrisParams(),
            RuntimeConfig(n_workers=N_WORKERS, tasks_per_worker=TASKS_PER_WORKER),
        )
        assert lines(res) == serial_lines
        c = res.counters
        assert (c.n_retries, c.n_crashes, c.n_timeouts) == (0, 0, 0)
        assert (c.n_quarantined, c.n_skipped_tasks, c.n_resumed) == (0, 0, 0)

    def test_single_worker_serial_mode(self, est_pair, serial_lines):
        res = compare_resilient(
            *est_pair, OrisParams(), RuntimeConfig(n_workers=1)
        )
        assert lines(res) == serial_lines

    def test_both_strand_rejected(self, est_pair):
        with pytest.raises(ValueError):
            compare_resilient(*est_pair, OrisParams(strand="both"))

    def test_unordered_cutoff_rejected(self, est_pair):
        with pytest.raises(ValueError, match="ordered-seed cutoff"):
            compare_resilient(*est_pair, OrisParams(ordered_cutoff=False))

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(ValueError, match="checkpoint_dir"):
            RuntimeConfig(resume=True)


class TestFaultRecovery:
    """Crash/raise/hang a worker once; the run must still be exact.

    Faults come from the registry, keyed by task and attempt: a ``match``
    token of ``task_key(t, 0)`` hits only task *t*'s first attempt, so the
    retry succeeds; ``task=t/`` hits every attempt of task *t*.
    """

    def test_worker_hard_crash_recovers(
        self, est_pair, serial_lines, mid_task, arm
    ):
        arm(f"worker.crash:1:0:{faults.task_key(mid_task, 0)}")
        res = compare_resilient(
            *est_pair,
            OrisParams(),
            RuntimeConfig(
                n_workers=N_WORKERS,
                tasks_per_worker=TASKS_PER_WORKER,
            ),
        )
        assert lines(res) == serial_lines
        assert res.counters.n_crashes >= 1
        assert res.counters.n_retries >= 1

    def test_worker_exception_recovers(
        self, est_pair, serial_lines, mid_task, arm
    ):
        arm(f"task.error:1:0:{faults.task_key(mid_task, 0)}")
        res = compare_resilient(
            *est_pair,
            OrisParams(),
            RuntimeConfig(
                n_workers=N_WORKERS,
                tasks_per_worker=TASKS_PER_WORKER,
            ),
        )
        assert lines(res) == serial_lines
        assert res.counters.n_retries >= 1
        assert res.counters.n_crashes == 0

    def test_hung_worker_times_out_and_recovers(
        self, est_pair, serial_lines, mid_task, arm
    ):
        arm(f"worker.hang:1:0:{faults.task_key(mid_task, 0)}")
        res = compare_resilient(
            *est_pair,
            OrisParams(),
            RuntimeConfig(
                n_workers=N_WORKERS,
                tasks_per_worker=TASKS_PER_WORKER,
                task_timeout=1.0,
            ),
        )
        assert lines(res) == serial_lines
        assert res.counters.n_timeouts >= 1

    def test_pool_unhealthy_degrades_to_serial(
        self, est_pair, serial_lines, mid_task, arm
    ):
        arm(f"worker.crash:1:0:{faults.task_key(mid_task, 0)}")
        with pytest.warns(RuntimeWarning, match="unhealthy"):
            res = compare_resilient(
                *est_pair,
                OrisParams(),
                RuntimeConfig(
                    n_workers=N_WORKERS,
                    tasks_per_worker=TASKS_PER_WORKER,
                    max_pool_failures=0,
                ),
            )
        assert lines(res) == serial_lines
        assert res.counters.n_crashes == 1
        assert res.counters.n_degraded >= 1

    def test_poisoned_task_is_quarantined_not_fatal(
        self, est_pair, serial_lines, mid_task, arm
    ):
        # The fault fires on every attempt: retries and the in-parent
        # quarantine attempt all fail; the run degrades instead of dying.
        arm(f"task.error:1:0:task={mid_task}/")
        with pytest.warns(RuntimeWarning, match="dropped"):
            res = compare_resilient(
                *est_pair,
                OrisParams(),
                RuntimeConfig(
                    n_workers=N_WORKERS,
                    tasks_per_worker=TASKS_PER_WORKER,
                    max_retries=1,
                    backoff_base=0.01,
                ),
            )
        assert res.counters.n_quarantined == 1
        assert res.counters.n_skipped_tasks == 1
        assert len(res.records) <= len(serial_lines)

    def test_strict_mode_raises_on_poison(self, est_pair, mid_task, arm):
        arm(f"task.error:1:0:task={mid_task}/")
        with pytest.raises(TaskPoisoned):
            compare_resilient(
                *est_pair,
                OrisParams(),
                RuntimeConfig(
                    n_workers=1,  # serial mode exercises the inline path
                    max_retries=1,
                    backoff_base=0.01,
                    strict=True,
                ),
            )


class TestRegistryFaultsAcrossStartMethods:
    def test_env_armed_task_error_under_spawn(
        self, est_pair, serial_lines, mid_task, monkeypatch
    ):
        # Spawned workers inherit no module state: they re-arm from
        # SCORIS_FAULTS, and the key still targets one first attempt.
        monkeypatch.setenv(
            faults.ENV_VAR, f"task.error:1:0:{faults.task_key(mid_task, 0)}"
        )
        faults.reset()
        try:
            with pytest.warns(RuntimeWarning, match="spawn"):
                res = compare_resilient(
                    *est_pair,
                    OrisParams(),
                    RuntimeConfig(n_workers=2, start_method="spawn"),
                )
        finally:
            faults.disarm()
        assert lines(res) == serial_lines
        assert res.counters.n_retries >= 1
        assert res.counters.n_crashes == 0


class TestWorkerPool:
    def test_smaller_lease_keeps_surplus_workers(self, est_pair):
        # A small batch must not kill pooled live workers that the next,
        # larger batch would then have to fork again.
        engine = OrisEngine(OrisParams())
        i1, i2 = engine._build_indexes(*est_pair)
        payload = build_range_payload(
            i1, i2, i1.common_codes(i2), OrisParams(), 0
        )
        pool = WorkerPool(2)
        try:
            first = pool.lease(payload, 2)
            pids = sorted(w.proc.pid for w in first)
            pool.reclaim(first)
            pool.reclaim(pool.lease(payload, 1))
            assert len(pool) == 2
            again = pool.lease(payload, 2)
            assert sorted(w.proc.pid for w in again) == pids
            assert pool.respawns == 0
            pool.reclaim(again)
        finally:
            pool.stop()


class TestCheckpointResume:
    def _run(self, est_pair, ckpt, resume=False, n_workers=1):
        return compare_resilient(
            *est_pair,
            OrisParams(),
            RuntimeConfig(
                n_workers=n_workers,
                tasks_per_worker=TASKS_PER_WORKER,
                checkpoint_dir=str(ckpt),
                resume=resume,
            ),
        )

    def test_full_resume_skips_everything(
        self, est_pair, serial_lines, tmp_path, n_tasks_for
    ):
        ckpt = tmp_path / "ckpt"
        first = self._run(est_pair, ckpt, n_workers=N_WORKERS)
        assert lines(first) == serial_lines
        again = self._run(est_pair, ckpt, resume=True, n_workers=N_WORKERS)
        assert lines(again) == serial_lines
        assert again.counters.n_resumed == n_tasks_for(
            N_WORKERS * TASKS_PER_WORKER
        )

    def test_partial_resume_completes_the_rest(
        self, est_pair, serial_lines, tmp_path, n_tasks_for
    ):
        ckpt = tmp_path / "ckpt"
        self._run(est_pair, ckpt)  # n_workers=1 -> up to TASKS_PER_WORKER tasks
        journal = ckpt / "journal.jsonl"
        kept = journal.read_text().splitlines()[:2]  # header + 1 task
        journal.write_text("\n".join(kept) + "\n")
        res = self._run(est_pair, ckpt, resume=True)
        assert lines(res) == serial_lines
        assert res.counters.n_resumed == 1
        # The journal was re-completed: every task is recorded again.
        n_lines = len(journal.read_text().splitlines())
        assert n_lines == 1 + n_tasks_for(TASKS_PER_WORKER)

    def test_resume_after_simulated_kill_mid_append(
        self, est_pair, serial_lines, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        self._run(est_pair, ckpt)
        journal = ckpt / "journal.jsonl"
        rows = journal.read_text().splitlines()
        torn = "\n".join(rows[:3]) + "\n" + rows[3][: len(rows[3]) // 2]
        journal.write_text(torn)  # SIGKILL mid-append: half a JSON line
        res = self._run(est_pair, ckpt, resume=True)
        assert lines(res) == serial_lines
        assert res.counters.n_resumed == 2

    def test_resume_rejects_foreign_fingerprint(self, est_pair, tmp_path):
        ckpt = tmp_path / "ckpt"
        self._run(est_pair, ckpt)
        with pytest.raises(CheckpointCorrupt, match="fingerprint"):
            compare_resilient(
                *est_pair,
                OrisParams(w=10),  # different parameters, same journal
                RuntimeConfig(
                    n_workers=1,
                    tasks_per_worker=TASKS_PER_WORKER,
                    checkpoint_dir=str(ckpt),
                    resume=True,
                ),
            )

    def test_corrupt_chunk_is_recomputed(
        self, est_pair, serial_lines, tmp_path, n_tasks_for
    ):
        ckpt = tmp_path / "ckpt"
        self._run(est_pair, ckpt)
        journal = ckpt / "journal.jsonl"
        first_task = json.loads(journal.read_text().splitlines()[1])
        chunk = ckpt / first_task["file"]
        blob = bytearray(chunk.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        chunk.write_bytes(bytes(blob))
        with pytest.warns(RuntimeWarning, match="checksum"):
            res = self._run(est_pair, ckpt, resume=True)
        assert lines(res) == serial_lines
        assert res.counters.n_resumed == n_tasks_for(TASKS_PER_WORKER) - 1

    def test_resume_without_journal_starts_fresh(
        self, est_pair, serial_lines, tmp_path
    ):
        with pytest.warns(RuntimeWarning, match="starting fresh"):
            res = self._run(est_pair, tmp_path / "empty", resume=True)
        assert lines(res) == serial_lines
        assert res.counters.n_resumed == 0


class TestGracefulShutdown:
    """ShutdownRequest / signal_shutdown: the SIGTERM drain path.

    Full process-level signal delivery is covered by
    ``scripts/ci_resume_smoke.py``; these tests exercise the in-process
    mechanics directly.
    """

    def test_pre_tripped_stop_interrupts_immediately(self, est_pair, tmp_path):
        from repro.runtime.errors import RunInterrupted
        from repro.runtime.scheduler import ShutdownRequest

        stop = ShutdownRequest()
        stop.trip(signal.SIGTERM)
        with pytest.raises(RunInterrupted) as exc_info:
            compare_resilient(
                *est_pair,
                OrisParams(),
                RuntimeConfig(
                    n_workers=N_WORKERS,
                    tasks_per_worker=TASKS_PER_WORKER,
                    checkpoint_dir=str(tmp_path / "ckpt"),
                ),
                stop=stop,
            )
        assert exc_info.value.signum == signal.SIGTERM
        assert "SIGTERM" in str(exc_info.value)
        assert "--resume" in str(exc_info.value)

    def test_interrupted_run_journal_resumes_exactly(
        self, est_pair, serial_lines, tmp_path
    ):
        from repro.runtime.errors import RunInterrupted
        from repro.runtime.scheduler import ShutdownRequest

        ckpt = tmp_path / "ckpt"
        stop = ShutdownRequest()
        stop.trip(signal.SIGTERM)
        with pytest.raises(RunInterrupted):
            compare_resilient(
                *est_pair,
                OrisParams(),
                RuntimeConfig(
                    n_workers=N_WORKERS,
                    tasks_per_worker=TASKS_PER_WORKER,
                    checkpoint_dir=str(ckpt),
                ),
                stop=stop,
            )
        # The journal header must exist and the resumed run must complete
        # with output identical to an uninterrupted serial comparison.
        assert (ckpt / "journal.jsonl").is_file()
        res = compare_resilient(
            *est_pair,
            OrisParams(),
            RuntimeConfig(
                n_workers=N_WORKERS,
                tasks_per_worker=TASKS_PER_WORKER,
                checkpoint_dir=str(ckpt),
                resume=True,
            ),
        )
        assert lines(res) == serial_lines

    def test_serial_path_honours_stop(self, est_pair, tmp_path):
        from repro.runtime.errors import RunInterrupted
        from repro.runtime.scheduler import ShutdownRequest

        stop = ShutdownRequest()
        stop.trip(signal.SIGINT)
        with pytest.raises(RunInterrupted) as exc_info:
            compare_resilient(
                *est_pair,
                OrisParams(),
                RuntimeConfig(n_workers=1),
                stop=stop,
            )
        assert exc_info.value.signum == signal.SIGINT

    def test_signal_shutdown_trips_and_restores(self):
        from repro.runtime.scheduler import ShutdownRequest, signal_shutdown

        previous = signal.getsignal(signal.SIGTERM)
        stop = ShutdownRequest()
        with signal_shutdown(stop):
            assert signal.getsignal(signal.SIGTERM) is not previous
            signal.raise_signal(signal.SIGTERM)
            assert stop.is_set()
            assert stop.signum == signal.SIGTERM
        assert signal.getsignal(signal.SIGTERM) is previous

    def test_run_interrupted_exit_code(self):
        from repro.runtime.errors import (
            EXIT_INTERRUPTED,
            RunInterrupted,
            exit_code_for,
        )

        exc = RunInterrupted("stop", signum=signal.SIGTERM, n_completed=3)
        assert exit_code_for(exc) == EXIT_INTERRUPTED == 130
