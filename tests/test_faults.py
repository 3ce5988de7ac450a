"""Tests for the deterministic fault-injection registry (repro.runtime.faults).

The registry's contract has three load-bearing parts: spec parsing is
strict (a typo must not silently arm nothing), firing decisions are
*pure functions* of (seed, call ordinal) so chaos runs replay exactly,
and the disarmed hot path costs nothing observable.
"""

from __future__ import annotations

import pytest

from repro.runtime import faults


@pytest.fixture(autouse=True)
def _disarmed():
    """Every test starts and ends with no armed faults in-process."""
    faults.disarm()
    yield
    faults.disarm()


class TestSpecParsing:
    def test_unknown_point_rejected(self):
        with pytest.raises(faults.FaultSpecError, match="unknown fault point"):
            faults.arm("worker.crsh:0.5:1")

    def test_malformed_spec_rejected(self):
        with pytest.raises(faults.FaultSpecError, match="bad fault spec"):
            faults.arm("worker.crash")
        with pytest.raises(faults.FaultSpecError, match="bad fault spec"):
            faults.arm("worker.crash:half:1")

    def test_probability_bounds(self):
        with pytest.raises(faults.FaultSpecError, match="probability"):
            faults.arm("worker.crash:1.5:1")
        with pytest.raises(faults.FaultSpecError, match="probability"):
            faults.arm("worker.crash:-0.1:1")

    def test_comma_separated_specs(self):
        faults.arm("worker.crash:0.5:1,serve.torn_frame:0.25:2")
        assert faults.armed()
        assert set(faults.fired_counts()) == {"worker.crash", "serve.torn_frame"}

    def test_empty_spec_is_disarmed(self):
        faults.arm("")
        assert not faults.armed()

    def test_match_token_parses(self):
        faults.arm("serve.poison_query:1:0:POISON")
        assert faults.armed()


class TestFiring:
    def test_disarmed_never_fires(self):
        assert not faults.should_fire("worker.crash")
        assert faults.fired_counts() == {}

    def test_unarmed_point_never_fires_while_others_armed(self):
        faults.arm("worker.hang:1:0")
        assert not faults.should_fire("worker.crash")

    def test_probability_one_always_fires(self):
        faults.arm("worker.crash:1:0")
        assert all(faults.should_fire("worker.crash") for _ in range(20))
        assert faults.fired_counts()["worker.crash"] == 20

    def test_probability_zero_never_fires(self):
        faults.arm("worker.crash:0:0")
        assert not any(faults.should_fire("worker.crash") for _ in range(20))

    def test_deterministic_replay(self):
        """The same spec produces the same fire/no-fire sequence."""
        faults.arm("worker.crash:0.3:1234")
        first = [faults.should_fire("worker.crash") for _ in range(200)]
        faults.arm("worker.crash:0.3:1234")
        second = [faults.should_fire("worker.crash") for _ in range(200)]
        assert first == second
        assert any(first) and not all(first)  # p=0.3 is neither extreme

    def test_seed_changes_the_sequence(self):
        faults.arm("worker.crash:0.3:1")
        a = [faults.should_fire("worker.crash") for _ in range(200)]
        faults.arm("worker.crash:0.3:2")
        b = [faults.should_fire("worker.crash") for _ in range(200)]
        assert a != b

    def test_empirical_rate_tracks_probability(self):
        faults.arm("worker.crash:0.2:99")
        fired = sum(faults.should_fire("worker.crash") for _ in range(2000))
        assert 250 < fired < 550  # ~400 expected; loose deterministic bounds

    def test_match_token_restricts_firing(self):
        faults.arm("serve.poison_query:1:0:POISON")
        assert not faults.should_fire("serve.poison_query", "q1")
        assert not faults.should_fire("serve.poison_query")  # no key at all
        assert faults.should_fire("serve.poison_query", "POISON_q7")
        assert faults.fired_counts()["serve.poison_query"] == 1


class TestTaskKeys:
    """Range-task keys: one ``match`` token selects one task or attempt."""

    def test_keys_hold_no_spec_separators(self):
        for task in (0, 1, 10, 11, 123):
            for attempt in (0, 1, 10):
                key = faults.task_key(task, attempt)
                assert ":" not in key and "," not in key

    def test_first_attempt_token_targets_one_execution(self):
        faults.arm(f"task.error:1:0:{faults.task_key(1, 0)}")
        for task, attempt in ((10, 0), (11, 0), (1, 1), (1, 10), (21, 0)):
            key = faults.task_key(task, attempt)
            assert not faults.should_fire("task.error", key)
        assert faults.should_fire("task.error", faults.task_key(1, 0))
        assert faults.fired_counts()["task.error"] == 1

    def test_task_token_targets_every_attempt(self):
        faults.arm("task.error:1:0:task=1/")
        assert faults.should_fire("task.error", faults.task_key(1, 0))
        assert faults.should_fire("task.error", faults.task_key(1, 3))
        assert not faults.should_fire("task.error", faults.task_key(11, 0))
        assert not faults.should_fire("task.error", faults.task_key(21, 0))


class TestEnvArming:
    def test_lazy_env_arming(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "worker.hang:1:0")
        faults.reset()  # forget state; next check consults the env
        assert faults.armed()
        assert faults.should_fire("worker.hang")

    def test_env_ignored_after_explicit_arm(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "worker.hang:1:0")
        faults.arm("worker.crash:1:0")
        assert not faults.should_fire("worker.hang")
        assert faults.should_fire("worker.crash")

    def test_no_env_stays_disarmed(self, monkeypatch):
        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        faults.reset()
        assert not faults.armed()


class TestInject:
    def test_inject_rejects_parent_side_points(self):
        with pytest.raises(ValueError, match="worker-side"):
            faults.inject("serve.torn_frame")

    def test_hang_sleeps_patched_duration(self, monkeypatch):
        monkeypatch.setattr(faults, "HANG_SECONDS", 0.01)
        import time

        t0 = time.monotonic()
        faults.inject("worker.hang")
        assert time.monotonic() - t0 >= 0.01
