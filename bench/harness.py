"""Process and bookkeeping helpers shared by the benchmark's workloads."""

from __future__ import annotations

import os
import signal
import subprocess
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
STRAY_GRACE_S = 3.0
#: Offset between the dataset seeds of a run's consecutive input draws.
PAIR_SEED_STRIDE = 7919


class Checks:
    """Counts attempted operations and correctness checks, keeps failures."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def operations(self, n_ok: int, errors: list[str]) -> None:
        """Record ``n_ok`` successful operations plus the failed ones."""
        self.attempted += n_ok + len(errors)
        self.failures.extend(errors)


def child_env(work: Path) -> dict:
    """Environment for program processes: ``src`` importable, temp files in ``work``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    env["TMPDIR"] = str(work)
    return env


def spawn(cmd: list[str], work: Path, **kwargs) -> subprocess.Popen:
    """Start a program process in its own session, so strays can be found."""
    return subprocess.Popen(
        cmd, env=child_env(work), start_new_session=True, **kwargs
    )


def stop(proc: subprocess.Popen, timeout: float, sig: int | None = signal.SIGTERM):
    """Signal ``proc`` (unless ``sig`` is None), wait for it, then kill
    whatever its session left.

    Returns ``(exit code or None if it had to be killed, strays)`` where
    ``strays`` says whether other processes of the session outlived it.
    """
    if sig is not None and proc.poll() is None:
        proc.send_signal(sig)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        code = None
    # Helpers such as multiprocessing's resource tracker exit on their
    # own shortly after their parent; give them a grace period first.
    grace = time.monotonic() + (STRAY_GRACE_S if code is not None else 0.0)
    give_up = grace + 10.0
    strays = False
    while time.monotonic() < give_up:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            break
        if time.monotonic() >= grace:
            strays = code is not None
            os.killpg(proc.pid, signal.SIGKILL)
        proc.poll()  # reap the leader if it was the one killed
        time.sleep(0.01)
    proc.wait()
    return code, strays


def shm_segments() -> set[str]:
    """The program's POSIX shared-memory segments currently present."""
    shm = Path("/dev/shm")
    return {p.name for p in shm.glob("scoris_*")} if shm.is_dir() else set()
