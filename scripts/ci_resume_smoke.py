#!/usr/bin/env python
"""CI smoke test: kill a checkpointed parallel comparison mid-run, resume
it, and require byte-identical output — with SIGKILL mid-step-2, with
SIGTERM mid-step-2, and with SIGKILL mid-step-3.

This exercises the full resilience story end to end, across real process
boundaries (no fault injection, no mocks):

  1. run the serial engine for a reference output;
  2. launch ``scoris-n --workers 2 --checkpoint ckpt/`` as a subprocess,
     wait until its journal shows completed tasks, then kill it:

     * **SIGKILL** to the whole process group — exactly what a batch
       scheduler's OOM killer does.  Nothing can be flushed; resume must
       survive a torn journal tail.
     * **SIGTERM** to the parent — the polite shutdown every scheduler
       sends first.  The run must drain in-flight tasks, flush the
       journal, and exit with the documented code 130.
     * **SIGKILL mid-step-3** — ``SCORIS_FAULTS`` hangs step-3 lane
       slice 0's first attempt (``worker.hang`` on ``slice=0/try=0;``),
       so the run sits in step 3 with every step-2 task journalled; the
       group is SIGKILLed there.  Step 3 is never journalled: resume
       (with no faults armed) recomputes it from the journalled HSPs.

  3. re-run with ``--resume`` and assert the output file is byte-identical
     to the uninterrupted serial run;
  4. assert no ``/dev/shm/scoris_*`` shared-memory block outlives its
     scenario: the graceful SIGTERM drain must unlink its own arena on
     the way out, and the SIGKILL orphan (nothing *can* unlink there)
     must be reaped by the next run's stale-segment sweep.

Exit status 0 on success; non-zero with a diagnostic otherwise.
Run from the repository root with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
sys.path.insert(0, str(SRC))

from repro.data.synthetic import mutate, random_dna  # noqa: E402
from repro.io.bank import Bank  # noqa: E402

N_SEQS = 40
SEQ_LEN = 1200
KILL_AFTER_TASKS = 2  # kill once this many task lines hit the journal
TIMEOUT = 600.0
EXIT_INTERRUPTED = 130
#: Wedges step 3: its first lane slice's first attempt sleeps for an hour.
HANG_STEP3 = "worker.hang:1:0:slice=0/try=0;"
#: How long a run with every step-2 task journalled must stay alive (and
#: write no output) before it counts as held inside step 3.
STEP3_HOLD_S = 1.0


def build_banks(directory: Path) -> tuple[Path, Path]:
    import numpy as np

    rng = np.random.default_rng(20080517)
    cores = [random_dna(rng, SEQ_LEN) for _ in range(N_SEQS)]
    b1 = Bank.from_strings(
        [(f"q{i}", random_dna(rng, 80) + c) for i, c in enumerate(cores)]
    )
    b2 = Bank.from_strings(
        [
            (f"s{i}", mutate(rng, c, sub_rate=0.04) + random_dna(rng, 80))
            for i, c in enumerate(cores)
        ]
    )
    p1, p2 = directory / "bank1.fa", directory / "bank2.fa"
    b1.to_fasta(p1)
    b2.to_fasta(p2)
    return p1, p2


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "repro.cli", *map(str, args)]


def env(faults: str | None = None) -> dict[str, str]:
    e = dict(os.environ)
    e["PYTHONPATH"] = str(SRC) + os.pathsep + e.get("PYTHONPATH", "")
    e.pop("SCORIS_FAULTS", None)
    if faults:
        e["SCORIS_FAULTS"] = faults
    return e


def scoris_shm_blocks() -> set[str]:
    """Names of our shared-memory blocks currently in /dev/shm."""
    from repro.runtime.shm import arena_prefix, shm_dir

    d = shm_dir()
    if d is None:  # platform without a visible shm filesystem
        return set()
    prefix = arena_prefix() + "_"
    return {p.name for p in Path(d).iterdir() if p.name.startswith(prefix)}


def check_no_shm_leak(label: str, baseline: set[str]) -> int:
    """Fail if any scoris shm block beyond *baseline* is still alive."""
    leaked = scoris_shm_blocks() - baseline
    if leaked:
        print(
            f"[smoke:{label}] ERROR: leaked shared-memory blocks in "
            f"/dev/shm: {sorted(leaked)}"
        )
        return 1
    print(f"[smoke:{label}] OK: no shared-memory blocks leaked", flush=True)
    return 0


def journal_task_lines(journal: Path) -> int:
    if not journal.is_file():
        return -1  # no journal yet (header not written)
    n = sum(1 for line in journal.read_bytes().splitlines() if line.strip())
    return n - 1  # minus the header line


def journal_n_tasks(journal: Path) -> int | None:
    """The run's step-2 task count, from the journal header."""
    try:
        header = json.loads(journal.read_bytes().splitlines()[0])
    except (OSError, IndexError, ValueError):
        return None
    return int(header["fingerprint"]["n_tasks"])


def held_in_step3(proc: subprocess.Popen, journal: Path, out: Path) -> bool:
    """True once every step-2 task is journalled and the run, still
    alive without output, has stayed so for ``STEP3_HOLD_S``."""
    n_tasks = journal_n_tasks(journal)
    if n_tasks is None or journal_task_lines(journal) < n_tasks:
        return False
    time.sleep(STEP3_HOLD_S)
    return proc.poll() is None and not out.exists()


def run_scenario(
    label: str,
    sig: signal.Signals,
    kill_group: bool,
    fa1: Path,
    fa2: Path,
    ref: Path,
    tmp: Path,
    shm_baseline: set[str],
    faults: str | None = None,
) -> int:
    """Kill one checkpointed run with *sig*, resume, compare to *ref*.

    Without *faults* the kill lands in step 2, once ``KILL_AFTER_TASKS``
    tasks are journalled; with them (a fault that wedges step 3) it
    lands once the run is held inside step 3.
    """
    out = tmp / f"resumed_{label}.m8"
    ckpt = tmp / f"ckpt_{label}"
    journal = ckpt / "journal.jsonl"

    print(f"[smoke:{label}] launching checkpointed parallel run ...", flush=True)
    proc = subprocess.Popen(
        cli(fa1, fa2, "--workers", "2", "--checkpoint", ckpt, "-o", out),
        env=env(faults),
        start_new_session=True,  # own process group: killpg reaps workers
    )
    deadline = time.monotonic() + TIMEOUT
    killed = False
    while time.monotonic() < deadline:
        done = journal_task_lines(journal)
        if faults:
            due = held_in_step3(proc, journal, out)
        else:
            due = done >= KILL_AFTER_TASKS
        if due and proc.poll() is None:
            if kill_group:
                os.killpg(proc.pid, sig)
            else:
                os.kill(proc.pid, sig)
            rc = proc.wait()
            killed = True
            print(
                f"[smoke:{label}] sent {sig.name} after {done} journalled "
                f"tasks; run exited {rc}",
                flush=True,
            )
            if sig == signal.SIGTERM:
                if rc != EXIT_INTERRUPTED:
                    print(
                        f"[smoke:{label}] ERROR: graceful shutdown should "
                        f"exit {EXIT_INTERRUPTED}, got {rc}"
                    )
                    return 1
                # The drain path must unlink its own arena on the way out.
                if check_no_shm_leak(label + ":drain", shm_baseline):
                    return 1
            break
        if proc.poll() is not None:
            break
        time.sleep(0.01)
    if not killed:
        if faults:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
            print(
                f"[smoke:{label}] ERROR: the run was never held inside "
                f"step 3 (exit {proc.returncode})",
                flush=True,
            )
            return 1
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            print(f"[smoke:{label}] ERROR: run never journalled a task", flush=True)
            return 1
        # The run outpaced the poller; resume still must be a clean no-op.
        print(
            f"[smoke:{label}] WARNING: run finished before the kill "
            "(machine too fast / banks too small); "
            "resume degenerates to a no-op check",
            flush=True,
        )

    if not journal.is_file():
        print(f"[smoke:{label}] ERROR: no journal written before the kill")
        return 1
    print(
        f"[smoke:{label}] journal holds {journal_task_lines(journal)} task "
        "lines; resuming ...",
        flush=True,
    )
    res = subprocess.run(
        cli(
            fa1, fa2, "--workers", "2", "--checkpoint", ckpt,
            "--resume", "-o", out, "--stats",
        ),
        env=env(),
        capture_output=True,
        text=True,
        timeout=TIMEOUT,
    )
    sys.stderr.write(res.stderr)
    if res.returncode != 0:
        print(f"[smoke:{label}] ERROR: --resume exited {res.returncode}")
        return 1

    if out.read_bytes() != ref.read_bytes():
        print(
            f"[smoke:{label}] ERROR: resumed output differs from the "
            "uninterrupted serial run"
        )
        return 1
    print(f"[smoke:{label}] OK: resumed output is byte-identical", flush=True)
    # A SIGKILLed run cannot clean up after itself; the resume run's
    # stale-segment sweep must have reaped its orphan by now.
    return check_no_shm_leak(label, shm_baseline)


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="scoris_smoke_") as td:
        tmp = Path(td)
        fa1, fa2 = build_banks(tmp)
        ref = tmp / "reference.m8"
        shm_baseline = scoris_shm_blocks()  # tolerate unrelated runs

        print("[smoke] serial reference run ...", flush=True)
        subprocess.run(
            cli(fa1, fa2, "-o", ref), env=env(), check=True, timeout=TIMEOUT
        )
        n_ref = sum(1 for _ in ref.open())
        print(f"[smoke] reference: {n_ref} records", flush=True)

        # SIGKILL to the whole group: the OOM-killer scenario.
        rc = run_scenario(
            "sigkill", signal.SIGKILL, True, fa1, fa2, ref, tmp, shm_baseline
        )
        if rc != 0:
            return rc
        # SIGTERM to the parent: the graceful-shutdown scenario.
        rc = run_scenario(
            "sigterm", signal.SIGTERM, False, fa1, fa2, ref, tmp, shm_baseline
        )
        if rc != 0:
            return rc
        # SIGKILL to the whole group while step 3 is held open.
        rc = run_scenario(
            "sigkill_step3", signal.SIGKILL, True, fa1, fa2, ref, tmp,
            shm_baseline, faults=HANG_STEP3,
        )
        if rc != 0:
            return rc
        print(f"[smoke] OK: all three scenarios byte-identical ({n_ref} records)")
        return 0


if __name__ == "__main__":
    sys.exit(main())
