#!/usr/bin/env python
"""CI chaos test: batch compare and the query daemon under fault injection.

Every fault comes from one registry (``repro.runtime.faults``).  Range
tasks are keyed ``task={id}/try={attempt};``, so a ``match`` token can
target one task's first attempt.

**Batch phase** -- ``scoris-n --workers 2 --metrics`` (the
``compare_resilient`` path) with ``SCORIS_FAULTS`` arming
``worker.crash`` on task 0's first attempt and ``task.error`` on task
1's first attempt.  The m8 must be byte-identical to a serial run, and
the metrics must show ``scheduler.crashes >= 1`` and
``scheduler.retries >= 1``.

**Daemon phase** -- the daemon is started with two armed fault points
(via the hidden ``serve --faults`` flag):

* ``worker.crash:0.05:1234`` -- each range task has a 5 % chance of
  killing its worker process mid-task.  The scheduler must requeue, the
  pool must respawn (with backoff), and no client may ever notice.
* ``serve.poison_query:1.0:0:POISONQ`` -- any query whose name contains
  ``POISONQ`` deterministically fails its whole batch.  The batcher must
  bisect the batch, answer every innocent co-batched query with its real
  result, quarantine the poison sequence, and answer it ``poisoned``.

Scenarios (all against one ``scoris-n serve`` subprocess):

  1. **Soak under crashes** -- 500 queries from 8 retrying clients, one
     of them the seeded poison query.  Every non-poisoned answer must be
     byte-identical to a single-shot ``compare`` subprocess; the poison
     query must raise ``QueryPoisoned`` and be poisoned *exactly once*
     (``serve.queries_poisoned == 1``).
  2. **Quarantine replay** -- the same poison sequence under an innocent
     name is answered ``poisoned`` from quarantine without burning
     another batch (``serve.quarantine_hits`` increments).
  3. **End-of-soak health** -- the ``health`` endpoint must report every
     component ok, zero admission slots in flight, and at least one pool
     respawn actually exercised.
  4. **Clean exit** -- SIGTERM drains the daemon to exit 0 with no
     leaked ``/dev/shm`` segment and no surviving worker process.

Exit status 0 on success; non-zero with a diagnostic otherwise.  A
machine-readable summary is appended to ``--report`` (default
``chaos_smoke_report.txt``) for CI artifact upload.
Run from the repository root with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import argparse
import os
import queue
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
sys.path.insert(0, str(SRC))

from repro.data.synthetic import mutate, random_dna  # noqa: E402
from repro.serve.client import OrisClient, QueryPoisoned  # noqa: E402

N_SUBJECTS = 16
SUBJECT_LEN = 800
N_DISTINCT_QUERIES = 12
N_SOAK = 500
N_THREADS = 8
TIMEOUT = 600.0
FAULT_SPEC = "worker.crash:0.05:1234,serve.poison_query:1.0:0:POISONQ"
BATCH_FAULT_SPEC = "worker.crash:1:0:task=0/try=0;,task.error:1:0:task=1/try=0;"
POISON_NAME = "POISONQ_seeded"

_REPORT: list[str] = []


def note(line: str) -> None:
    print(line, flush=True)
    _REPORT.append(line)


def fail(message: str) -> "NoReturn":  # noqa: F821 - py3.10 compat
    note(f"FAIL: {message}")
    raise SystemExit(1)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    return env


def build_inputs(directory: Path):
    import numpy as np

    rng = np.random.default_rng(20080611)
    subjects = [random_dna(rng, SUBJECT_LEN) for _ in range(N_SUBJECTS)]
    bank_path = directory / "bank2.fa"
    with open(bank_path, "w") as fh:
        for i, s in enumerate(subjects):
            fh.write(f">subj{i}\n{s}\n")
    queries = []
    for i in range(N_DISTINCT_QUERIES):
        src = subjects[int(rng.integers(N_SUBJECTS))]
        a = int(rng.integers(0, SUBJECT_LEN - 150))
        frag = mutate(rng, src[a : a + 150], sub_rate=0.02)
        queries.append((f"q{i}", frag))
    # The poison query: an ordinary homologous fragment -- only its
    # *name* matches the armed fault point's token.  Innocent co-batched
    # queries must still be answered when its batch blows up.
    poison = (POISON_NAME, mutate(rng, subjects[0][100:250], sub_rate=0.02))
    return bank_path, queries, poison


def reference_m8(bank_path: Path, name: str, seq: str, directory: Path) -> str:
    qpath = directory / f"ref_{name}.fa"
    qpath.write_text(f">{name}\n{seq}\n")
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", "compare", str(qpath), str(bank_path)],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=TIMEOUT,
        cwd=REPO,
    )
    if proc.returncode != 0:
        fail(f"reference compare for {name} exited {proc.returncode}: {proc.stderr}")
    return proc.stdout


def scenario_batch(directory: Path, bank_path: Path, queries, poison) -> None:
    """Parallel compare with faults armed vs a clean serial compare."""
    import json

    qpath = directory / "batch_queries.fa"
    qpath.write_text(
        "".join(f">{name}\n{seq}\n" for name, seq in [*queries, poison])
    )
    serial, faulted = directory / "serial.m8", directory / "faulted.m8"
    metrics_path = directory / "faulted_metrics.json"
    clean_env = child_env()
    clean_env.pop("SCORIS_FAULTS", None)
    runs = (
        ([], serial, clean_env),
        (
            ["--workers", "2", "--metrics", str(metrics_path)],
            faulted,
            {**clean_env, "SCORIS_FAULTS": BATCH_FAULT_SPEC},
        ),
    )
    for extra, out, env in runs:
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", str(qpath), str(bank_path),
             "-o", str(out), *extra],
            capture_output=True,
            text=True,
            env=env,
            timeout=TIMEOUT,
            cwd=REPO,
        )
        if proc.returncode != 0:
            fail(f"batch compare {extra} exited {proc.returncode}: "
                 f"{proc.stderr}")
    if not serial.read_text():
        fail("serial batch compare found no alignments: the phase is vacuous")
    if faulted.read_bytes() != serial.read_bytes():
        fail("faulted --workers 2 m8 differs from the serial run")
    counters = json.loads(metrics_path.read_text())["metrics"]["counters"]
    crashes = counters.get("scheduler.crashes", 0)
    retries = counters.get("scheduler.retries", 0)
    if crashes < 1 or retries < 1:
        fail(f"batch faults did not fire: scheduler.crashes={crashes}, "
             f"scheduler.retries={retries} (want >= 1 each)")
    note(f"batch OK: --workers 2 under {BATCH_FAULT_SPEC} byte-identical "
         f"to serial ({serial.read_text().count(chr(10))} records), "
         f"{crashes} crash(es), {retries} retr(y/ies)")


def shm_segments() -> set:
    shm = Path("/dev/shm")
    if not shm.is_dir():
        return set()
    return {p.name for p in shm.glob("scoris_*")}


def worker_pids(parent_pid: int) -> list:
    """Child pids of *parent_pid* (the daemon's pooled workers)."""
    pids = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue
        try:
            ppid = int(stat.rsplit(")", 1)[1].split()[1])
        except (IndexError, ValueError):
            continue
        if ppid == parent_pid:
            pids.append(int(entry.name))
    return pids


def start_daemon(bank_path: Path) -> tuple:
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", str(bank_path),
            "--workers", "2", "--max-delay-ms", "20", "--no-memory-check",
            "--faults", FAULT_SPEC,
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
        cwd=REPO,
    )
    assert proc.stdout is not None
    deadline = time.monotonic() + 120.0
    line = ""
    while time.monotonic() < deadline:
        line = proc.stdout.readline().strip()
        if line:
            break
        if proc.poll() is not None:
            fail(f"daemon died at startup: {proc.stderr.read()}")
    if not line.startswith("SERVE READY host="):
        fail(f"unexpected readiness line: {line!r}")
    host = line.split("host=", 1)[1].split()[0]
    port = int(line.rsplit("port=", 1)[1])
    note(f"daemon ready on {host}:{port} (pid {proc.pid}), "
         f"faults armed: {FAULT_SPEC}")
    return proc, host, port


def scenario_soak(host, port, queries, poison, references):
    """500 queries through retrying clients; one is the seeded poison."""
    jobs = [(i, *queries[i % len(queries)]) for i in range(N_SOAK - 1)]
    # Drop the poison mid-soak so it is co-batched with innocents.
    jobs.insert(N_SOAK // 2, ("poison", *poison))
    work = queue.Queue()
    for job in jobs:
        work.put(job)
    results: dict = {}
    errors: list = []
    poisoned: list = []
    lock = threading.Lock()
    retries_used = [0]

    def drone():
        # The retrying client is part of the contract under test: shed
        # responses and connection drops must be absorbed, not surfaced.
        with OrisClient(host, port, timeout=TIMEOUT, retries=5) as client:
            while True:
                try:
                    jid, name, seq = work.get_nowait()
                except queue.Empty:
                    with lock:
                        retries_used[0] += client.retries_used
                    return
                try:
                    m8 = client.query(name, seq)
                except QueryPoisoned as exc:
                    with lock:
                        poisoned.append((jid, name, exc.kind))
                except Exception as exc:  # noqa: BLE001 - collected
                    with lock:
                        errors.append((jid, name, repr(exc)))
                else:
                    with lock:
                        results[jid] = m8

    t0 = time.monotonic()
    threads = [threading.Thread(target=drone) for _ in range(N_THREADS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(TIMEOUT)
    dt = time.monotonic() - t0

    if errors:
        fail(f"soak saw non-poison client errors: {errors[:5]}")
    if poisoned != [("poison", POISON_NAME, "TaskPoisoned")]:
        fail(f"expected exactly the seeded query poisoned "
             f"(kind TaskPoisoned), got: {poisoned}")
    if len(results) != N_SOAK - 1:
        fail(f"soak answered {len(results)}/{N_SOAK - 1} innocent queries")
    for jid, name, _seq in jobs:
        if jid == "poison":
            continue
        if results[jid] != references[name]:
            fail(f"served output for {name} (job {jid}) differs from "
                 "single-shot compare")
    note(f"soak OK: {N_SOAK} requests in {dt:.1f}s ({N_SOAK / dt:.0f} rps) "
         f"under worker.crash p=0.05; every innocent answer byte-identical, "
         f"poison answered poisoned, {retries_used[0]} client retries absorbed")


def scenario_quarantine_replay(host, port, poison):
    """The poison *sequence* is quarantined, whatever it is named."""
    _name, seq = poison
    with OrisClient(host, port, timeout=TIMEOUT, retries=5) as client:
        try:
            client.query("innocent_name_same_sequence", seq)
        except QueryPoisoned:
            pass  # answered from quarantine, no batch burned
        else:
            fail("quarantined sequence was re-admitted under a new name")
        metrics = client.stats()
    counters = metrics["counters"]
    if counters.get("serve.queries_poisoned", 0) != 1:
        fail(f"queries_poisoned = {counters.get('serve.queries_poisoned')}, "
             "expected exactly 1 (the seeded poison, once)")
    if counters.get("serve.quarantine_hits", 0) < 1:
        fail("quarantine replay did not count a quarantine hit")
    if counters.get("serve.batch_bisections", 0) < 1:
        fail("the poisoned batch was never bisected")
    note(f"quarantine OK: poisoned exactly once, "
         f"{counters['serve.quarantine_hits']} replay(s) answered from "
         f"quarantine, {counters['serve.batch_bisections']} bisection(s)")


def scenario_health(host, port):
    with OrisClient(host, port, timeout=TIMEOUT) as client:
        health = client.health()
    if not health.get("healthy"):
        fail(f"daemon unhealthy after the soak: {health}")
    comp = health["components"]
    if comp["admission"]["in_flight"] != 0:
        fail(f"admission slots leaked: {comp['admission']['in_flight']} "
             "in flight with the soak finished")
    respawns = comp["pool"]["respawns"]
    if respawns < 1:
        fail("worker.crash at p=0.05 over 500 queries produced no respawn "
             "-- the fault hook or the respawn path is dead")
    if comp["pool"]["alive"] != comp["pool"]["pooled"]:
        fail(f"dead pooled workers at end of soak: {comp['pool']}")
    note(f"health OK: all components ok, 0 slots in flight, "
         f"{respawns} worker respawn(s), "
         f"{comp['pool']['replacements']} pool replacement(s)")


def scenario_exit(proc, workers_before_exit):
    proc.send_signal(signal.SIGTERM)
    try:
        code = proc.wait(timeout=60.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        fail("daemon did not exit within 60s of SIGTERM")
    if code != 0:
        fail(f"daemon exited {code} after graceful drain (expected 0)")
    deadline = time.monotonic() + 15.0
    survivors = list(workers_before_exit)
    while survivors and time.monotonic() < deadline:
        survivors = [pid for pid in survivors if Path(f"/proc/{pid}").exists()]
        if survivors:
            time.sleep(0.25)
    if survivors:
        fail(f"worker processes outlived the daemon: {survivors}")
    note("exit OK: SIGTERM -> exit 0, no surviving workers")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--report", default="chaos_smoke_report.txt")
    args = parser.parse_args()

    before_shm = shm_segments()
    with tempfile.TemporaryDirectory(prefix="scoris_chaos_smoke_") as tmp:
        directory = Path(tmp)
        bank_path, queries, poison = build_inputs(directory)
        note(f"bank: {N_SUBJECTS} x {SUBJECT_LEN} nt; "
             f"{len(queries)} distinct queries + 1 poison query "
             f"({POISON_NAME})")
        references = {
            name: reference_m8(bank_path, name, seq, directory)
            for name, seq in queries
        }
        note(f"references built: "
             f"{sum(r.count(chr(10)) for r in references.values())} "
             "m8 records across the query set")
        scenario_batch(directory, bank_path, queries, poison)

        proc, host, port = start_daemon(bank_path)
        try:
            scenario_soak(host, port, queries, poison, references)
            scenario_quarantine_replay(host, port, poison)
            scenario_health(host, port)
            workers_before_exit = worker_pids(proc.pid)
            scenario_exit(proc, workers_before_exit)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        leaked_shm = shm_segments() - before_shm
        if leaked_shm:
            fail(f"leaked /dev/shm segments: {sorted(leaked_shm)}")
        note("leak checks OK: 0 shm segments, 0 orphaned workers")

    note("CHAOS SMOKE PASSED")
    Path(args.report).write_text("\n".join(_REPORT) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
