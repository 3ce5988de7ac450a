#!/usr/bin/env python
"""CI smoke test: the resident query daemon, end to end, across real
process boundaries.

Scenarios (all against one ``scoris-n serve`` subprocess):

  1. **Correctness under concurrency** — 50 queries from 8 client
     threads; every response must be byte-identical to a single-shot
     ``scoris-n compare`` of that query against the same bank (run as
     its own subprocess, so the reference can share nothing with the
     daemon), and the daemon's ``stats`` must show a batch of at least
     two queries (step 3's kernel ran over a merged batch).
  2. **Soak** — 1000 further requests from 8 threads.  The daemon must
     answer every one, keep exactly ``--workers`` persistent worker
     processes (no per-batch spawn/leak), and report sane service
     metrics (accepted counter, queue-depth gauge, batch histograms).
  3. **Graceful drain** — SIGTERM lands while a large query is in
     flight.  The in-flight query must complete (byte-identical to its
     reference), later queries must be refused with a clean
     ``draining`` status or a closed connection -- never a hang or a
     traceback -- and the daemon must exit 0.

After the daemon exits: no ``/dev/shm/scoris_*`` segment may remain
and no worker process may outlive its parent.

Exit status 0 on success; non-zero with a diagnostic otherwise.  A
machine-readable summary is appended to ``--report`` (default
``serve_smoke_report.txt``) for CI artifact upload.
Run from the repository root with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import signal
import socket
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
from repro.serve.client import (  # noqa: E402
    OrisClient,
    ProtocolError,
    ServerDraining,
    ServerShed,
    ServiceError,
)

N_SUBJECTS = 16
SUBJECT_LEN = 800
N_DISTINCT_QUERIES = 12
N_CONCURRENT = 50
N_THREADS = 8
N_SOAK = 1000
TIMEOUT = 600.0

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
    # The drain scenario's deliberately expensive query: lots of real
    # homology, so its batch takes long enough to straddle a SIGTERM.
    big = "".join(
        subjects[i % N_SUBJECTS][j : j + 400]
        for i, j in enumerate(range(0, 200, 50))
        for _ in range(8)
    )
    return bank_path, queries, ("qbig", big)


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
        # field 4 of /proc/<pid>/stat (after the parenthesised comm)
        try:
            ppid = int(stat.rsplit(")", 1)[1].split()[1])
        except (IndexError, ValueError):
            continue
        if ppid == parent_pid:
            pids.append(int(entry.name))
    return pids


def start_daemon(bank_path: Path) -> tuple:
    # Readiness comes from --announce-file, not stdout scraping: the
    # daemon atomically writes {host, port, pid} once the socket is
    # bound, and the pid field rejects a stale file from a previous run.
    announce = bank_path.parent / "daemon.announce.json"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", str(bank_path),
            "--workers", "2", "--max-delay-ms", "20", "--no-memory-check",
            "--announce-file", str(announce),
        ],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
        cwd=REPO,
    )
    deadline = time.monotonic() + 120.0
    info = None
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            fail(f"daemon died at startup: {proc.stderr.read()}")
        try:
            data = json.loads(announce.read_text())
        except (OSError, json.JSONDecodeError):
            time.sleep(0.05)
            continue
        if data.get("pid") == proc.pid:
            info = data
            break
        time.sleep(0.05)
    if info is None:
        fail("daemon never wrote its announce file")
    host, port = info["host"], int(info["port"])
    note(f"daemon ready on {host}:{port} (pid {proc.pid}, via announce file)")
    return proc, host, port


def run_clients(host, port, jobs, n_threads):
    """Fan *jobs* out over *n_threads*; returns (results, errors)."""
    work = queue.Queue()
    for job in jobs:
        work.put(job)
    results: dict = {}
    errors: list = []
    lock = threading.Lock()

    def drone():
        with OrisClient(host, port, timeout=TIMEOUT) as client:
            while True:
                try:
                    jid, name, seq = work.get_nowait()
                except queue.Empty:
                    return
                try:
                    m8 = client.query(name, seq)
                except Exception as exc:  # noqa: BLE001 - collected
                    with lock:
                        errors.append((jid, repr(exc)))
                else:
                    with lock:
                        results[jid] = m8

    threads = [threading.Thread(target=drone) for _ in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(TIMEOUT)
    return results, errors


def scenario_concurrent(host, port, queries, references):
    jobs = [
        (i, *queries[i % len(queries)]) for i in range(N_CONCURRENT)
    ]
    results, errors = run_clients(host, port, jobs, N_THREADS)
    if errors:
        fail(f"concurrent scenario saw client errors: {errors[:5]}")
    if len(results) != N_CONCURRENT:
        fail(f"only {len(results)}/{N_CONCURRENT} queries answered")
    for jid, name, _seq in jobs:
        if results[jid] != references[name]:
            fail(f"served output for {name} (job {jid}) differs from compare")
    # The answers must have come through the merged step-3 path: some
    # batch held more than one query, so its gapped kernel ran over
    # several queries' lanes at once.
    with OrisClient(host, port, timeout=30.0) as client:
        sizes = client.stats()["histograms"].get("serve.batch_size", {})
    largest = sizes.get("max") or 0
    if largest < 2:
        fail(f"no batch held 2 or more queries (largest {largest}): the "
             "merged step-3 path never ran")
    note(f"concurrent OK: {N_CONCURRENT} queries on {N_THREADS} threads, "
         f"all byte-identical to single-shot compare (largest batch "
         f"{largest:.0f} queries)")


def scenario_soak(host, port, queries, daemon_pid, children_baseline):
    jobs = [(i, *queries[i % len(queries)]) for i in range(N_SOAK)]
    t0 = time.monotonic()
    results, errors = run_clients(host, port, jobs, N_THREADS)
    dt = time.monotonic() - t0
    if errors:
        fail(f"soak saw client errors: {errors[:5]}")
    if len(results) != N_SOAK:
        fail(f"soak answered {len(results)}/{N_SOAK}")
    # The worker pool is persistent: the daemon's child set (2 workers
    # plus multiprocessing bookkeeping) must not grow across 1k requests.
    workers = set(worker_pids(daemon_pid))
    if workers != children_baseline:
        fail(f"daemon children changed across the soak: "
             f"{sorted(children_baseline)} -> {sorted(workers)}")
    with OrisClient(host, port, timeout=30.0) as client:
        metrics = client.stats()
    accepted = metrics["counters"].get("serve.requests_accepted", 0)
    batches = metrics["counters"].get("serve.batches", 0)
    if accepted < N_SOAK:
        fail(f"accepted counter {accepted} < soak volume {N_SOAK}")
    if "serve.queue_depth" not in metrics["gauges"]:
        fail("queue-depth gauge missing from service metrics")
    for h in ("serve.batch_size", "serve.batch_latency_seconds",
              "serve.request_wait_seconds"):
        if metrics["histograms"].get(h, {}).get("count", 0) < 1:
            fail(f"histogram {h} missing or empty")
    note(f"soak OK: {N_SOAK} requests in {dt:.1f}s "
         f"({N_SOAK / dt:.0f} rps), {batches} batches, "
         f"{len(workers)} persistent children (no per-batch spawn)")


def scenario_drain(proc, host, port, big_query, big_reference):
    name, seq = big_query
    inflight: dict = {}

    def send_big():
        try:
            with OrisClient(host, port, timeout=TIMEOUT) as client:
                inflight["m8"] = client.query(name, seq, timeout_s=TIMEOUT)
        except Exception as exc:  # noqa: BLE001 - inspected below
            inflight["error"] = repr(exc)

    t = threading.Thread(target=send_big)
    t.start()
    time.sleep(0.3)  # let the big query's batch start RUNNING
    proc.send_signal(signal.SIGTERM)
    # Queries arriving after SIGTERM must be refused cleanly.
    refused = 0
    for _ in range(5):
        try:
            with OrisClient(host, port, timeout=10.0) as client:
                client.query("late", "ACGT" * 30)
        except (ServerDraining, ServerShed) as exc:
            refused += 1
            note(f"  late query refused cleanly: {type(exc).__name__}")
        except (ConnectionError, ProtocolError, OSError, ServiceError):
            refused += 1  # listener already closed: equally clean
        else:
            fail("a query was admitted after SIGTERM began the drain")
        time.sleep(0.05)
    t.join(TIMEOUT)
    if "m8" not in inflight:
        fail(f"in-flight query did not complete through the drain: "
             f"{inflight.get('error', 'no response')}")
    if inflight["m8"] != big_reference:
        fail("in-flight query's drained response differs from compare")
    try:
        code = proc.wait(timeout=60.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        fail("daemon did not exit within 60s of SIGTERM")
    if code != 0:
        fail(f"daemon exited {code} after graceful drain (expected 0)")
    note(f"drain OK: in-flight query completed byte-identical, "
         f"{refused}/5 late queries refused cleanly, exit 0")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--report", default="serve_smoke_report.txt")
    args = parser.parse_args()

    before_shm = shm_segments()
    with tempfile.TemporaryDirectory(prefix="scoris_serve_smoke_") as tmp:
        directory = Path(tmp)
        bank_path, queries, big_query = build_inputs(directory)
        note(f"bank: {N_SUBJECTS} x {SUBJECT_LEN} nt; "
             f"{len(queries)} distinct queries + 1 large drain query "
             f"({len(big_query[1])} nt)")
        references = {
            name: reference_m8(bank_path, name, seq, directory)
            for name, seq in queries
        }
        big_reference = reference_m8(bank_path, *big_query, directory)
        n_records = sum(r.count("\n") for r in references.values())
        note(f"references built: {n_records} m8 records across the query set")

        proc, host, port = start_daemon(bank_path)
        try:
            scenario_concurrent(host, port, queries, references)
            children_baseline = set(worker_pids(proc.pid))
            scenario_soak(host, port, queries, proc.pid, children_baseline)
            workers_before_exit = worker_pids(proc.pid)
            scenario_drain(proc, host, port, big_query, big_reference)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()

        # Leak checks: nothing outlives the daemon.
        leaked_shm = shm_segments() - before_shm
        if leaked_shm:
            fail(f"leaked /dev/shm segments: {sorted(leaked_shm)}")
        # Workers (and the multiprocessing resource tracker) notice the
        # parent's death asynchronously; give them a bounded grace period.
        deadline = time.monotonic() + 15.0
        survivors = list(workers_before_exit)
        while survivors and time.monotonic() < deadline:
            survivors = [pid for pid in survivors
                         if Path(f"/proc/{pid}").exists()]
            if survivors:
                time.sleep(0.25)
        if survivors:
            fail(f"worker processes outlived the daemon: {survivors}")
        note("leak checks OK: 0 shm segments, 0 orphaned workers")

    note("SERVE SMOKE PASSED")
    Path(args.report).write_text("\n".join(_REPORT) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
