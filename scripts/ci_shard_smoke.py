#!/usr/bin/env python
"""CI smoke test: the sharded scatter-gather fleet, end to end, across
real process boundaries.

Scenarios (all against one ``scoris-n serve-fleet`` deployment of three
shard daemons plus a router, and one single-daemon reference):

  1. **Byte identity** — every golden-corpus query answered by the
     fleet must be *byte-identical* to the single daemon's answer over
     the uncut bank.  This is the fleet's entire contract: the seams
     are invisible.
  2. **Shard kill mid-soak** — while a query soak is running, one
     shard daemon is SIGKILLed.  The manager must respawn it, the
     router's health must return to all-ok, queries during the outage
     must either succeed (other shards survived the gather window) or
     fail *loudly* with a structured partial-result error -- never a
     silently truncated result -- and post-recovery answers must again
     be byte-identical.
  3. **Protocol abuse** — the router and the single daemon share one
     socket frontend, so each is sent an unknown request ``type``,
     queries with ``timeout_s: Infinity`` and ``timeout_s: 1e300``, a
     query whose name holds a tab, and a malformed frame.  Every one
     must get a structured ``error`` reply (no traceback, no raw
     exception repr), and both must then still answer a golden query
     byte-identically, also under the client names ``#q``, `` q`` and
     the empty name (names reach the m8 verbatim, so the router's merge
     must not read them as comments or strip them).
  4. **Leaks** — after the fleet exits: no ``/dev/shm/scoris_*``
     segment, no surviving shard or worker process.

Before the daemons start, a **batch phase** checks the same tiling in
the one-shot CLI: ``scoris-n`` under a ``--memory-budget`` tight enough
to degrade to several subject tiles must write an m8 byte-identical to
the run without a budget.

Exit status 0 on success; non-zero with a diagnostic otherwise.  A
machine-readable summary is appended to ``--report`` (default
``shard_smoke_report.txt``) for CI artifact upload.
Run from the repository root with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import socket
import struct
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from repro.data.synthetic import mutate, random_dna  # noqa: E402
from repro.runtime.governor import (  # noqa: E402
    BASELINE_BYTES,
    estimate_index_bytes,
)
from repro.serve.client import (  # noqa: E402
    OrisClient,
    QueryFailed,
    ServerShed,
    ServiceError,
)
from repro.serve.protocol import recv_frame, send_frame  # noqa: E402

CHROM_NT = 30_000
CORE_NT = 300
N_SHARDS = 3
MAX_QUERY_NT = 600
SOAK_SECONDS = 12.0
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
    """A seam-heavy bank (repeated core motif through one long sequence)
    and a query set that includes seam-straddling fragments."""
    rng = np.random.default_rng(20080612)
    core = random_dna(rng, CORE_NT)
    parts, pos = [], 0
    while pos < CHROM_NT:
        fill = random_dna(rng, int(rng.integers(500, 1500)))
        parts.append(fill)
        pos += len(fill)
        hit = mutate(rng, core, sub_rate=0.02, indel_rate=0.0)
        parts.append(hit)
        pos += len(hit)
    chrom = "".join(parts)
    bank_path = directory / "bank2.fa"
    with open(bank_path, "w") as fh:
        fh.write(f">chrA\n{chrom}\n")
        fh.write(f">short1\n{random_dna(rng, 800)}\n")
        fh.write(f">short2\n{mutate(rng, core, sub_rate=0.03, indel_rate=0.0)}\n")
    queries = [("qcore", core)]
    for start in range(1_000, len(chrom) - 600, 3_500):
        frag = mutate(rng, chrom[start : start + 450],
                      sub_rate=0.03, indel_rate=0.0)
        queries.append((f"q{start}", frag))
    return bank_path, queries


def scenario_batch_tiled(bank_path: Path, queries, directory: Path) -> None:
    """The memory-budget fallback runs the fleet's tiling: exact output."""
    query_path = directory / "queries.fa"
    with open(query_path, "w") as fh:
        for name, seq in queries:
            fh.write(f">{name}\n{seq}\n")
    query_nt = sum(len(seq) for _, seq in queries)
    # Room for the query index plus a tile smaller than the subject bank.
    budget = BASELINE_BYTES + estimate_index_bytes(query_nt + 25_000)

    def scoris(*extra: str) -> subprocess.CompletedProcess:
        return subprocess.run(
            [sys.executable, "-m", "repro.cli", str(query_path),
             str(bank_path), *extra],
            capture_output=True, text=True, env=child_env(), cwd=REPO,
            timeout=TIMEOUT,
        )

    ref_path, tiled_path = directory / "batch_ref.m8", directory / "batch_tiled.m8"
    ref = scoris("-o", str(ref_path))
    if ref.returncode != 0:
        fail(f"batch reference run exited {ref.returncode}: {ref.stderr}")
    tiled = scoris("--memory-budget", str(budget), "--stats",
                   "-o", str(tiled_path))
    if tiled.returncode != 0:
        fail(f"batch tiled run exited {tiled.returncode}: {tiled.stderr}")
    if "mode=tiled" not in tiled.stderr:
        fail(f"budget {budget} did not degrade to tiling: {tiled.stderr}")
    n_tiles = next(
        int(word[len("tiles="):])
        for word in tiled.stderr.split()
        if word.startswith("tiles=")
    )
    if n_tiles < 2:
        fail(f"tiled batch run used {n_tiles} tile(s); expected several")
    if tiled_path.read_bytes() != ref_path.read_bytes():
        fail("tiled batch m8 differs from the run without a budget")
    note(f"batch tiling OK: {n_tiles} tiles under a {budget}-byte budget, "
         f"m8 byte-identical to the untiled run "
         f"({len(ref_path.read_bytes())} bytes)")


def read_announce(path: Path, proc: subprocess.Popen, deadline: float):
    while time.monotonic() < deadline:
        if proc.poll() is not None:
            err = proc.stderr.read() if proc.stderr else ""
            fail(f"process exited {proc.returncode} before announcing: {err}")
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            time.sleep(0.05)
            continue
        if data.get("pid") == proc.pid:
            return data
        time.sleep(0.05)
    fail(f"no announce file at {path} within the deadline")


def start_single(bank_path: Path, directory: Path):
    announce = directory / "single.announce.json"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve", str(bank_path),
            "--workers", "1", "--no-memory-check",
            "--announce-file", str(announce),
        ],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        env=child_env(), cwd=REPO,
    )
    info = read_announce(announce, proc, time.monotonic() + 120.0)
    note(f"single daemon ready on {info['host']}:{info['port']} "
         f"(pid {proc.pid})")
    return proc, info["host"], int(info["port"])


def start_fleet(bank_path: Path, directory: Path):
    announce = directory / "fleet.announce.json"
    work_dir = directory / "fleet_work"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro.cli", "serve-fleet", str(bank_path),
            "--shards", str(N_SHARDS), "--workers-per-shard", "1",
            "--max-query-nt", str(MAX_QUERY_NT),
            "--work-dir", str(work_dir),
            "--announce-file", str(announce),
        ],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        env=child_env(), cwd=REPO,
    )
    info = read_announce(announce, proc, time.monotonic() + 240.0)
    note(f"fleet router ready on {info['host']}:{info['port']} "
         f"(pid {proc.pid}, work dir {work_dir})")
    return proc, info["host"], int(info["port"]), work_dir


def fleet_health(host: str, port: int) -> dict:
    with OrisClient(host, port, timeout=30.0, retries=0) as client:
        return client.health()


def shard_pids(work_dir: Path) -> dict[int, int]:
    """Live shard pids, read from the manager's announce files."""
    pids = {}
    for path in sorted(work_dir.glob("shard*.announce.json")):
        try:
            data = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        pid = data.get("pid")
        if pid is not None and Path(f"/proc/{pid}").exists():
            shard_id = int(path.name[len("shard"):len("shard") + 3])
            pids[shard_id] = pid
    return pids


def shm_segments() -> set:
    shm = Path("/dev/shm")
    if not shm.is_dir():
        return set()
    return {p.name for p in shm.glob("scoris_*")}


def descendant_pids(root_pid: int) -> list[int]:
    """All live descendants of *root_pid* (shards, workers, trackers)."""
    children: dict[int, list[int]] = {}
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit():
            continue
        try:
            stat = (entry / "stat").read_text()
            ppid = int(stat.rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(entry.name))
    out, frontier = [], [root_pid]
    while frontier:
        pid = frontier.pop()
        for child in children.get(pid, []):
            out.append(child)
            frontier.append(child)
    return out


def scenario_byte_identity(single, fleet, queries) -> None:
    shost, sport = single
    fhost, fport = fleet
    with OrisClient(shost, sport, timeout=TIMEOUT) as ref_client, \
         OrisClient(fhost, fport, timeout=TIMEOUT) as fleet_client:
        n_bytes = 0
        for name, seq in queries:
            ref = ref_client.query(name, seq)
            got = fleet_client.query(name, seq)
            if got != ref:
                for a, b in zip(got.splitlines(), ref.splitlines()):
                    if a != b:
                        note(f"  fleet : {a}")
                        note(f"  single: {b}")
                        break
                fail(f"fleet output for {name} differs from single daemon")
            n_bytes += len(ref)
    note(f"byte identity OK: {len(queries)} golden queries, {n_bytes} "
         f"bytes, fleet == single daemon exactly")


def abuse_replies(host: str, port: int, seq: str) -> list[tuple[str, dict]]:
    """Send the four abusive requests, each on its own connection."""
    replies = []
    for label, request in (
        ("unknown type", {"type": "bogus"}),
        ("timeout_s Infinity",
         {"type": "query", "name": "qinf", "sequence": seq,
          "timeout_s": float("inf")}),
        ("timeout_s 1e300",
         {"type": "query", "name": "qhuge", "sequence": seq,
          "timeout_s": 1e300}),
        ("tab in name",
         {"type": "query", "name": "q\tx", "sequence": seq}),
    ):
        with socket.create_connection((host, port), timeout=60.0) as sock:
            send_frame(sock, request)
            replies.append((label, recv_frame(sock)))
    with socket.create_connection((host, port), timeout=60.0) as sock:
        body = b"{not json"
        sock.sendall(struct.pack("!I", len(body)) + body)
        replies.append(("malformed frame", recv_frame(sock)))
        if recv_frame(sock) is not None:
            fail(f"{host}:{port} kept a connection open after a malformed "
                 "frame")
    return replies


def scenario_protocol_abuse(single, fleet, queries) -> None:
    name, seq = queries[0]
    for label, (host, port) in (("router", fleet), ("daemon", single)):
        for what, reply in abuse_replies(host, port, seq):
            error = reply.get("error") if isinstance(reply, dict) else None
            if reply is None or reply.get("status") != "error" or not (
                isinstance(error, str) and error
            ):
                fail(f"{label} answered {what} with {reply!r}, not a "
                     "structured error")
            if "Traceback" in error or "Error(" in error:
                fail(f"{label} leaked an exception for {what}: {error}")
    with OrisClient(*single, timeout=TIMEOUT) as ref_client, \
         OrisClient(*fleet, timeout=TIMEOUT) as fleet_client:
        for qname in (name, "#q", " q", ""):
            if fleet_client.query(qname, seq) != ref_client.query(qname, seq):
                fail("after protocol abuse the fleet and the daemon "
                     f"disagree on query name {qname!r}")
    note("protocol abuse OK: unknown type, timeout_s Infinity/1e300, a "
         "tab in a name and a malformed frame got structured errors from "
         "router and daemon; both still answer byte-identically, '#q', "
         "' q' and '' names included")


def scenario_shard_kill(fleet, work_dir: Path, queries) -> None:
    fhost, fport = fleet
    before = shard_pids(work_dir)
    if len(before) != N_SHARDS:
        fail(f"expected {N_SHARDS} live shards before the kill, "
             f"saw {sorted(before)}")

    stop = threading.Event()
    outcomes = {"ok": 0, "partial": 0, "shed": 0, "other": []}
    lock = threading.Lock()

    def soak():
        i = 0
        with OrisClient(fhost, fport, timeout=TIMEOUT, retries=0) as client:
            while not stop.is_set():
                name, seq = queries[i % len(queries)]
                i += 1
                try:
                    client.query(name, seq)
                    with lock:
                        outcomes["ok"] += 1
                except QueryFailed as exc:
                    # the *only* acceptable failure: a structured
                    # partial-result refusal, never a truncated answer
                    if "partial result refused" in str(exc):
                        with lock:
                            outcomes["partial"] += 1
                    else:
                        with lock:
                            outcomes["other"].append(repr(exc))
                except ServerShed:
                    with lock:
                        outcomes["shed"] += 1
                except (ServiceError, ConnectionError, OSError) as exc:
                    with lock:
                        outcomes["other"].append(repr(exc))

    threads = [threading.Thread(target=soak) for _ in range(2)]
    t0 = time.monotonic()
    for t in threads:
        t.start()
    time.sleep(SOAK_SECONDS / 4)

    victim_id, victim_pid = sorted(before.items())[1]
    os.kill(victim_pid, signal.SIGKILL)
    note(f"SIGKILLed shard {victim_id} (pid {victim_pid}) mid-soak")

    # The manager must respawn it: a new pid announces for the shard.
    deadline = time.monotonic() + 120.0
    respawned = None
    while time.monotonic() < deadline:
        now = shard_pids(work_dir)
        if victim_id in now and now[victim_id] != victim_pid:
            respawned = now[victim_id]
            break
        time.sleep(0.2)
    if respawned is None:
        stop.set()
        fail(f"shard {victim_id} was not respawned within the deadline")
    note(f"shard {victim_id} respawned as pid {respawned}")

    # Health must return to all-ok.
    deadline = time.monotonic() + 60.0
    healthy = False
    while time.monotonic() < deadline:
        h = fleet_health(fhost, fport)
        if h.get("healthy"):
            healthy = True
            break
        time.sleep(0.5)
    if not healthy:
        stop.set()
        fail(f"fleet health did not return to all-ok after respawn: {h}")

    while time.monotonic() - t0 < SOAK_SECONDS:
        time.sleep(0.1)
    stop.set()
    for t in threads:
        t.join(TIMEOUT)

    if outcomes["other"]:
        fail(f"soak saw non-structured failures: {outcomes['other'][:5]}")
    if outcomes["ok"] == 0:
        fail("soak completed zero successful queries")
    note(f"shard-kill OK: {outcomes['ok']} ok, {outcomes['partial']} "
         f"loud partial-result refusals, {outcomes['shed']} sheds, "
         f"0 silent truncations; health all-ok after respawn")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--report", default="shard_smoke_report.txt")
    args = parser.parse_args()

    before_shm = shm_segments()
    with tempfile.TemporaryDirectory(prefix="scoris_shard_smoke_") as tmp:
        directory = Path(tmp)
        bank_path, queries = build_inputs(directory)
        note(f"bank: seam-heavy chrA ~{CHROM_NT} nt + 2 short sequences; "
             f"{len(queries)} golden queries (seam-straddling fragments)")
        scenario_batch_tiled(bank_path, queries, directory)

        single_proc, shost, sport = start_single(bank_path, directory)
        fleet_proc, fhost, fport, work_dir = start_fleet(bank_path, directory)
        fleet_desc = []
        try:
            h = fleet_health(fhost, fport)
            if not h.get("healthy") or h.get("n_shards") != N_SHARDS:
                fail(f"fleet not healthy at start: {h}")
            note(f"fleet health OK: {h['n_shards']} shards all ready")

            scenario_byte_identity((shost, sport), (fhost, fport), queries)
            scenario_protocol_abuse((shost, sport), (fhost, fport), queries)
            scenario_shard_kill((fhost, fport), work_dir, queries)
            # Post-recovery the seams must still be invisible.
            scenario_byte_identity((shost, sport), (fhost, fport), queries)

            fleet_desc = descendant_pids(fleet_proc.pid)
            fleet_proc.send_signal(signal.SIGTERM)
            try:
                code = fleet_proc.wait(timeout=90.0)
            except subprocess.TimeoutExpired:
                fleet_proc.kill()
                fail("fleet did not exit within 90s of SIGTERM")
            if code != 0:
                fail(f"fleet exited {code} after SIGTERM (expected 0)")
            note("fleet drained and exited 0 on SIGTERM")
        finally:
            for proc in (fleet_proc, single_proc):
                if proc.poll() is None:
                    proc.terminate()
                    try:
                        proc.wait(timeout=30)
                    except subprocess.TimeoutExpired:
                        proc.kill()
                        proc.wait()

        # Leak checks: nothing outlives the fleet.
        leaked = shm_segments() - before_shm
        if leaked:
            fail(f"leaked /dev/shm segments: {sorted(leaked)}")
        deadline = time.monotonic() + 20.0
        survivors = list(fleet_desc)
        while survivors and time.monotonic() < deadline:
            survivors = [p for p in survivors if Path(f"/proc/{p}").exists()]
            if survivors:
                time.sleep(0.25)
        if survivors:
            fail(f"fleet descendants outlived the router: {survivors}")
        note("leak checks OK: 0 shm segments, 0 surviving shard/worker "
             "processes")

    note("SHARD SMOKE PASSED")
    Path(args.report).write_text("\n".join(_REPORT) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
