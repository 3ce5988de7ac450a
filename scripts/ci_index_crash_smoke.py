#!/usr/bin/env python
"""CI smoke test: the crash-safe segment store, kill-tested for real.

Phase 1 — **SIGKILL roulette**.  A child process mutates a segment
store in a seeded op loop (add / remove / flush / compact, one durable
op at a time).  The parent SIGKILLs it at a randomized delay, reopens
the store, and requires (a) a consistent manifest generation, (b) the
merged view byte-identical to a cold full rebuild of the same logical
bank, and (c) no ``*.tmp`` debris surviving the janitor.  Repeated for
``--rounds`` rounds, each killing at a different point.

Phase 2 — **armed faults**.  The same op loop with each of the
deterministic fault points (``index.wal_truncate``,
``index.compact_crash``, ``index.manifest_torn``) armed at
probability 1.  The child must fail *cleanly* (StoreFailed, not a
traceback crash or corruption), and recovery must again be exact.

Phase 3 — **live mutation under a daemon**.  ``scoris-n serve --store``
seeds a store and serves it; concurrent client threads hammer queries
while ``scoris-n add-sequences`` grows the bank mid-stream.  Zero
queries may be refused, and every answer must be byte-identical to a
single-shot ``scoris-n compare`` against one of the bank generations
that could have served it.  SIGTERM must exit 0.

After everything: no ``/dev/shm/scoris_*`` segment and no temp file may
remain, and the store must reopen cleanly one last time.

Exit status 0 on success; non-zero with a diagnostic otherwise.  A
machine-readable summary is appended to ``--report`` (default
``index_crash_smoke_report.txt``) for CI artifact upload.
Run from the repository root with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import argparse
import os
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

W = 8
FILTER = "dust"
CHILD_EXIT_STOREFAILED = 7
TIMEOUT = 600.0

_REPORT: list[str] = []


def note(line: str) -> None:
    print(line, flush=True)
    _REPORT.append(line)


def fail(message: str) -> "NoReturn":  # noqa: F821 - py3.10 compat
    note(f"FAIL: {message}")
    raise SystemExit(1)


def child_env(**extra: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p
    )
    env.update(extra)
    return env


def shm_segments() -> set:
    shm = Path("/dev/shm")
    if not shm.is_dir():
        return set()
    return {p.name for p in shm.glob("scoris_*")}


# --------------------------------------------------------------------------
# Child op loop (run as: ci_index_crash_smoke.py --child STORE_DIR SEED)
# --------------------------------------------------------------------------

def run_child(store_dir: Path, seed: int) -> int:
    """Mutate the store forever; the parent decides when we die."""
    import numpy as np

    from repro.data.synthetic import random_dna
    from repro.index import SegmentStore, StoreFailed

    rng = np.random.default_rng(seed)
    counter = 0
    try:
        store = SegmentStore.open_or_create(store_dir, w=W, filter_kind=FILTER)
    except StoreFailed as exc:
        print(f"storefailed: {exc}", flush=True)
        return CHILD_EXIT_STOREFAILED
    try:
        while True:
            roll = rng.random()
            if roll < 0.55 or store.n_sequences < 3:
                counter += 1
                name = f"seq_{seed}_{counter}_{int(rng.integers(1 << 30))}"
                store.add_many([(name, random_dna(rng, int(rng.integers(120, 500))))])
            elif roll < 0.75:
                names = store.names()
                store.remove_many([names[int(rng.integers(len(names)))]])
            elif roll < 0.92:
                store.flush()
            else:
                store.compact()
            print(f"op {counter}", flush=True)
    except StoreFailed as exc:
        print(f"storefailed: {exc}", flush=True)
        return CHILD_EXIT_STOREFAILED
    finally:
        store.close()


# --------------------------------------------------------------------------
# Recovery verification
# --------------------------------------------------------------------------

def verify_recovery(store_dir: Path, context: str) -> dict:
    """Reopen the store and require exact, debris-free recovery."""
    import numpy as np

    from repro.filters import make_filter_mask
    from repro.index import SegmentStore
    from repro.index.seed_index import CsrSeedIndex
    from repro.io.bank import Bank

    try:
        store = SegmentStore.open(store_dir, expect_w=W, expect_filter=FILTER)
    except FileNotFoundError:
        # Killed before the very first manifest became durable: an empty
        # directory (or a bare WAL with no manifest) is a legal crash
        # state -- create() must be able to start over on it.
        SegmentStore.create(store_dir, w=W, filter_kind=FILTER).close()
        store = SegmentStore.open(store_dir, expect_w=W, expect_filter=FILTER)
    except Exception as exc:  # noqa: BLE001 - any failure here is the bug
        fail(f"{context}: store did not reopen: {type(exc).__name__}: {exc}")
    with store:
        health = store.health()
        if not health["ok"]:
            fail(f"{context}: reopened store reports unhealthy: {health}")
        if store.n_sequences:
            merged_bank, merged_index = store.merged()
            records = store.logical_records()
            want_bank = Bank([n for n, _ in records], [a for _, a in records])
            want_index = CsrSeedIndex(
                want_bank, W, make_filter_mask(want_bank, FILTER)
            )
            if merged_bank.names != want_bank.names or not np.array_equal(
                merged_bank.seq, want_bank.seq
            ):
                fail(f"{context}: merged bank differs from cold rebuild")
            for field in CsrSeedIndex.ARRAY_FIELDS:
                got = getattr(merged_index, field)
                want = getattr(want_index, field)
                if got.dtype != want.dtype or not np.array_equal(got, want):
                    fail(
                        f"{context}: merged index field {field} not "
                        f"byte-identical to cold rebuild"
                    )
        leftovers = sorted(p.name for p in store_dir.glob("*.tmp"))
        if leftovers:
            fail(f"{context}: temp debris survived recovery: {leftovers}")
        return health


def one_crash_round(store_dir: Path, seed: int, delay: float) -> dict:
    proc = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()), "--child",
         str(store_dir), str(seed)],
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
        cwd=REPO,
    )
    time.sleep(delay)
    proc.kill()
    proc.wait(timeout=30)
    return verify_recovery(store_dir, f"round seed={seed} delay={delay:.3f}s")


def one_fault_round(store_dir: Path, seed: int, point: str) -> None:
    # Seed the store fault-free first: the fault must land on a *live*
    # store's mutation path, not on initialisation.
    from repro.data.synthetic import random_dna
    import numpy as np

    rng = np.random.default_rng(seed)
    from repro.index import SegmentStore

    with SegmentStore.create(store_dir, w=W, filter_kind=FILTER) as seeded:
        seeded.add_many(
            [(f"base{i}", random_dna(rng, 300)) for i in range(4)]
        )
        seeded.flush()
    spec = f"{point}:1.0:{seed}"
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child",
         str(store_dir), str(seed)],
        capture_output=True,
        text=True,
        env=child_env(SCORIS_FAULTS=spec),
        cwd=REPO,
        timeout=TIMEOUT,
    )
    if proc.returncode != CHILD_EXIT_STOREFAILED:
        fail(
            f"fault {point}: child exited {proc.returncode} "
            f"(wanted clean StoreFailed={CHILD_EXIT_STOREFAILED}); "
            f"stderr: {proc.stderr[-500:]}"
        )
    health = verify_recovery(store_dir, f"fault {point}")
    note(
        f"ok: fault {point} -> clean StoreFailed, exact recovery "
        f"(generation={health['generation']}, n={health['n_sequences']})"
    )


# --------------------------------------------------------------------------
# Phase 3: live daemon mutation
# --------------------------------------------------------------------------

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


def daemon_phase(workdir: Path) -> None:
    import numpy as np

    from repro.data.synthetic import random_dna
    from repro.index import SegmentStore
    from repro.serve.client import OrisClient

    rng = np.random.default_rng(20080611)
    subjects = {f"subj{i}": random_dna(rng, 700) for i in range(12)}
    added = {f"grown{i}": random_dna(rng, 700) for i in range(4)}

    seed_fa = workdir / "seed_bank.fa"
    seed_fa.write_text("".join(f">{n}\n{s}\n" for n, s in subjects.items()))
    add_fa = workdir / "added.fa"
    add_fa.write_text("".join(f">{n}\n{s}\n" for n, s in added.items()))
    bank_v1 = seed_fa
    bank_v2 = workdir / "bank_v2.fa"
    bank_v2.write_text(
        "".join(f">{n}\n{s}\n" for n, s in {**subjects, **added}.items())
    )

    queries = []
    pool = list(subjects.values())
    for i in range(6):
        src = pool[int(rng.integers(len(pool)))]
        a = int(rng.integers(0, len(src) - 150))
        queries.append((f"q{i}", src[a : a + 150]))
    # One query that can only hit after the live add lands.
    grown_probe = ("qgrown", next(iter(added.values()))[100:280])

    store_dir = workdir / "served_store"
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", str(seed_fa),
         "--store", str(store_dir), "--port", "0", "--workers", "2",
         "--max-delay-ms", "5", "--no-memory-check"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=child_env(),
        cwd=REPO,
    )
    try:
        ready = ""
        deadline = time.monotonic() + 120
        while time.monotonic() < deadline:
            line = daemon.stdout.readline()
            if not line:
                break
            if line.startswith("SERVE READY"):
                ready = line
                break
        if not ready:
            daemon.kill()
            fail(f"daemon never became ready: {daemon.stderr.read()[-800:]}")
        port = int(ready.split("port=")[1].strip())
        note(f"ok: daemon serving store on port {port}")
        # Keep draining stdout so a chatty daemon can never block on a
        # full pipe.
        threading.Thread(
            target=lambda: daemon.stdout.read(), daemon=True
        ).start()

        refs_v1 = {
            n: reference_m8(bank_v1, n, s, workdir) for n, s in queries
        }
        refs_v2 = {
            n: reference_m8(bank_v2, n, s, workdir) for n, s in queries
        }

        errors: list = []
        counts = {n: 0 for n, _ in queries}
        stop = threading.Event()

        def hammer(name: str, seq: str) -> None:
            try:
                with OrisClient("127.0.0.1", port, timeout=60.0) as client:
                    while not stop.is_set():
                        got = client.query(name, seq)
                        if got not in (refs_v1[name], refs_v2[name]):
                            errors.append((name, "answer matched no generation"))
                            return
                        counts[name] += 1
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append((name, f"{type(exc).__name__}: {exc}"))

        threads = [
            threading.Thread(target=hammer, args=q, daemon=True) for q in queries
        ]
        for t in threads:
            t.start()
        time.sleep(0.5)

        add = subprocess.run(
            [sys.executable, "-m", "repro.cli", "add-sequences", str(add_fa),
             "--port", str(port)],
            capture_output=True,
            text=True,
            env=child_env(),
            timeout=TIMEOUT,
            cwd=REPO,
        )
        if add.returncode != 0:
            stop.set()
            fail(f"add-sequences exited {add.returncode}: {add.stderr}")
        note(f"ok: live add-sequences: {add.stdout.strip()}")

        time.sleep(0.5)
        stop.set()
        for t in threads:
            t.join(60.0)
        if errors:
            fail(f"queries failed during live mutation: {errors[:3]}")
        total = sum(counts.values())
        if total < len(queries):
            fail(f"hammer threads barely ran ({counts})")
        note(f"ok: {total} concurrent queries straddled the swap, zero refused")

        with OrisClient("127.0.0.1", port, timeout=60.0) as client:
            got = client.query(*grown_probe)
            want = reference_m8(bank_v2, *grown_probe, workdir)
            if got != want:
                fail("query against freshly added sequence is not byte-identical")
            health = client.health()
            store_health = health["components"].get("store")
            if not (store_health and store_health["ok"]):
                fail(f"daemon health lacks a healthy store component: {health}")
        note("ok: planted query hits the grown bank, byte-identical")

        daemon.send_signal(signal.SIGTERM)
        rc = daemon.wait(timeout=60)
        if rc != 0:
            fail(f"daemon exited {rc} on SIGTERM: {daemon.stderr.read()[-800:]}")
        note("ok: SIGTERM -> exit 0")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=30)

    # The daemon built the store with its own default seed width; just
    # require that it reopens consistently with everything durable.
    with SegmentStore.open(store_dir) as store:
        names = set(store.names())
        missing = set(added) - names
        if missing:
            fail(f"added sequences not durable across daemon exit: {missing}")
    note("ok: store reopens after daemon exit with all live additions durable")


# --------------------------------------------------------------------------


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=10,
                        help="SIGKILL roulette rounds (default 10)")
    parser.add_argument("--report", default="index_crash_smoke_report.txt")
    parser.add_argument("--child", nargs=2, metavar=("STORE_DIR", "SEED"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.child:
        raise SystemExit(run_child(Path(args.child[0]), int(args.child[1])))

    import numpy as np

    shm_before = shm_segments()
    rng = np.random.default_rng(1)
    started = time.monotonic()
    try:
        with tempfile.TemporaryDirectory(prefix="scoris_crash_smoke_") as tmp:
            workdir = Path(tmp)

            note(f"phase 1: SIGKILL roulette, {args.rounds} rounds")
            store_dir = workdir / "roulette_store"
            for i in range(args.rounds):
                delay = 0.05 + float(rng.random()) * 0.6
                health = one_crash_round(store_dir, seed=100 + i, delay=delay)
                note(
                    f"ok: round {i}: killed at {delay:.3f}s, recovered exact "
                    f"(generation={health['generation']}, "
                    f"n={health['n_sequences']}, "
                    f"segments={health['segments']}, "
                    f"wal_records={health['wal_records']})"
                )

            note("phase 2: armed fault points")
            for point in (
                "index.wal_truncate",
                "index.compact_crash",
                "index.manifest_torn",
            ):
                fault_dir = workdir / point.replace(".", "_")
                one_fault_round(fault_dir, seed=7, point=point)

            note("phase 3: zero-downtime mutation under a live daemon")
            daemon_phase(workdir)

        leaked = shm_segments() - shm_before
        if leaked:
            fail(f"leaked /dev/shm segments: {sorted(leaked)}")
        note("ok: no /dev/shm leaks")
        note(f"PASS index-crash-smoke in {time.monotonic() - started:.1f}s")
    finally:
        Path(args.report).write_text("\n".join(_REPORT) + "\n")


if __name__ == "__main__":
    main()
