"""The serve workloads: ``serve`` daemons on EST7 under closed-loop load.

A run serves ``N_DRAWS`` data sets in turn, one daemon each: draw ``k``
serves EST7 and sends EST1 queries generated with dataset seed
``seed + 7919·k``.  Query cost depends on how the seed's EST universe
falls, so pooling several draws keeps the run's medians steady; the
daemon starts also give the repeated set-up samples.

Set-up is timed from spawning a daemon until its ``--announce-file``
names it.  Load comes from this one process over ``N_CLIENTS``
connections, each a closed loop: it sends its next request only after
the previous reply.  ``serve_est7`` runs two query loops;
``serve_est7_mutate`` serves a segment store and runs one query loop
beside one mutation loop that adds ``MUTATION_BATCH`` sequences and
removes them again, once per ``MUTATION_PERIOD_S``.
"""

from __future__ import annotations

import hashlib
import json
import random
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from time import perf_counter

import summary
from harness import PAIR_SEED_STRIDE, Checks, shm_segments, spawn, stop
from repro.core.engine import OrisEngine
from repro.data import load_bank
from repro.io.bank import Bank
from repro.io.m8 import format_m8
from repro.io.validate import load_bank as ingest
from repro.serve.client import OrisClient, ServiceError
from repro.serve.protocol import ProtocolError

N_DRAWS = 3
N_CLIENTS = 2  # load comes from one process with <= nproc connections
N_CHECKED_ANSWERS = 3  # per draw
MUTATION_BATCH = 10
MUTATION_PERIOD_S = 1.0
CLIENT_ERRORS = (ServiceError, ProtocolError, OSError)


class Daemon:
    """One ``serve`` process, ready once its announce file names it."""

    def __init__(self, args: list[str], work: Path, tag: str):
        announce = work / f"announce-{tag}.json"
        self.log = open(work / f"daemon-{tag}.log", "w")
        t0 = perf_counter()
        self.proc = spawn(
            [sys.executable, "-m", "repro.cli", "serve", *args,
             "--announce-file", str(announce)],
            work,
            cwd=str(work),
            stdout=subprocess.DEVNULL,
            stderr=self.log,
        )
        deadline = time.monotonic() + 60.0
        while True:
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"daemon {tag} never became ready")
            try:
                info = json.loads(announce.read_text())
            except (OSError, ValueError):
                time.sleep(0.002)
                continue
            if info.get("pid") == self.proc.pid:
                break
        self.ready_s = perf_counter() - t0
        self.address = (info["host"], int(info["port"]))

    def client(self) -> OrisClient:
        return OrisClient(*self.address, timeout=60.0)

    def peak_rss_mb(self) -> float:
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self):
        try:
            return stop(self.proc, 30.0)
        finally:
            self.log.close()


class Draw:
    """One daemon on one data set: its load phase and what it answered."""

    def __init__(self, daemon: Daemon, queries, extra):
        self.daemon = daemon
        self.queries = queries
        self.extra = extra
        self.lock = threading.Lock()
        self.latencies: list[float] = []
        self.add_ms: list[float] = []
        self.remove_ms: list[float] = []
        self.receipts: list[tuple[int, int]] = []  # (generation, n_sequences)
        self.errors: list[str] = []
        self.retries = 0
        self.wall = 0.0
        self.answers: list[str] = []  # m8 of the checked queries
        self.stats: dict = {}  # the daemon's metrics after the load phase
        self.peak_rss_mb = 0.0
        self._cursor = 0

    def _next_query(self):
        with self.lock:
            q = self.queries[self._cursor % len(self.queries)]
            self._cursor += 1
            return q

    def query_loop(self, client: OrisClient, deadline: float) -> None:
        while perf_counter() < deadline:
            name, seq = self._next_query()
            t0 = perf_counter()
            try:
                client.query(name, seq)
            except CLIENT_ERRORS as exc:
                with self.lock:
                    self.errors.append(f"query {name}: {type(exc).__name__}: {exc}")
                continue
            with self.lock:
                self.latencies.append(perf_counter() - t0)

    def mutation_loop(self, client: OrisClient, deadline: float) -> None:
        round_ = 0
        while perf_counter() < deadline:
            tick = perf_counter()
            base = round_ * MUTATION_BATCH
            batch = [
                (f"bench_add_{round_}_{j}", self.extra[(base + j) % len(self.extra)][1])
                for j in range(MUTATION_BATCH)
            ]
            for op, arg, sink in (
                (client.add_sequences, batch, self.add_ms),
                (client.remove_sequences, [n for n, _ in batch], self.remove_ms),
            ):
                t0 = perf_counter()
                try:
                    receipt = op(arg)
                except CLIENT_ERRORS as exc:
                    self.errors.append(
                        f"mutation {round_}: {type(exc).__name__}: {exc}"
                    )
                    continue
                sink.append((perf_counter() - t0) * 1000.0)
                self.receipts.append(
                    (int(receipt["generation"]), int(receipt["n_sequences"]))
                )
            round_ += 1
            next_round = min(tick + MUTATION_PERIOD_S, deadline)
            time.sleep(max(0.0, next_round - perf_counter()))

    def load(self, roles, seconds: float) -> None:
        """Run one client thread per role for ``seconds``."""

        def worker(role, deadline):
            with self.daemon.client() as client:
                role(client, deadline)
                with self.lock:
                    self.retries += client.retries_used

        t0 = perf_counter()
        threads = [
            threading.Thread(target=worker, args=(role, t0 + seconds)) for role in roles
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        self.wall = perf_counter() - t0


def reference_answers(subject_path: Path, queries) -> tuple[Bank, list[str]]:
    """The subject bank and each query's single-query ``compare`` m8."""
    subject, _ = ingest(str(subject_path))
    engine = OrisEngine()
    answers = [
        format_m8(engine.compare(Bank.from_strings([query]), subject).records)
        for query in queries
    ]
    return subject, answers


def run_draw(k, data_seed, mutate, seconds, trace, work, checks: Checks):
    """Start a daemon on draw ``k``'s data, load it, check it, stop it."""
    subject_path = work / f"EST7-{k}.fa"
    load_bank("EST7", seed=data_seed).to_fasta(subject_path)
    queries = list(load_bank("EST1", seed=data_seed).iter_records())
    random.Random(data_seed).shuffle(queries)
    extra = list(load_bank("EST3", seed=data_seed).iter_records()) if mutate else []
    args = [str(subject_path)]
    if mutate:
        args += ["--store", str(work / f"store-{k}")]
    if trace:
        args += ["--trace", str(work / f"trace-{k}.jsonl")]

    daemon = Daemon(args, work, str(k))
    draw = Draw(daemon, queries, extra)
    checked = queries[:N_CHECKED_ANSWERS]
    try:
        with daemon.client() as client:  # warm-up: lazy set-up of the daemon
            for qname, seq in queries[:N_CLIENTS]:
                client.query(qname, seq)
        roles = [draw.query_loop] * N_CLIENTS
        if mutate:
            roles = [draw.query_loop, draw.mutation_loop]
        draw.load(roles, seconds)
        # Outside the timed window: answers after the load phase equal a
        # single-query compare (adds and removes have cancelled out).  The
        # references are computed while the daemon answers.
        with ThreadPoolExecutor(1) as pool:
            references = pool.submit(reference_answers, subject_path, checked)
            with daemon.client() as client:
                draw.answers = [client.query(qname, seq) for qname, seq in checked]
                draw.stats = client.stats()
            subject, expected_answers = references.result()
        draw.peak_rss_mb = daemon.peak_rss_mb()
    finally:
        code, strays = daemon.stop()
    checks.check(code == 0, f"draw {k}: daemon exited {code} on SIGTERM")
    checks.check(not strays, f"draw {k}: daemon left processes behind")
    checks.operations(
        len(draw.latencies) + len(draw.add_ms) + len(draw.remove_ms), draw.errors
    )
    for (qname, _seq), got, ref in zip(checked, draw.answers, expected_answers):
        checks.check(got == ref, f"draw {k}: answer for {qname} differs from compare")
    if mutate:
        # The store's generation moves only when its delta is flushed, so
        # receipts never go back; the sequence count swings by one batch
        # and returns.
        n = subject.n_sequences
        checks.check(
            all(b[0] >= a[0] for a, b in zip(draw.receipts, draw.receipts[1:])),
            f"draw {k}: mutation receipts' generations went backwards",
        )
        checks.check(
            [c for _, c in draw.receipts]
            == [n + MUTATION_BATCH, n] * (len(draw.receipts) // 2),
            f"draw {k}: mutation receipts' sequence counts do not alternate",
        )
        checks.check(bool(draw.add_ms and draw.remove_ms), f"draw {k}: no mutation")
    return draw


def run(name, mutate, seed, seconds, trace, work, checks: Checks, expected):
    """One serve workload; returns ``(end_to_end, info)``."""
    shm_before = shm_segments()
    draws = [
        run_draw(k, seed + PAIR_SEED_STRIDE * k, mutate, seconds / N_DRAWS, trace,
                 work, checks)
        for k in range(N_DRAWS)
    ]
    checks.check(not shm_segments() - shm_before, "shared-memory segments leaked")
    answers = [a for d in draws for a in d.answers]
    digest = hashlib.sha256("".join(answers).encode()).hexdigest()
    pin = expected.get(name)
    if seed == expected["seed"] and pin:
        checks.check(
            digest == pin["answers_sha256"], "answers differ from the pinned digest"
        )
    latencies = [x for d in draws for x in d.latencies]
    checks.check(bool(latencies), "no query completed")
    if not latencies:
        return {}, {}

    end_to_end = {
        "setup_s": statistics.median(d.daemon.ready_s for d in draws),
        "latency_p50_ms": statistics.median(latencies) * 1000.0,
        "ops_per_s": len(latencies) / sum(d.wall for d in draws),
        "peak_rss_mb": max(d.peak_rss_mb for d in draws),
    }
    tail = summary.tail(latencies)
    info = {
        "n_queries": len(latencies),
        "query_tail_ms": None if tail is None else {f"p{tail[0]}": tail[1] * 1000.0},
        "n_mutations": sum(len(d.add_ms) + len(d.remove_ms) for d in draws),
        "answers_sha256": digest,
    }
    if trace:
        traces = [work / f"trace-{k}.jsonl" for k in range(N_DRAWS)]
        info["per_layer"] = layers(draws, traces)
    return end_to_end, info


def layers(draws: list[Draw], trace_paths: list[Path]) -> dict[str, float]:
    """Per-layer metrics from the daemons' ``stats`` and ``--trace`` files."""
    counters: dict[str, int] = {}
    hists: dict[str, list[float]] = {}  # name -> [total, count]
    for draw in draws:
        for name, value in draw.stats.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, h in draw.stats.get("histograms", {}).items():
            acc = hists.setdefault(name, [0.0, 0])
            acc[0] += h["total"]
            acc[1] += h["count"]

    def hist_mean(name: str) -> float:
        total, count = hists.get(name, (0.0, 0))
        return total / count if count else 0.0

    span_s: dict[str, float] = {}
    for path in trace_paths:
        with open(path, encoding="utf-8") as fh:
            for line in fh:
                event = json.loads(line)
                span_s[event["name"]] = span_s.get(event["name"], 0.0) + event["dur"]
    batch_s = span_s.get("serve.batch", 0.0)

    def share(span_name: str) -> float:
        return span_s.get(span_name, 0.0) / batch_s if batch_s else 0.0

    latencies = [x for d in draws for x in d.latencies]
    add_ms = [x for d in draws for x in d.add_ms]
    remove_ms = [x for d in draws for x in d.remove_ms]
    wait_ms = hist_mean("serve.request_wait_seconds") * 1000.0
    batch_ms = hist_mean("serve.batch_latency_seconds") * 1000.0
    return {
        "serve.request_wait_ms_mean": wait_ms,
        "serve.batch_latency_ms_mean": batch_ms,
        "serve.batch_size_mean": hist_mean("serve.batch_size"),
        "serve.step2_s_share": share("step2.range"),
        "serve.step3_s_share": share("step3.gapped"),
        "serve.step4_s_share": share("step4.display"),
        "serve.outside_batch_ms": (
            statistics.mean(latencies) * 1000.0 - wait_ms - batch_ms
        ),
        "serve.shed": counters.get("serve.requests_shed", 0),
        "serve.client_retries": sum(d.retries for d in draws),
        "client.query_p90_ms": summary.percentile(latencies, 90) * 1000.0,
        "segments.add_ms_p50": statistics.median(add_ms) if add_ms else 0.0,
        "segments.remove_ms_p50": statistics.median(remove_ms) if remove_ms else 0.0,
        "serve.subject_swaps": counters.get("serve.subject_swaps", 0),
        "serve.subject_arenas_reaped": counters.get("serve.subject_arenas_reaped", 0),
    }
