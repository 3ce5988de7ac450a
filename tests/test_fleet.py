"""Tests for sharded scatter-gather serving (repro.serve.fleet).

The fleet's whole value proposition is one sentence: a router over N
shard daemons returns *byte-identical* output to one daemon over the
whole bank.  The tests here attack that claim at three levels --
pure-function (planner cuts + ownership partition), unit (per-tile
compare + seam-exact merge, including a hypothesis sweep over random
banks and cut geometries), and end-to-end over real sockets and real
child processes (router + manager vs a single daemon, plus the degraded
and quota-shed paths that must fail loudly rather than truncate).
"""

from __future__ import annotations

import json
import os

import numpy as np
import pytest

from repro.align.records import M8Record
from repro.core import OrisEngine, OrisParams, compare_tiled
from repro.data.synthetic import mutate, random_dna
from repro.io.bank import Bank
from repro.obs import MetricsRegistry
from repro.runtime import faults
from repro.serve import OrisClient, OrisDaemon, ServeConfig
from repro.serve.admission import TenantQuotas
from repro.serve.client import QueryFailed, ServerShed
from repro.serve.fleet import (
    FleetRouter,
    RouterConfig,
    ShardManager,
    compare_shard,
    load_plan,
    merge_shard_records,
    plan_fleet,
    required_overlap,
    write_plan,
)
from repro.serve.fleet.planner import FleetProfile, load_profile


def seam_bank(rng, chrom_nt=20_000, core_nt=250):
    """A long sequence with a repeated (mutated) core motif planted
    throughout, so seam-straddling alignments actually occur, plus a
    couple of short packed sequences."""
    core = random_dna(rng, core_nt)
    parts, pos = [], 0
    while pos < chrom_nt:
        fill = random_dna(rng, int(rng.integers(400, 1200)))
        parts.append(fill)
        pos += len(fill)
        hit = mutate(rng, core, sub_rate=0.02, indel_rate=0.0)
        parts.append(hit)
        pos += len(hit)
    chrom = "".join(parts)
    bank = Bank.from_strings(
        [
            ("chrA", chrom),
            ("short1", random_dna(rng, 700)),
            ("short2", mutate(rng, core, sub_rate=0.03, indel_rate=0.0)),
        ]
    )
    return bank, core, chrom


# --------------------------------------------------------------------- #
# Planner
# --------------------------------------------------------------------- #


class TestRequiredOverlap:
    def test_covers_twice_the_span(self):
        p = OrisParams()
        ov = required_overlap(400, p)
        assert ov >= 2 * (400 + 2 * p.band_radius)

    def test_monotonic_in_query_size(self):
        p = OrisParams()
        assert required_overlap(1000, p) > required_overlap(100, p)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            required_overlap(0)


class TestPlanFleet:
    def test_ownership_partitions_every_sequence(self, rng):
        bank, _, chrom = seam_bank(rng)
        plan = plan_fleet(bank, 4, required_overlap(400))
        for name in bank.names:
            total = bank.sequence_length(bank.names.index(name))
            intervals = sorted(
                (s.owned_from[name], s.owned_until[name])
                for s in plan.specs
                if name in s.offsets
            )
            assert intervals[0][0] == 0
            assert intervals[-1][1] == total
            for (_, b1), (a2, _) in zip(intervals, intervals[1:]):
                assert b1 == a2  # no gap, no double-ownership

    def test_windows_reconstruct_sequence(self, rng):
        bank, _, chrom = seam_bank(rng)
        plan = plan_fleet(bank, 4, required_overlap(400))
        for spec, shard in zip(plan.specs, plan.banks):
            for i, name in enumerate(shard.names):
                off = spec.offsets[name]
                window = shard.sequence_str(i)
                assert chrom[off : off + len(window)] == window or name != "chrA"

    def test_degenerate_single_shard(self, rng):
        bank = Bank.from_strings([("s", random_dna(rng, 500))])
        plan = plan_fleet(bank, 3, required_overlap(400))
        assert plan.n_shards == 1

    def test_owns_uses_original_coordinates(self, rng):
        bank, _, _ = seam_bank(rng)
        plan = plan_fleet(bank, 4, required_overlap(400))
        # A window-relative m8 interval is owned by exactly one shard
        # after its offset is applied.
        for probe in (0, 1, 5_000, 12_345, bank.sequence_length(0) - 10):
            owners = [
                s
                for s in plan.specs
                if "chrA" in s.offsets
                and s.owns("chrA", probe + 1 - s.offsets["chrA"], probe + 5 - s.offsets["chrA"])
            ]
            assert len(owners) == 1

    def test_plan_roundtrip(self, rng, tmp_path):
        bank, _, _ = seam_bank(rng)
        plan = plan_fleet(bank, 3, required_overlap(400))
        path = write_plan(plan, str(tmp_path))
        loaded = load_plan(path)
        assert loaded.n_shards == plan.n_shards
        assert loaded.overlap == plan.overlap
        assert [s.to_dict() for s in loaded.specs] == [
            s.to_dict() for s in plan.specs
        ]
        prof = load_profile(str(tmp_path / "profile.json"))
        assert prof.subject_nt == bank.size_nt
        assert prof.subject_seqs == bank.n_sequences
        # every shard FASTA exists and parses
        for spec in loaded.specs:
            shard = Bank.from_fasta(str(tmp_path / spec.fasta))
            assert shard.names == list(spec.offsets)

    def test_profile_roundtrip_and_lengths(self, rng):
        bank, _, _ = seam_bank(rng)
        plan = plan_fleet(bank, 2, required_overlap(400))
        prof = FleetProfile.from_dict(plan.profile.to_dict())
        assert prof == plan.profile
        lengths = prof.subject_lengths_for(plan.banks[0])
        for i, name in enumerate(plan.banks[0].names):
            assert lengths[i] == prof.full_nt[name]


# --------------------------------------------------------------------- #
# Seam-exact merge (unit level, no sockets)
# --------------------------------------------------------------------- #


class TestSeamExactMerge:
    def _merged_equals_monolithic(self, rng, bank2, queries, n_shards, overlap):
        params = OrisParams()
        engine = OrisEngine(params)
        plan = plan_fleet(bank2, n_shards, overlap)
        total_dedup = 0
        for qname, qseq in queries:
            bank1 = Bank.from_strings([(qname, qseq)])
            ref = engine.compare(bank1, bank2).records
            shard_results = [
                (spec, compare_shard(bank1, shard, params, plan.profile).records)
                for spec, shard in zip(plan.specs, plan.banks)
            ]
            merged, dropped = merge_shard_records(shard_results)
            total_dedup += dropped
            assert merged == ref, f"query {qname} diverged from monolithic"
        return plan, total_dedup

    def test_seam_straddling_alignments_dedup_exactly(self, rng):
        bank2, core, chrom = seam_bank(rng)
        overlap = required_overlap(400)
        queries = [("qcore", core)]
        for start in range(2_000, len(chrom) - 500, 4_000):
            queries.append(
                (f"q{start}", mutate(rng, chrom[start : start + 420],
                                     sub_rate=0.03, indel_rate=0.0))
            )
        plan, dedup = self._merged_equals_monolithic(
            rng, bank2, queries, n_shards=5, overlap=overlap
        )
        assert plan.n_shards >= 2
        assert dedup > 0  # the seams were actually exercised

    def test_packed_short_sequences_never_dedup(self, rng):
        bank2 = Bank.from_strings(
            [(f"s{i}", random_dna(rng, 300)) for i in range(40)]
        )
        q = mutate(rng, bank2.sequence_str(7), sub_rate=0.02, indel_rate=0.0)
        plan, dedup = self._merged_equals_monolithic(
            rng, bank2, [("q", q)], n_shards=4, overlap=required_overlap(350)
        )
        assert dedup == 0  # whole sequences live in exactly one shard


class TestFleetPropertyHypothesis:
    """For random banks and cut points, the dedup-merged per-tile
    records -- and ``compare_tiled`` over the same cut -- equal the
    uncut-bank records *exactly*."""

    def test_random_banks_and_cut_points(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        params = OrisParams()
        engine = OrisEngine(params)

        @settings(max_examples=12, deadline=None)
        @given(
            seed=st.integers(0, 2**31 - 1),
            chrom_nt=st.integers(4_000, 12_000),
            n_shards=st.integers(2, 5),
            extra_overlap=st.integers(0, 500),
        )
        def inner(seed, chrom_nt, n_shards, extra_overlap):
            rng = np.random.default_rng(seed)
            bank2, core, chrom = seam_bank(rng, chrom_nt=chrom_nt, core_nt=180)
            overlap = required_overlap(250, params) + extra_overlap
            plan = plan_fleet(bank2, n_shards, overlap)
            start = int(rng.integers(0, max(len(chrom) - 300, 1)))
            queries = [
                ("qcore", core),
                ("qwin", mutate(rng, chrom[start : start + 260],
                                sub_rate=0.03, indel_rate=0.0)),
            ]
            for qname, qseq in queries:
                bank1 = Bank.from_strings([(qname, qseq)])
                ref = engine.compare(bank1, bank2).records
                shard_results = [
                    (spec, compare_shard(bank1, shard, params, plan.profile).records)
                    for spec, shard in zip(plan.specs, plan.banks)
                ]
                merged, _ = merge_shard_records(shard_results)
                assert merged == ref
                tiled = compare_tiled(bank1, bank2, params, plan.tile_nt, overlap)
                assert tiled.records == ref

        inner()


# --------------------------------------------------------------------- #
# Tenant quotas
# --------------------------------------------------------------------- #


class TestTenantQuotas:
    def test_acquire_release_cycle(self):
        q = TenantQuotas(2)
        assert q.try_acquire("a").admitted
        assert q.try_acquire("a").admitted
        d = q.try_acquire("a")
        assert not d.admitted and d.status == "shed"
        assert "quota" in d.reason
        q.release("a")
        assert q.try_acquire("a").admitted

    def test_tenants_are_independent(self):
        q = TenantQuotas(1)
        assert q.try_acquire("a").admitted
        assert q.try_acquire("b").admitted
        assert not q.try_acquire("a").admitted

    def test_anonymous_bucket_shared(self):
        q = TenantQuotas(1)
        assert q.try_acquire().admitted
        assert not q.try_acquire("").admitted

    def test_shed_counted(self):
        reg = MetricsRegistry()
        q = TenantQuotas(1, registry=reg)
        q.try_acquire("a")
        q.try_acquire("a")
        assert reg.value("serve.requests_shed_tenant") == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            TenantQuotas(0)

    def test_release_cleans_up(self):
        q = TenantQuotas(3)
        q.try_acquire("a")
        q.release("a")
        assert q.in_flight("a") == 0


# --------------------------------------------------------------------- #
# Fault points
# --------------------------------------------------------------------- #


class TestFleetFaultPoints:
    def test_points_registered(self):
        assert "fleet.shard_unreachable" in faults.FAULT_POINTS
        assert "fleet.partial_gather" in faults.FAULT_POINTS

    def test_points_armable(self):
        faults.disarm()
        try:
            faults.arm("fleet.shard_unreachable:1.0:7,fleet.partial_gather:0.5:9")
            assert faults.armed()
            assert faults.should_fire("fleet.shard_unreachable", "0:q")
        finally:
            faults.disarm()


# --------------------------------------------------------------------- #
# Announce file
# --------------------------------------------------------------------- #


class TestAnnounceFile:
    def test_write_announce_contents(self, tmp_path):
        from repro.cli import _write_announce

        path = tmp_path / "a.json"
        _write_announce(str(path), "127.0.0.1", 4321)
        data = json.loads(path.read_text())
        assert data == {"host": "127.0.0.1", "port": 4321, "pid": os.getpid()}

    def test_daemon_announces_bound_address(self, rng, tmp_path):
        bank = Bank.from_strings([("s", random_dna(rng, 2_000))])
        fa = tmp_path / "bank.fa"
        bank.to_fasta(str(fa))
        ann = tmp_path / "daemon.json"
        proc, data = _spawn_announced(
            ["serve", str(fa), "--port", "0", "--workers", "1"], ann
        )
        try:
            assert data["pid"] == proc.pid
            client = OrisClient(data["host"], data["port"], timeout=30)
            assert client.ping()
        finally:
            proc.terminate()
            proc.wait(timeout=30)

    def test_fleet_trace_records_router_spans(self, rng, tmp_path):
        """``serve-fleet --trace`` writes the router's own spans."""
        core = random_dna(rng, 400)
        bank = Bank.from_strings(
            [("s", random_dna(rng, 2_000) + core + random_dna(rng, 2_000))]
        )
        fa = tmp_path / "bank.fa"
        bank.to_fasta(str(fa))
        trace = tmp_path / "t.jsonl"
        proc, data = _spawn_announced(
            ["serve-fleet", str(fa), "--shards", "1", "--port", "0",
             "--work-dir", str(tmp_path / "fleet"), "--trace", str(trace)],
            tmp_path / "fleet.json",
        )
        try:
            with OrisClient(data["host"], data["port"], timeout=30) as client:
                assert "\ts\t" in client.query("q", core)
        finally:
            proc.terminate()
            assert proc.wait(timeout=60) == 0
        names = {
            json.loads(line)["name"]
            for line in trace.read_text().splitlines()
        }
        assert {"fleet.run", "fleet.query"} <= names


def _spawn_announced(argv: list[str], ann) -> tuple:
    """Start ``python -m repro.cli ARGV --announce-file ANN``; wait for it.

    Returns the process and the announced ``{host, port, pid}``.
    """
    import subprocess
    import sys
    import time

    import repro

    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=pkg_root)
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv, "--announce-file", str(ann)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    deadline = time.monotonic() + 60
    while time.monotonic() < deadline:
        if ann.exists():
            try:
                return proc, json.loads(ann.read_text())
            except json.JSONDecodeError:
                pass  # mid-write; the write is atomic, retry
        time.sleep(0.05)
    proc.kill()
    proc.wait(timeout=30)
    raise AssertionError(f"{argv[0]} never announced")


# --------------------------------------------------------------------- #
# End-to-end: router + manager over real sockets vs a single daemon
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def fleet_stack(tmp_path_factory):
    """A 3-shard fleet and a single-daemon reference over the same bank.

    Module-scoped: child daemons cost ~1 s each to start, and every
    test in this section reads, never mutates, the stack.
    """
    rng = np.random.default_rng(99)
    bank2, core, chrom = seam_bank(rng, chrom_nt=24_000)
    params = OrisParams()
    work = tmp_path_factory.mktemp("fleet")

    daemon = OrisDaemon(
        bank2, params,
        ServeConfig(n_workers=1, check_memory=False, max_delay_ms=10.0),
    )
    daemon.start()

    plan = plan_fleet(bank2, 3, required_overlap(500, params))
    write_plan(plan, str(work))
    manager = ShardManager(plan, str(work), shard_args=["--workers", "1"])
    manager.start()
    router = FleetRouter(
        plan, manager, params=params,
        config=RouterConfig(tenant_quota=2),
    )
    router.start()
    try:
        yield {
            "bank": bank2, "core": core, "chrom": chrom,
            "daemon": daemon, "router": router, "manager": manager,
            "plan": plan, "rng": rng,
        }
    finally:
        router.shutdown()
        manager.stop()
        daemon.shutdown()


class TestShardRespawn:
    def test_sigkilled_shard_is_respawned_once(self, rng, tmp_path):
        """A dead shard must be recorded as ONE death (not one per poll
        tick, which would push the respawn deadline forward forever)."""
        import signal

        bank = Bank.from_strings([("chrA", random_dna(rng, 8_000))])
        plan = plan_fleet(bank, 2, required_overlap(400))
        write_plan(plan, str(tmp_path))
        manager = ShardManager(plan, str(tmp_path), shard_args=["--workers", "1"])
        manager.start()
        try:
            victim = manager.health()[0]
            os.kill(victim.pid, signal.SIGKILL)
            import time

            deadline = time.monotonic() + 60
            state = None
            while time.monotonic() < deadline:
                state = manager.health()[0]
                if state.state == "ready" and state.pid != victim.pid:
                    break
                time.sleep(0.2)
            assert state is not None
            assert state.state == "ready" and state.pid != victim.pid
            assert state.respawns == 1
            assert manager.registry.value("fleet.shard_deaths") == 1
        finally:
            manager.stop()


class TestFleetEndToEnd:
    def test_byte_identical_to_single_daemon(self, fleet_stack):
        s = fleet_stack
        rng = np.random.default_rng(7)
        single = OrisClient(*s["daemon"].address, timeout=60)
        fleet = OrisClient(*s["router"].address, timeout=120)
        queries = [("qcore", s["core"])]
        chrom = s["chrom"]
        for start in range(1_000, len(chrom) - 600, 5_000):
            queries.append(
                (f"q{start}",
                 mutate(rng, chrom[start : start + 450],
                        sub_rate=0.03, indel_rate=0.0))
            )
        for name, seq in queries:
            assert fleet.query(name, seq) == single.query(name, seq)

    @pytest.mark.parametrize("name", ["#q", " q", "q ", ""])
    def test_client_names_survive_the_merge(self, fleet_stack, name):
        """Query names reach the m8 verbatim; the router's merge must
        not read a ``#`` name as a comment or strip a space."""
        s = fleet_stack
        single = OrisClient(*s["daemon"].address, timeout=60)
        fleet = OrisClient(*s["router"].address, timeout=120)
        ref = single.query(name, s["core"])
        assert ref
        assert fleet.query(name, s["core"]) == ref

    def test_health_aggregates_all_shards(self, fleet_stack):
        client = OrisClient(*fleet_stack["router"].address, timeout=30)
        h = client.health()
        assert h["healthy"] is True
        assert h["n_shards"] == fleet_stack["plan"].n_shards
        shard_entries = [k for k in h["components"] if k.startswith("shard")]
        assert len(shard_entries) == fleet_stack["plan"].n_shards

    def test_fleet_metrics_populated(self, fleet_stack):
        client = OrisClient(*fleet_stack["router"].address, timeout=30)
        client.health()  # refreshes the degraded gauge
        snap = fleet_stack["router"].registry.as_dict()
        counters = snap["counters"]
        assert counters.get("fleet.queries", 0) > 0
        assert counters.get("fleet.seam_hits_deduped", 0) > 0
        assert "fleet.scatter_fanout" in snap["histograms"]
        assert "fleet.gather_wait_ms" in snap["histograms"]
        assert snap["gauges"]["fleet.shards_degraded"]["value"] == 0.0

    def test_tenant_quota_sheds_loudly(self, fleet_stack):
        # quota is 2 in-flight per tenant; saturate synthetically via the
        # router's own quota object, then observe the on-wire shed.
        router = fleet_stack["router"]
        quotas = router.tenants
        assert quotas is not None
        quotas.try_acquire("greedy")
        quotas.try_acquire("greedy")
        try:
            client = OrisClient(
                *router.address, timeout=30, retries=0
            )
            with pytest.raises(ServerShed, match="quota"):
                client.query("q", "ACGT" * 50, tenant="greedy")
        finally:
            quotas.release("greedy")
            quotas.release("greedy")

    def test_partial_gather_refused_not_truncated(self, fleet_stack):
        router = fleet_stack["router"]
        faults.disarm()
        # fire only for this test's query name (the fault key is
        # "<shard_id>:<query name>")
        faults.arm("fleet.shard_unreachable:1.0:3:qboom")
        try:
            client = OrisClient(*router.address, timeout=60, retries=0)
            with pytest.raises(QueryFailed, match="partial result refused"):
                client.query("qboom", fleet_stack["core"])
        finally:
            faults.disarm()
        # the fleet recovers once the fault is gone
        client = OrisClient(*router.address, timeout=60, retries=0)
        assert client.query("qboom", fleet_stack["core"]) != ""
        assert router.registry.value("fleet.partial_results") >= 1
