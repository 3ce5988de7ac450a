"""Tests for the scoris-n command-line interface (repro.cli)."""

import numpy as np
import pytest

from repro.cli import build_parser, run
from repro.data.synthetic import random_dna
from repro.io.bank import Bank
from repro.io.m8 import read_m8


@pytest.fixture
def fasta_pair(tmp_path, rng):
    core = random_dna(rng, 200)
    b1 = Bank.from_strings([("q1", random_dna(rng, 50) + core)])
    b2 = Bank.from_strings([("s1", core + random_dna(rng, 50))])
    p1, p2 = tmp_path / "a.fa", tmp_path / "b.fa"
    b1.to_fasta(p1)
    b2.to_fasta(p2)
    return str(p1), str(p2)


@pytest.fixture
def minus_strand_pair(tmp_path, rng):
    """A 400-nt query whose reverse complement sits inside a 1 000-nt
    subject: only a minus-strand search finds it."""
    core = random_dna(rng, 400)
    rc = core[::-1].translate(str.maketrans("ACGT", "TGCA"))
    b1 = Bank.from_strings([("q1", core)])
    b2 = Bank.from_strings([("s1", random_dna(rng, 300) + rc + random_dna(rng, 300))])
    p1, p2 = tmp_path / "q.fa", tmp_path / "s.fa"
    b1.to_fasta(p1)
    b2.to_fasta(p2)
    return str(p1), str(p2)


class TestParser:
    def test_defaults_match_paper(self):
        args = build_parser().parse_args(["a.fa", "b.fa"])
        assert args.word_size == 11
        assert args.evalue == pytest.approx(1e-3)
        assert args.strand == "plus"
        assert args.engine == "oris"
        assert args.filter_kind == "dust"

    def test_engine_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["a", "b", "--engine", "bwa"])


#: The ``counters`` keys of a ``--metrics`` snapshot.
METRICS_OUT_COUNTERS = (
    "n_pairs", "n_cut", "n_hsps", "ungapped_steps", "gapped_steps",
    "n_gapped_extensions", "n_skipped_contained", "n_alignments",
    "n_records", "n_waves", "n_retries", "n_crashes", "n_timeouts",
    "n_quarantined", "n_degraded", "n_skipped_tasks", "n_resumed",
    "n_tiles", "n_memory_degradations", "rss_peak_bytes",
)


class TestStrands:
    @pytest.mark.parametrize("engine", ["oris", "blastn"])
    def test_both_strands_find_the_reverse_complement(
        self, minus_strand_pair, tmp_path, engine
    ):
        out = tmp_path / "hits.m8"
        rc = run([
            *minus_strand_pair, "--engine", engine, "--strand", "both",
            "-o", str(out),
        ])
        assert rc == 0
        full = [r for r in read_m8(out) if r.length == 400]
        assert len(full) == 1
        assert full[0].s_start > full[0].s_end  # minus strand

    @pytest.mark.parametrize("engine", ["blat", "blastz"])
    def test_single_strand_engines_refuse_both(
        self, minus_strand_pair, tmp_path, capsys, engine
    ):
        # These engines have no minus-strand pass; silently searching the
        # plus strand only would report no hit and exit 0.
        out = tmp_path / "hits.m8"
        rc = run([
            *minus_strand_pair, "--engine", engine, "--strand", "both",
            "-o", str(out),
        ])
        assert rc == 2
        assert "single strand" in capsys.readouterr().err
        assert not out.exists()


class TestRun:
    def test_oris_to_file(self, fasta_pair, tmp_path):
        out = tmp_path / "hits.m8"
        rc = run([*fasta_pair, "-o", str(out)])
        assert rc == 0
        recs = read_m8(out)
        assert len(recs) >= 1
        assert recs[0].query_id == "q1"
        assert recs[0].subject_id == "s1"

    def test_stdout_output(self, fasta_pair, capsys):
        rc = run(list(fasta_pair))
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("\n") >= 1
        assert "q1\ts1" in out

    def test_stats_to_stderr(self, fasta_pair, capsys):
        rc = run([*fasta_pair, "--stats"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "step timings" in err
        assert "work:" in err

    @pytest.mark.parametrize("engine", ["oris", "blastn", "blat"])
    def test_all_engines_run(self, fasta_pair, tmp_path, engine):
        out = tmp_path / f"{engine}.m8"
        rc = run([*fasta_pair, "--engine", engine, "-o", str(out)])
        assert rc == 0
        assert len(read_m8(out)) >= 1

    def test_missing_file_error(self, tmp_path, capsys):
        # Unreadable input is an *input* failure (exit 3), not usage.
        rc = run([str(tmp_path / "no.fa"), str(tmp_path / "no2.fa")])
        assert rc == 3
        assert "input error" in capsys.readouterr().err

    def test_word_size_flag(self, fasta_pair, tmp_path):
        out = tmp_path / "w8.m8"
        rc = run([*fasta_pair, "-W", "8", "-o", str(out)])
        assert rc == 0
        assert len(read_m8(out)) >= 1

    def test_asymmetric_flag(self, fasta_pair, tmp_path):
        out = tmp_path / "asym.m8"
        rc = run([*fasta_pair, "--asymmetric", "-o", str(out)])
        assert rc == 0
        assert len(read_m8(out)) >= 1

    def test_both_strands_flag(self, fasta_pair, tmp_path):
        out = tmp_path / "both.m8"
        rc = run([*fasta_pair, "--strand", "both", "-o", str(out)])
        assert rc == 0

    def test_custom_scoring(self, fasta_pair, tmp_path):
        out = tmp_path / "sc.m8"
        rc = run([*fasta_pair, "--match", "2", "--mismatch", "5", "-o", str(out)])
        assert rc == 0


class TestResilientRuntime:
    """The --workers / --checkpoint / --resume surface."""

    def test_workers_matches_serial(self, fasta_pair, tmp_path):
        serial = tmp_path / "serial.m8"
        par = tmp_path / "par.m8"
        assert run([*fasta_pair, "-o", str(serial)]) == 0
        assert run([*fasta_pair, "--workers", "2", "-o", str(par)]) == 0
        assert par.read_text() == serial.read_text()

    def test_checkpoint_then_resume(self, fasta_pair, tmp_path):
        ckpt = tmp_path / "ckpt"
        first = tmp_path / "first.m8"
        second = tmp_path / "second.m8"
        rc = run(
            [*fasta_pair, "--workers", "2", "--checkpoint", str(ckpt),
             "-o", str(first)]
        )
        assert rc == 0
        assert (ckpt / "journal.jsonl").is_file()
        rc = run(
            [*fasta_pair, "--workers", "2", "--checkpoint", str(ckpt),
             "--resume", "-o", str(second)]
        )
        assert rc == 0
        assert second.read_text() == first.read_text()

    def test_runtime_stats_line(self, fasta_pair, tmp_path, capsys):
        rc = run([*fasta_pair, "--workers", "2", "--stats",
                  "-o", str(tmp_path / "x.m8")])
        assert rc == 0
        assert "# runtime:" in capsys.readouterr().err

    def test_resume_requires_checkpoint(self, fasta_pair, capsys):
        rc = run([*fasta_pair, "--resume"])
        assert rc == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_runtime_requires_oris(self, fasta_pair, capsys):
        rc = run([*fasta_pair, "--engine", "blastn", "--workers", "2"])
        assert rc == 2
        assert "oris" in capsys.readouterr().err

    def test_runtime_rejects_both_strands(self, fasta_pair, capsys):
        rc = run([*fasta_pair, "--strand", "both", "--workers", "2"])
        assert rc == 2
        assert "single strand" in capsys.readouterr().err

    def test_task_timeout_and_retries_flags(self, fasta_pair, tmp_path):
        out = tmp_path / "t.m8"
        rc = run([*fasta_pair, "--workers", "2", "--task-timeout", "60",
                  "--max-retries", "1", "-o", str(out)])
        assert rc == 0
        assert len(read_m8(out)) >= 1

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_malformed_fault_spec_is_usage_error(
        self, fasta_pair, tmp_path, monkeypatch, capsys, workers
    ):
        # A bad spec must fail the run up front, serial or parallel --
        # never kill every worker and leave an empty m8 behind exit 0.
        monkeypatch.setenv("SCORIS_FAULTS", "worker.crash:notaprob:1")
        out = tmp_path / "o.m8"
        rc = run([*fasta_pair, "--workers", workers, "-o", str(out)])
        assert rc == 2
        assert "bad fault spec" in capsys.readouterr().err
        assert not out.exists()


class TestExitCodes:
    """The documented exit-code taxonomy (see --help epilog)."""

    def test_help_documents_exit_codes(self, capsys):
        with pytest.raises(SystemExit) as exc_info:
            run(["--help"])
        assert exc_info.value.code == 0
        out = capsys.readouterr().out
        for code in ("0 ", "2 ", "3 ", "4 ", "5 ", "130 "):
            assert code in out
        assert "exit codes" in out.lower()

    def test_usage_error_is_2(self, fasta_pair, capsys):
        rc = run([*fasta_pair, "--resume"])
        assert rc == 2

    def test_corrupt_fasta_is_3(self, fasta_pair, tmp_path, capsys):
        bad = tmp_path / "bad.fa"
        bad.write_text("ACGT\nnot a header\n")
        rc = run([str(bad), fasta_pair[1]])
        assert rc == 3
        err = capsys.readouterr().err
        assert "error[data-before-header]" in err
        assert "Traceback" not in err

    def test_ambiguous_fasta_strict_is_3(self, fasta_pair, tmp_path, capsys):
        iffy = tmp_path / "iffy.fa"
        iffy.write_text(">s1\nACGTRYSWACGTACGT\n")
        rc = run([fasta_pair[0], str(iffy)])
        assert rc == 3
        assert "ambiguous-nucleotides" in capsys.readouterr().err

    def test_ambiguous_fasta_lenient_is_0(self, fasta_pair, tmp_path, capsys):
        iffy = tmp_path / "iffy.fa"
        iffy.write_text(">s1\nACGTRYSWACGTACGT\n")
        rc = run([fasta_pair[0], str(iffy), "--ingest", "lenient"])
        assert rc == 0
        assert "warning[ambiguous-nucleotides]" in capsys.readouterr().err

    def test_corrupt_checkpoint_is_5(self, fasta_pair, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        first = tmp_path / "first.m8"
        rc = run([*fasta_pair, "--workers", "2", "--checkpoint", str(ckpt),
                  "-o", str(first)])
        assert rc == 0
        journal = ckpt / "journal.jsonl"
        lines = journal.read_text().splitlines()
        # Corrupt a *committed* journal line (not the tail, which resume
        # tolerates as a torn write): flip the payload of line 2.
        lines[1] = lines[1][:-20] + '"garbage": "x"}'
        journal.write_text("\n".join(lines) + "\n")
        rc = run([*fasta_pair, "--workers", "2", "--checkpoint", str(ckpt),
                  "--resume", "-o", str(tmp_path / "second.m8")])
        assert rc == 5
        err = capsys.readouterr().err
        assert "corrupt" in err.lower()
        assert "Traceback" not in err

    def test_version_1_checkpoint_is_5(self, fasta_pair, tmp_path, capsys):
        # Version-1 task lines carry their counts outside the metrics
        # snapshot; resuming one must fail loudly, not lose the counts.
        import json

        ckpt = tmp_path / "ckpt"
        rc = run([*fasta_pair, "--workers", "2", "--checkpoint", str(ckpt),
                  "-o", str(tmp_path / "first.m8")])
        assert rc == 0
        journal = ckpt / "journal.jsonl"
        lines = journal.read_text().splitlines()
        header = json.loads(lines[0])
        header["version"] = 1
        journal.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        second = tmp_path / "second.m8"
        rc = run([*fasta_pair, "--workers", "2", "--checkpoint", str(ckpt),
                  "--resume", "-o", str(second)])
        assert rc == 5
        assert "journal version 1" in capsys.readouterr().err
        assert not second.exists()

    def test_hopeless_memory_budget_is_4(self, fasta_pair, capsys):
        rc = run([*fasta_pair, "--memory-budget", "1M"])
        assert rc == 4
        err = capsys.readouterr().err
        assert "resource exhausted" in err
        assert "Traceback" not in err

    def test_bad_memory_budget_syntax_is_2(self, fasta_pair, capsys):
        rc = run([*fasta_pair, "--memory-budget", "lots"])
        assert rc == 2


class TestGovernor:
    """--memory-budget planning and degradation through the CLI."""

    @pytest.fixture
    def big_subject_pair(self, tmp_path, rng):
        # Subject much larger than MIN_TILE_NT so degradation has room to
        # pick a real tile size; a planted core guarantees alignments that
        # straddle tiles see identical results either way.
        core = random_dna(rng, 400)
        b1 = Bank.from_strings([("q1", core)])
        parts = [random_dna(rng, 30_000), core, random_dna(rng, 30_000),
                 core, random_dna(rng, 30_000)]
        b2 = Bank.from_strings([("s1", "".join(parts))])
        p1, p2 = tmp_path / "q.fa", tmp_path / "s.fa"
        b1.to_fasta(p1)
        b2.to_fasta(p2)
        return str(p1), str(p2)

    def test_roomy_budget_stays_monolithic(self, fasta_pair, tmp_path, capsys):
        rc = run([*fasta_pair, "--memory-budget", "8G", "--stats",
                  "-o", str(tmp_path / "m.m8")])
        assert rc == 0
        err = capsys.readouterr().err
        assert "# governor: mode=monolithic" in err
        assert "budget_exceeded=0" in err
        assert "governor: warning" not in err

    def test_breached_budget_is_loud(self, fasta_pair, tmp_path, capsys):
        import json

        import numpy as np

        from repro.runtime.governor import (
            estimate_comparison_bytes,
            rss_peak_bytes,
        )

        ref = tmp_path / "ref.m8"
        assert run([*fasta_pair, "-o", str(ref)]) == 0
        # The smallest budget the plan keeps monolithic for this pair
        # (250 nt a side); it sits below a CPython + NumPy run's peak.
        budget = estimate_comparison_bytes(250, 250)
        short = budget + (8 << 20) - rss_peak_bytes()
        if short > 0:  # make sure this process's peak really is above it
            np.ones(short // 8 + 1, dtype=np.int64)
        out, metrics = tmp_path / "out.m8", tmp_path / "m.json"
        rc = run([*fasta_pair, "--memory-budget", str(budget), "--stats",
                  "--metrics", str(metrics), "-o", str(out)])
        assert rc == 0
        err = capsys.readouterr().err
        assert "# governor: mode=monolithic" in err
        assert err.count("scoris-n: governor: warning:") == 1
        assert "budget_exceeded=1" in err
        snapshot = json.loads(metrics.read_text())
        assert snapshot["metrics"]["counters"]["governor.budget_exceeded"] == 1
        assert out.read_bytes() == ref.read_bytes()

    def test_tight_budget_degrades_to_tiled(self, big_subject_pair, tmp_path,
                                            capsys):
        from repro.runtime.governor import (
            BASELINE_BYTES,
            estimate_index_bytes,
        )

        ref = tmp_path / "ref.m8"
        out = tmp_path / "tiled.m8"
        assert run([*big_subject_pair, "-o", str(ref)]) == 0
        # Admit the query index plus a ~25k nt tile: forces tiling.
        budget = BASELINE_BYTES + estimate_index_bytes(400 + 25_000)
        rc = run([*big_subject_pair, "--memory-budget", str(budget),
                  "--stats", "-o", str(out)])
        assert rc == 0
        err = capsys.readouterr().err
        assert "# governor: mode=tiled" in err
        assert "degrading to tiled indexing" in err
        assert "memory_degradations=1" in err
        assert "tiles=" in err and "tiles=0" not in err
        assert out.read_bytes() == ref.read_bytes()

    def test_tiled_degradation_rejects_both_strands(
        self, big_subject_pair, tmp_path, capsys
    ):
        from repro.runtime.governor import (
            BASELINE_BYTES,
            estimate_index_bytes,
        )

        budget = BASELINE_BYTES + estimate_index_bytes(400 + 25_000)
        rc = run([*big_subject_pair, "--memory-budget", str(budget),
                  "--strand", "both", "-o", str(tmp_path / "x.m8")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "single strand" in err
        assert "Traceback" not in err

    def test_degradation_disables_runtime_with_warning(
        self, big_subject_pair, tmp_path, capsys
    ):
        from repro.runtime.governor import (
            BASELINE_BYTES,
            estimate_index_bytes,
        )

        budget = BASELINE_BYTES + estimate_index_bytes(400 + 25_000)
        rc = run([*big_subject_pair, "--memory-budget", str(budget),
                  "--workers", "2", "-o", str(tmp_path / "x.m8")])
        assert rc == 0
        assert "ignor" in capsys.readouterr().err  # ignored/ignoring warning

    def test_budget_requires_oris(self, fasta_pair, capsys):
        rc = run([*fasta_pair, "--engine", "blastn",
                  "--memory-budget", "1G"])
        assert rc == 2

    def test_stats_report_rss(self, fasta_pair, tmp_path, capsys):
        rc = run([*fasta_pair, "--stats", "-o", str(tmp_path / "r.m8")])
        assert rc == 0
        err = capsys.readouterr().err
        assert "# resources: rss_peak=" in err
        assert "rss_peak=0B" not in err


class TestIngestFlag:
    def test_skip_policy_drops_bad_records(self, tmp_path, rng, capsys):
        core = random_dna(rng, 200)
        good = Bank.from_strings([("q1", core)])
        q = tmp_path / "q.fa"
        good.to_fasta(q)
        s = tmp_path / "s.fa"
        s.write_text(f">junk\nACGT!!!!\n>s1\n{core}\n")
        out = tmp_path / "o.m8"
        rc = run([str(q), str(s), "--ingest", "skip", "-o", str(out)])
        assert rc == 0
        recs = read_m8(out)
        assert recs and all(r.subject_id == "s1" for r in recs)

    def test_gzip_input_end_to_end(self, tmp_path, rng):
        import gzip

        core = random_dna(rng, 200)
        q = tmp_path / "q.fa"
        Bank.from_strings([("q1", core)]).to_fasta(q)
        sgz = tmp_path / "s.fa.gz"
        sgz.write_bytes(gzip.compress(f">s1\n{core}\n".encode()))
        out = tmp_path / "o.m8"
        rc = run([str(q), str(sgz), "-o", str(out)])
        assert rc == 0
        assert read_m8(out)


class TestObservabilityFlags:
    def test_metrics_json_reports_funnel_with_aborts(
        self, fasta_pair, tmp_path
    ):
        # Acceptance criterion: on an example bank pair the --metrics
        # snapshot shows a funnel where the ordered-seed cutoff fired.
        out = tmp_path / "o.m8"
        metrics = tmp_path / "metrics.json"
        rc = run([*fasta_pair, "-o", str(out), "--metrics", str(metrics)])
        assert rc == 0
        import json

        doc = json.loads(metrics.read_text())
        assert doc["schema"] == "scoris-metrics/1"
        funnel = doc["funnel"]
        aborts = (
            funnel["step2.cutoff_aborts_left"]
            + funnel["step2.cutoff_aborts_right"]
        )
        assert aborts > 0
        assert funnel["step2.hit_pairs"] == funnel["step2.extensions_started"]
        assert funnel["step4.records"] == len(read_m8(out))
        assert doc["timings_seconds"]["total"] >= 0
        assert doc["counters"]["n_pairs"] == funnel["step2.hit_pairs"]
        # The snapshot's views keep their keys.
        assert sorted(doc["timings_seconds"]) == [
            "display", "gapped", "index", "total", "ungapped",
        ]
        assert list(doc["counters"]) == sorted(METRICS_OUT_COUNTERS)
        # The snapshot is loadable back into a consistent registry.
        from repro.obs import MetricsRegistry, check_funnel

        assert check_funnel(MetricsRegistry.from_dict(doc["metrics"])) == []

    def test_trace_writes_valid_jsonl(self, fasta_pair, tmp_path):
        import json

        trace = tmp_path / "trace.jsonl"
        rc = run(
            [*fasta_pair, "-o", str(tmp_path / "o.m8"), "--trace", str(trace)]
        )
        assert rc == 0
        events = [json.loads(line) for line in trace.read_text().splitlines()]
        names = {e["name"] for e in events}
        assert {"ingest", "step1.index", "step2.extend"} <= names
        assert all(e["dur"] >= 0 for e in events)
        # The module-global tracer must not leak into later invocations.
        rc = run([*fasta_pair, "-o", str(tmp_path / "o2.m8")])
        assert rc == 0
        assert len(trace.read_text().splitlines()) == len(events)

    def test_profile_dumps_and_merged_report(self, fasta_pair, tmp_path, capsys):
        prof = tmp_path / "prof"
        rc = run(
            [
                *fasta_pair,
                "-o",
                str(tmp_path / "o.m8"),
                "--profile",
                "cprofile",
                "--profile-out",
                str(prof),
            ]
        )
        assert rc == 0
        assert list(prof.glob("*.pstats"))
        err = capsys.readouterr().err
        assert "merged profile" in err
        assert "cumulative" in err

    def test_stats_prints_funnel_table(self, fasta_pair, capsys):
        rc = run([*fasta_pair, "--stats", "-o", "/dev/null"])
        assert rc == 0
        err = capsys.readouterr().err
        assert "# funnel:" in err
        assert "step2 cutoff aborts" in err

    def test_worker_metrics_match_serial(self, fasta_pair, tmp_path):
        import json

        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        rc = run([*fasta_pair, "-o", "/dev/null", "--metrics", str(serial)])
        assert rc == 0
        rc = run(
            [
                *fasta_pair,
                "-o",
                "/dev/null",
                "--workers",
                "2",
                "--metrics",
                str(parallel),
            ]
        )
        assert rc == 0
        f1 = json.loads(serial.read_text())["funnel"]
        f2 = json.loads(parallel.read_text())["funnel"]
        assert f1 == f2


class TestSubcommands:
    def test_explicit_compare_subcommand(self, fasta_pair, tmp_path):
        p1, p2 = fasta_pair
        out = tmp_path / "out.m8"
        implicit = tmp_path / "implicit.m8"
        assert run(["compare", p1, p2, "-o", str(out)]) == 0
        assert run([p1, p2, "-o", str(implicit)]) == 0
        assert out.read_bytes() == implicit.read_bytes()

    def test_serve_parser_shares_parameter_groups(self):
        from repro.cli import build_query_parser, build_serve_parser

        args = build_serve_parser().parse_args(["bank.fa"])
        # The seed/scoring groups are the same ones compare uses.
        assert args.word_size == 11
        assert args.filter_kind == "dust"
        assert args.match == 1 and args.mismatch == 3
        assert args.port == 0 and args.host == "127.0.0.1"
        qargs = build_query_parser().parse_args(
            ["q.fa", "--port", "7878", "--timeout", "5"]
        )
        assert qargs.port == 7878 and qargs.timeout == 5.0

    def test_query_requires_port(self, capsys):
        from repro.cli import build_query_parser

        with pytest.raises(SystemExit):
            build_query_parser().parse_args(["q.fa"])

    def test_serve_and_query_end_to_end(self, fasta_pair, tmp_path):
        from repro.cli import run as cli_run
        from repro.core import OrisParams
        from repro.io.validate import load_bank
        from repro.serve import OrisDaemon, ServeConfig

        p1, p2 = fasta_pair
        reference = tmp_path / "reference.m8"
        assert cli_run([p1, p2, "-o", str(reference)]) == 0

        bank2, _ = load_bank(p2)
        daemon = OrisDaemon(
            bank2, OrisParams(), ServeConfig(n_workers=1, check_memory=False)
        )
        daemon.start()
        _, port = daemon.address
        try:
            served = tmp_path / "served.m8"
            code = cli_run(
                ["query", p1, "--port", str(port), "-o", str(served)]
            )
            assert code == 0
            assert served.read_bytes() == reference.read_bytes()
        finally:
            daemon.shutdown()

    def test_query_connection_refused_is_resource_error(
        self, fasta_pair, capsys
    ):
        import socket

        p1, _ = fasta_pair
        sock = socket.socket()
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
        sock.close()  # now certainly nothing is listening there
        assert run(["query", p1, "--port", str(port)]) == 4
        assert "cannot reach daemon" in capsys.readouterr().err


class TestServeFlagErrors:
    """Bad frontend flags are usage errors (exit 2) caught before any
    bank is loaded, index built or shard daemon spawned."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        import repro.cli as cli_mod
        from repro.serve.fleet import ShardManager

        def refuse(*_args, **_kwargs):
            raise AssertionError("work started despite a bad flag")

        monkeypatch.setattr(cli_mod, "load_bank", refuse)
        monkeypatch.setattr(ShardManager, "start", refuse)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["serve", "--max-queue", "0"], "max_queue must be >= 1"),
            (["serve", "--max-batch-queries", "0"], "batch caps must be >= 1"),
            (["serve", "--max-delay-ms", "-1"], "max_delay_ms must be >= 0"),
            (["serve", "--request-timeout", "inf"], "request_timeout_s"),
            (["serve", "--request-timeout", "nan"], "request_timeout_s"),
            (["serve", "--request-timeout", "1e300"], "request_timeout_s"),
            (["serve-fleet", "--request-timeout", "1e300"], "request_timeout_s"),
            (["serve-fleet", "--max-queue", "0"], "max_queue must be >= 1"),
            (["serve-fleet", "--tenant-quota", "0"], "quota must be >= 1"),
            (["serve-fleet", "--max-query-nt", "0"], "max_query_nt must be >= 1"),
            (["serve", "--port", "70000"], "port must be in 0..65535"),
            (["serve-fleet", "--port", "-1"], "port must be in 0..65535"),
        ],
    )
    def test_exit_2_before_any_work(
        self, fasta_pair, no_work, capsys, argv, message
    ):
        _, bank = fasta_pair
        assert run([argv[0], bank, *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    def test_busy_port_is_a_clean_error(self, fasta_pair, capsys):
        import socket

        _, bank = fasta_pair
        with socket.create_server(("127.0.0.1", 0)) as busy:
            port = busy.getsockname()[1]
            code = run(["serve", bank, "--port", str(port)])
        assert code == 3
        err = capsys.readouterr().err
        assert "in use" in err and "Traceback" not in err


class TestIndexCacheCap:
    def test_cap_flag_parses_sizes(self, fasta_pair, tmp_path):
        p1, p2 = fasta_pair
        cache_dir = tmp_path / "cache"
        assert run(
            [p1, p2, "-o", str(tmp_path / "x.m8"),
             "--index-cache", str(cache_dir),
             "--index-cache-max-bytes", "1G"]
        ) == 0
        assert list(cache_dir.glob("*.scoris3"))

    def test_cap_without_cache_dir_is_usage_error(self, fasta_pair, capsys):
        p1, p2 = fasta_pair
        assert run([p1, p2, "--index-cache-max-bytes", "1G"]) == 2
        assert "--index-cache" in capsys.readouterr().err

    def test_bad_cap_syntax_is_usage_error(self, fasta_pair, tmp_path, capsys):
        p1, p2 = fasta_pair
        code = run(
            [p1, p2, "--index-cache", str(tmp_path / "c"),
             "--index-cache-max-bytes", "lots"]
        )
        assert code == 2

    def test_tiny_cap_evicts_and_reports(self, fasta_pair, tmp_path, capsys):
        p1, p2 = fasta_pair
        cache_dir = tmp_path / "cache"
        # Two different subject banks through a 1-byte cache: the second
        # store evicts the first archive.
        assert run(
            [p1, p2, "-o", str(tmp_path / "a.m8"),
             "--index-cache", str(cache_dir),
             "--index-cache-max-bytes", "1"]
        ) == 0
        assert run(
            [p2, p1, "-o", str(tmp_path / "b.m8"),
             "--index-cache", str(cache_dir),
             "--index-cache-max-bytes", "1"]
        ) == 0
        survivors = list(cache_dir.glob("*.scoris3"))
        assert len(survivors) == 1
