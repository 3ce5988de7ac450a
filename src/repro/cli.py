"""``scoris-n``: command-line interface to the reproduction.

Mirrors the paper's usage (section 3.1/3.3): two FASTA banks in, BLAST
``-m 8`` tabular records out, with the paper's defaults (W = 11, e-value
1e-3, single strand, DUST-like filter).  The reference BLASTN invocation
the paper compares against --

    blastall -p blastn -d A -i B -o R -m 8 -e 0.001 -S 1

-- maps onto ``scoris-n --engine blastn B A -o R`` (note blastall's -i is
the query bank).

Examples
--------

Compare two banks with the ORIS engine::

    scoris-n bank1.fa bank2.fa -o hits.m8

Same comparison with the BLASTN-like baseline, both strands, stats::

    scoris-n bank1.fa bank2.fa --engine blastn --strand both --stats

Survive dirty inputs and bounded memory::

    scoris-n messy.fa.gz bank2.fa --ingest lenient --memory-budget 2G

Serve a resident subject bank and query it (``compare`` is implied when
the first argument is not a subcommand, so existing invocations keep
working)::

    scoris-n serve bank2.fa --port 7878 --workers 4
    scoris-n query queries.fa --port 7878 -o hits.m8

Serve a *mutable* subject bank (crash-safe segment store on disk) and
change it while queries are in flight::

    scoris-n serve seed.fa --store bankdir/ --port 7878
    scoris-n add-sequences new.fa --port 7878
    scoris-n remove-sequences contig7 contig9 --port 7878
    scoris-n reindex --port 7878
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .baselines import (
    BlastnEngine,
    BlastnParams,
    BlastzEngine,
    BlastzParams,
    BlatEngine,
    BlatParams,
)
from .core import OrisEngine, OrisParams
from .align.scoring import ScoringScheme
from .io.fasta import FastaError
from .io.m8 import format_m8
from .io.validate import POLICIES, IngestReport, load_bank
from .runtime.errors import (
    EXIT_INPUT,
    EXIT_CORRUPT,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    CheckpointCorrupt,
    IndexCorrupt,
    InputError,
    ResourceExhausted,
    RunInterrupted,
    exit_code_for,
)

__all__ = [
    "main",
    "build_admin_parser",
    "build_parser",
    "build_query_parser",
    "build_serve_parser",
    "run",
]

#: Cap on per-record diagnostic lines printed to stderr (the totals are
#: always reported; this only bounds the line-by-line detail).
_MAX_DIAGNOSTIC_LINES = 25

_EXIT_CODE_EPILOG = """\
exit codes:
  0    success
  1    unexpected internal failure
  2    usage error (bad flags or flag combinations)
  3    invalid input (malformed FASTA, no valid records); run with
       --ingest lenient to salvage what can be salvaged
  4    resource exhausted (memory budget infeasible, checkpoint disk
       preflight failed, out of memory / disk)
  5    corrupt checkpoint journal or persisted index archive
  130  interrupted by SIGTERM/SIGINT; with --checkpoint the journal is
       flushed before exit, so re-running with --resume continues from
       the interruption point
"""


def _add_ingest_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--ingest", choices=POLICIES, default="strict", metavar="POLICY",
        help="ingestion policy for malformed/ambiguous FASTA: 'strict' "
        "rejects with structured diagnostics (exit 3), 'lenient' "
        "normalises what it can (IUPAC codes and junk -> N, soft-masking "
        "uppercased, gaps stripped) and drops the rest with warnings, "
        "'skip' drops any problematic record whole (default: strict)",
    )


def _add_seed_args(parser: argparse.ArgumentParser) -> None:
    """Seeding/reporting parameters shared by compare and serve."""
    parser.add_argument(
        "-W", "--word-size", type=int, default=11,
        help="seed width (paper default: 11)",
    )
    parser.add_argument(
        "-e", "--evalue", type=float, default=1e-3,
        help="report threshold on e-values (paper runs use 1e-3)",
    )
    parser.add_argument(
        "--filter", choices=("dust", "entropy", "none"), default="dust",
        dest="filter_kind", help="low-complexity filter before indexing",
    )
    parser.add_argument(
        "--sort", choices=("evalue", "score", "coords"), default="evalue",
        help="output sort criterion (paper step 4; default evalue)",
    )
    parser.add_argument(
        "--kernel", choices=("vector", "scalar"), default="vector",
        help="ORIS step-2 extension kernel: 'vector' (tile-sweep over "
        "2-bit packed banks, default) or 'scalar' (historical per-column "
        "kernel).  Output is byte-identical either way; 'scalar' exists "
        "for differential testing and as a fallback",
    )


def _add_scoring_args(parser: argparse.ArgumentParser) -> None:
    """Alignment scoring parameters shared by compare and serve."""
    parser.add_argument(
        "--match", type=int, default=1, help="match score (default 1)"
    )
    parser.add_argument(
        "--mismatch", type=int, default=3,
        help="mismatch penalty, positive (default 3)",
    )
    parser.add_argument(
        "--xdrop", type=int, default=16,
        help="ungapped extension x-drop (default 16)",
    )
    parser.add_argument(
        "--xdrop-gapped", type=int, default=24,
        help="gapped extension x-drop (default 24)",
    )
    parser.add_argument(
        "--band-radius", type=int, default=16,
        help="gapped extension band half-width (default 16)",
    )


def _add_index_cache_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--index-cache", default=None, metavar="DIR",
        help="cache built seed indexes in DIR keyed by bank content + "
        "parameters; repeat runs over the same banks load the index O(1) "
        "via mmap instead of rebuilding it (standard contiguous seeds "
        "only; spaced/asymmetric runs bypass the cache)",
    )
    parser.add_argument(
        "--index-cache-max-bytes", default=None, metavar="SIZE",
        help="cap the --index-cache directory (e.g. 512M, 2G); archives "
        "are evicted least-recently-used after each store until the "
        "total fits (default: unbounded)",
    )


def _add_obs_args(
    parser: argparse.ArgumentParser, profile: bool = True
) -> None:
    parser.add_argument(
        "--stats", action="store_true",
        help="print per-step timings, work counters, the hit/extension "
        "funnel, ingestion and resource-governor reports to stderr",
    )
    parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="write a JSONL trace of pipeline spans (one event per "
        "span close, with pid/parent/depth/duration) to FILE; worker "
        "processes append to the same file",
    )
    parser.add_argument(
        "--metrics", default=None, metavar="FILE", dest="metrics_out",
        help="write a machine-readable JSON metrics snapshot (funnel "
        "counts, per-step timings, histograms) to FILE",
    )
    if profile:
        parser.add_argument(
            "--profile", choices=("none", "cprofile"), default="none",
            help="profile the run with cProfile: each process dumps pstats "
            "into --profile-out and a merged top-25 report is printed to "
            "stderr (default: none)",
        )
        parser.add_argument(
            "--profile-out", default=".scoris-profile", metavar="DIR",
            help="directory for per-process .pstats dumps under --profile "
            "(default: .scoris-profile)",
        )


def _add_frontend_args(parser: argparse.ArgumentParser):
    """Flags shared by ``serve`` and ``serve-fleet``; returns the
    admission group so each command can add its own admission flag."""
    parser.add_argument(
        "--host", default="127.0.0.1", help="bind address (default: loopback)"
    )
    parser.add_argument(
        "--port", type=int, default=0,
        help="bind port (default 0 = pick a free port; see the READY line)",
    )
    parser.add_argument(
        "--announce-file", default=None, metavar="PATH",
        help="also write the bound address as JSON ({host, port, pid}) "
        "to PATH once the frontend is listening; written atomically, so "
        "a supervisor can poll the file instead of scraping stdout",
    )
    admission = parser.add_argument_group("admission control")
    admission.add_argument(
        "--max-queue", type=int, default=64, metavar="N",
        help="in-flight request cap; excess requests are shed with a "
        "clean 'shed' status (default 64)",
    )
    admission.add_argument(
        "--max-query-nt", type=int, default=1_000_000, metavar="NT",
        help="per-query size cap (default 1000000)",
    )
    admission.add_argument(
        "--request-timeout", type=float, default=60.0, metavar="SECONDS",
        help="default server-side deadline per query (default 60)",
    )
    # Hidden chaos-testing hook: arm deterministic fault points
    # (repro.runtime.faults specs, e.g. "worker.crash:0.05:1234").  The
    # spec is exported as SCORIS_FAULTS so spawned workers inherit it.
    parser.add_argument("--faults", default=None, help=argparse.SUPPRESS)
    _add_ingest_arg(parser)
    _add_seed_args(parser)
    _add_scoring_args(parser)
    _add_obs_args(parser, profile=False)
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    return admission


def build_parser() -> argparse.ArgumentParser:
    """The ``compare`` parser -- also the implicit default subcommand.

    Kept flag-for-flag compatible with the pre-subcommand CLI: every
    historical ``scoris-n bank1.fa bank2.fa ...`` invocation parses
    unchanged.
    """
    parser = argparse.ArgumentParser(
        prog="scoris-n",
        description="Intensive DNA bank comparison with the ORIS algorithm "
        "(reproduction of Lavenier, HiCOMB 2008).  Subcommands: 'compare' "
        "(default, two banks -> m8), 'serve' (resident query daemon), "
        "'query' (client for a running daemon).",
        epilog=_EXIT_CODE_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "bank1", help="first bank (FASTA, optionally gzip); the query side"
    )
    parser.add_argument(
        "bank2", help="second bank (FASTA, optionally gzip); the subject side"
    )
    parser.add_argument(
        "-o", "--output", default="-",
        help="output file for -m8 records (default: stdout)",
    )
    parser.add_argument(
        "--engine", choices=("oris", "blastn", "blat", "blastz"), default="oris",
        help="comparison engine (default: oris)",
    )
    _add_ingest_arg(parser)
    _add_seed_args(parser)
    parser.add_argument(
        "--strand", choices=("plus", "both"), default="plus",
        help="search single strand (paper prototype) or both "
        "(oris and blastn only)",
    )
    parser.add_argument(
        "--asymmetric", action="store_true",
        help="ORIS only: the paper's asymmetric 10-nt indexing (section 3.4)",
    )
    parser.add_argument(
        "--spaced-seed", default=None, metavar="MASK",
        help="ORIS only: spaced-seed mask, e.g. 111010010100110111 "
        "(PatternHunter weight-11); overrides -W",
    )
    _add_scoring_args(parser)
    parser.add_argument(
        "--memory-budget", default=None, metavar="SIZE",
        help="ORIS only: memory ceiling (e.g. 512M, 2G).  When the "
        "estimated index footprint exceeds it, the subject bank is "
        "processed in memory-bounded tiles (shrunk until they fit) "
        "instead of dying on an OOM kill; exit 4 if no tiling can fit",
    )
    parser.add_argument(
        "--tile-overlap", type=int, default=10_000, metavar="NT",
        help="overlap between subject tiles under --memory-budget "
        "degradation; the output is exact when it is at least about "
        "twice the longest query plus 600 nt (default 10000)",
    )
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="ORIS only: worker processes for steps 2 and 3 (default 1 "
        "= serial); N > 1 runs the fault-tolerant scheduler (paper section 4 "
        "parallelism with retries, timeouts and crash recovery)",
    )
    parser.add_argument(
        "--checkpoint", default=None, metavar="DIR",
        help="ORIS only: journal completed step-2 ranges to DIR so a "
        "killed run can be resumed with --resume (free disk space is "
        "preflighted; SIGTERM/SIGINT flush the journal before exit)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="resume from the --checkpoint journal, skipping ranges a "
        "previous (killed or interrupted) run already completed",
    )
    parser.add_argument(
        "--task-timeout", type=float, default=None, metavar="SECONDS",
        help="per-range-task deadline; a task past it is killed and "
        "requeued on a fresh worker (default: no timeout)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=2, metavar="K",
        help="re-executions allowed per range task before it is "
        "quarantined (default 2)",
    )
    parser.add_argument(
        "--no-shm", action="store_true",
        help="ORIS only: disable the shared-memory arena and ship each "
        "worker a pickled copy of the banks/indexes instead (the "
        "pre-arena behaviour; also the automatic fallback when /dev/shm "
        "cannot hold the arena)",
    )
    _add_index_cache_args(parser)
    _add_obs_args(parser)
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    return parser


def build_serve_parser() -> argparse.ArgumentParser:
    """Parser for ``scoris-n serve`` (the resident query daemon)."""
    parser = argparse.ArgumentParser(
        prog="scoris-n serve",
        description="Load and index a subject bank once, then answer "
        "query requests over a socket until SIGTERM.  The bound address "
        "is announced on stdout as 'SERVE READY host=H port=P'.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "bank", nargs="?", default=None,
        help="subject bank to serve (FASTA, optionally gzip); with "
        "--store, only needed (and only accepted) to seed a new store",
    )
    parser.add_argument(
        "--store", default=None, metavar="DIR",
        help="serve a *mutable* subject bank backed by a crash-safe "
        "segment store in DIR (WAL + immutable segments + atomic "
        "manifest).  First run: give a seed bank to initialise the "
        "store; later runs reopen DIR and the bank argument must be "
        "omitted.  Enables the add-sequences / remove-sequences / "
        "reindex admin commands",
    )
    parser.add_argument(
        "--store-flush-nt", type=int, default=8_000_000, metavar="NT",
        help="fold the in-memory delta into an immutable segment once "
        "it holds this many nucleotides (default 8000000)",
    )
    parser.add_argument(
        "--store-max-segments", type=int, default=8, metavar="N",
        help="compact the store down to one segment when it exceeds "
        "this many (default 8)",
    )
    parser.add_argument(
        "--workers", type=int, default=1, metavar="N",
        help="persistent worker processes for step 2 (default 1 = serial)",
    )
    parser.add_argument(
        "--no-shm", action="store_true",
        help="disable the shared-memory arena and ship each worker a "
        "pickled copy of the payload instead",
    )
    batching = parser.add_argument_group("micro-batching")
    batching.add_argument(
        "--max-delay-ms", type=float, default=25.0, metavar="MS",
        help="how long the batcher waits for co-batchable queries after "
        "the first one arrives (default 25)",
    )
    batching.add_argument(
        "--max-batch-nt", type=int, default=2_000_000, metavar="NT",
        help="residue budget per batch (default 2000000)",
    )
    batching.add_argument(
        "--max-batch-queries", type=int, default=64, metavar="N",
        help="query count cap per batch (default 64)",
    )
    admission = _add_frontend_args(parser)
    admission.add_argument(
        "--no-memory-check", action="store_true",
        help="skip the governor's available-memory preflight on admission",
    )
    parser.add_argument(
        "--fleet-profile", default=None, metavar="PATH",
        help="serve as one shard of a fleet: compute S1 thresholds and "
        "e-values from the global subject statistics in this planner-"
        "written profile JSON instead of the local tile's own (see "
        "'serve-fleet'; incompatible with --store)",
    )
    _add_index_cache_args(parser)
    return parser


def build_serve_fleet_parser() -> argparse.ArgumentParser:
    """Parser for ``scoris-n serve-fleet`` (sharded scatter-gather)."""
    parser = argparse.ArgumentParser(
        prog="scoris-n serve-fleet",
        description="Cut the subject bank into overlapping shards, run "
        "one query daemon per shard, and front them with a router that "
        "speaks the same protocol as 'serve' -- 'scoris-n query' works "
        "against it unchanged.  Fleet output is byte-identical to a "
        "single daemon over the whole bank: shards use the planner's "
        "global statistics and the router deduplicates seam-straddling "
        "alignments by window ownership.  The bound address is announced "
        "on stdout as 'FLEET READY host=H port=P shards=N'.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("bank", help="subject bank (FASTA, optionally gzip)")
    parser.add_argument(
        "--shards", type=int, default=2, metavar="N",
        help="target shard count; the planner may produce fewer for "
        "tiny banks (exactness never depends on the count; default 2)",
    )
    parser.add_argument(
        "--shard-overlap", type=int, default=None, metavar="NT",
        help="window overlap between adjacent shards of a long "
        "sequence; must be at least twice the longest alignment span "
        "(default: computed from --max-query-nt)",
    )
    parser.add_argument(
        "--work-dir", default=None, metavar="DIR",
        help="directory for shard FASTAs, the plan, and announce files "
        "(default: a temporary directory, removed on exit)",
    )
    parser.add_argument(
        "--workers-per-shard", type=int, default=1, metavar="N",
        help="step-2 worker processes per shard daemon (default 1)",
    )
    admission = _add_frontend_args(parser)
    admission.add_argument(
        "--tenant-quota", type=int, default=None, metavar="N",
        help="per-tenant in-flight cap layered on the global queue: a "
        "query may carry a 'tenant' field, and a tenant over its quota "
        "is shed before it can starve the others (default: disabled)",
    )
    return parser


def build_query_parser() -> argparse.ArgumentParser:
    """Parser for ``scoris-n query`` (client for a running daemon)."""
    parser = argparse.ArgumentParser(
        prog="scoris-n query",
        description="Send the sequences of a FASTA file to a running "
        "'scoris-n serve' daemon and collect their -m8 records.",
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument(
        "queries", help="query sequences (FASTA, optionally gzip)"
    )
    parser.add_argument(
        "--host", default="127.0.0.1", help="daemon address (default: loopback)"
    )
    parser.add_argument(
        "--port", type=int, required=True, help="daemon port (see READY line)"
    )
    parser.add_argument(
        "-o", "--output", default="-",
        help="output file for -m8 records (default: stdout)",
    )
    parser.add_argument(
        "--timeout", type=float, default=60.0, metavar="SECONDS",
        help="per-query deadline, applied on both sides (default 60)",
    )
    _add_ingest_arg(parser)
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    return parser


def build_admin_parser(command: str) -> argparse.ArgumentParser:
    """Parser for the bank-mutation admin commands.

    ``add-sequences`` sends FASTA records to a running ``serve --store``
    daemon; ``remove-sequences`` tombstones sequences by name;
    ``reindex`` compacts the daemon's segment store.  All three are
    zero-downtime: queries in flight keep running against the old bank
    and later queries see the new one.
    """
    descriptions = {
        "add-sequences": "Durably add the sequences of a FASTA file to "
        "a running 'scoris-n serve --store' daemon's subject bank.",
        "remove-sequences": "Durably remove sequences (by name) from a "
        "running 'scoris-n serve --store' daemon's subject bank.",
        "reindex": "Compact a running daemon's segment store down to "
        "one segment (folds the delta, drops tombstones, resets the WAL).",
    }
    parser = argparse.ArgumentParser(
        prog=f"scoris-n {command}",
        description=descriptions[command],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    if command == "add-sequences":
        parser.add_argument(
            "sequences", help="sequences to add (FASTA, optionally gzip)"
        )
        _add_ingest_arg(parser)
    elif command == "remove-sequences":
        parser.add_argument(
            "names", nargs="+", help="sequence names to remove"
        )
    parser.add_argument(
        "--host", default="127.0.0.1", help="daemon address (default: loopback)"
    )
    parser.add_argument(
        "--port", type=int, required=True, help="daemon port (see READY line)"
    )
    parser.add_argument(
        "--timeout", type=float, default=300.0, metavar="SECONDS",
        help="socket timeout for the operation (default 300; compaction "
        "of a large store can take a while)",
    )
    parser.add_argument(
        "--version", action="version", version=f"%(prog)s {__version__}"
    )
    return parser


def _fail_usage(message: str) -> int:
    print(f"scoris-n: {message}", file=sys.stderr)
    return EXIT_USAGE


def _arm_faults(args: argparse.Namespace) -> int | None:
    """Parse the fault spec once, before any subcommand runs.

    The spec comes from the hidden ``--faults`` flag when given, else
    from ``SCORIS_FAULTS``.  A malformed spec is a usage error (exit 2)
    for every subcommand and worker count alike -- never a worker that
    dies on it.  A ``--faults`` spec is exported to the environment so
    spawn-method workers, which re-arm from it, see the same faults.
    """
    import os

    from .runtime import faults

    text = getattr(args, "faults", None) or os.environ.get(faults.ENV_VAR, "")
    try:
        faults.arm(text)
    except faults.FaultSpecError as exc:
        return _fail_usage(str(exc))
    if text:
        os.environ[faults.ENV_VAR] = text
    return None


def _print_diagnostics(diagnostics, limit: int = _MAX_DIAGNOSTIC_LINES) -> None:
    for d in diagnostics[:limit]:
        print(f"scoris-n: {d.format()}", file=sys.stderr)
    if len(diagnostics) > limit:
        print(
            f"scoris-n: ... and {len(diagnostics) - limit} more diagnostic(s)",
            file=sys.stderr,
        )


def _make_index_cache(args):
    """Resolve ``--index-cache``/``--index-cache-max-bytes`` flags.

    Returns ``(exit_code, cache)``: the exit code is ``None`` unless the
    flag combination is invalid, the cache is ``None`` when not requested.
    """
    from .runtime.governor import parse_size

    if args.index_cache_max_bytes is not None and args.index_cache is None:
        return (
            _fail_usage("--index-cache-max-bytes requires --index-cache DIR"),
            None,
        )
    max_bytes = None
    if args.index_cache_max_bytes is not None:
        try:
            max_bytes = parse_size(args.index_cache_max_bytes)
        except ValueError as exc:
            return _fail_usage(f"--index-cache-max-bytes: {exc}"), None
    if args.index_cache is None:
        return None, None
    from .index import IndexCache

    return None, IndexCache(args.index_cache, max_bytes=max_bytes)


def _load_banks(args) -> tuple:
    """Ingest both banks under the chosen policy, reporting warnings."""
    reports: list[IngestReport] = []
    banks = []
    for path in (args.bank1, args.bank2):
        bank, report = load_bank(path, policy=args.ingest)
        if report.warnings:
            _print_diagnostics(report.warnings)
        reports.append(report)
        banks.append(bank)
    return banks[0], banks[1], reports


#: Recognised first tokens; anything else is an implicit ``compare``.
_SUBCOMMANDS = (
    "compare",
    "serve",
    "serve-fleet",
    "query",
    "add-sequences",
    "remove-sequences",
    "reindex",
)


def run(argv: list[str] | None = None) -> int:
    """Entry point logic; returns the process exit code.

    The first argument selects a subcommand (``compare``, ``serve``,
    ``query``); any other first argument -- including every historical
    two-bank invocation -- is parsed as an implicit ``compare``.

    Every failure the pipeline can recognise maps onto a documented exit
    code (see ``--help``) with a structured message on stderr -- never a
    traceback.  Genuinely unexpected exceptions still propagate, because
    hiding an unknown bug behind exit 1 would make it undiagnosable.
    """
    if argv is None:
        argv = sys.argv[1:]
    argv = list(argv)
    if argv and argv[0] in _SUBCOMMANDS:
        command, rest = argv[0], argv[1:]
    else:
        command, rest = "compare", argv
    if command == "serve":
        args = build_serve_parser().parse_args(rest)
        execute = _execute_serve
    elif command == "serve-fleet":
        args = build_serve_fleet_parser().parse_args(rest)
        execute = _execute_serve_fleet
    elif command == "query":
        args = build_query_parser().parse_args(rest)
        execute = _execute_query
    elif command in ("add-sequences", "remove-sequences", "reindex"):
        args = build_admin_parser(command).parse_args(rest)
        args.command = command
        execute = _execute_admin
    else:
        args = build_parser().parse_args(rest)
        execute = _execute
    error = _arm_faults(args)
    if error is not None:
        return error
    try:
        try:
            return execute(args)
        finally:
            # The tracer is module-global state; never leak it past one
            # CLI invocation (tests call run() many times per process).
            from .obs import disable_tracing

            disable_tracing()
    except InputError as exc:
        _print_diagnostics(exc.diagnostics)
        print(f"scoris-n: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except FastaError as exc:
        print(f"scoris-n: input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (CheckpointCorrupt, IndexCorrupt) as exc:
        print(f"scoris-n: corrupt data: {exc}", file=sys.stderr)
        return EXIT_CORRUPT
    except (ResourceExhausted, MemoryError) as exc:
        print(f"scoris-n: resource exhausted: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except RunInterrupted as exc:
        print(f"scoris-n: {exc}", file=sys.stderr)
        return EXIT_INTERRUPTED
    except KeyboardInterrupt:
        print("scoris-n: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except OSError as exc:
        print(f"scoris-n: {exc}", file=sys.stderr)
        return exit_code_for(exc)


def _obs_spec(args):
    """The run's :class:`ObsSpec` from the ``_add_obs_args`` flags; arms
    tracing under ``--trace``.  The serving commands have no ``--profile``."""
    import os

    from .obs import ObsSpec, configure_tracing

    profile = getattr(args, "profile", "none")
    obs = ObsSpec(
        trace_path=os.path.abspath(args.trace) if args.trace else None,
        profile_mode=profile,
        profile_dir=os.path.abspath(args.profile_out) if profile != "none" else None,
    )
    if obs.trace_path is not None:
        configure_tracing(obs.trace_path)
    return obs


def _execute(args) -> int:
    from .runtime.governor import (
        estimate_checkpoint_bytes,
        format_size,
        parse_size,
        plan_comparison,
        preflight_disk,
        sample_rss,
    )

    use_runtime = (
        args.workers > 1 or args.checkpoint is not None or args.resume
    )
    if args.resume and args.checkpoint is None:
        return _fail_usage("--resume requires --checkpoint DIR")
    if use_runtime and args.engine != "oris":
        return _fail_usage(
            "--workers/--checkpoint/--resume require --engine oris"
        )
    if use_runtime and args.strand != "plus":
        return _fail_usage(
            "the resilient runtime searches a single strand (--strand plus)"
        )
    if args.engine in ("blat", "blastz") and args.strand != "plus":
        return _fail_usage(
            f"--engine {args.engine} searches a single strand (--strand plus)"
        )
    budget = None
    if args.memory_budget is not None:
        if args.engine != "oris":
            return _fail_usage("--memory-budget requires --engine oris")
        try:
            budget = parse_size(args.memory_budget)
        except ValueError as exc:
            return _fail_usage(f"--memory-budget: {exc}")
    if args.tile_overlap < 0:
        return _fail_usage("--tile-overlap must be >= 0")
    if args.index_cache is not None and args.engine != "oris":
        return _fail_usage("--index-cache requires --engine oris")
    error, index_cache = _make_index_cache(args)
    if error is not None:
        return error

    from .obs import maybe_profile, span

    obs = _obs_spec(args)
    scoring = _scoring(args)
    with span("ingest"):
        bank1, bank2, ingest_reports = _load_banks(args)

    if args.engine == "oris":
        engine = OrisEngine(
            _oris_params(
                args,
                asymmetric=args.asymmetric,
                spaced_seed=args.spaced_seed,
                strand=args.strand,
            )
        )
    elif args.engine == "blastn":
        engine = BlastnEngine(
            BlastnParams(
                w=args.word_size,
                scoring=scoring,
                filter_kind=args.filter_kind,
                max_evalue=args.evalue,
                band_radius=args.band_radius,
                strand=args.strand,
                sort_key=args.sort,
            )
        )
    elif args.engine == "blat":
        engine = BlatEngine(
            BlatParams(
                k=args.word_size,
                scoring=scoring,
                filter_kind=args.filter_kind,
                max_evalue=args.evalue,
                band_radius=args.band_radius,
                sort_key=args.sort,
            )
        )
    else:
        engine = BlastzEngine(
            BlastzParams(
                scoring=scoring,
                filter_kind=args.filter_kind,
                max_evalue=args.evalue,
                band_radius=args.band_radius,
                sort_key=args.sort,
            )
        )

    # ---- Resource governor: plan the run before building any index ---- #
    plan = None
    if args.engine == "oris" and budget is not None:
        plan = plan_comparison(
            bank1, bank2, budget, overlap=args.tile_overlap
        )
        if plan.degraded and args.strand != "plus":
            return _fail_usage(
                "--memory-budget degrades this run to tiled comparison, "
                "which searches a single strand (--strand plus)"
            )
        if plan.degraded and use_runtime:
            print(
                "scoris-n: warning: --memory-budget degradation uses the "
                "tiled engine, which runs serially without checkpoints; "
                "--workers/--checkpoint/--resume are ignored for this run",
                file=sys.stderr,
            )
            use_runtime = False
        if plan.degraded:
            print(f"scoris-n: governor: {plan.reason}", file=sys.stderr)

    if use_runtime:
        from .runtime.scheduler import (
            RuntimeConfig,
            ShutdownRequest,
            compare_resilient,
            signal_shutdown,
        )

        config = RuntimeConfig(
            n_workers=max(args.workers, 1),
            use_shm=not args.no_shm,
            task_timeout=args.task_timeout,
            max_retries=args.max_retries,
            checkpoint_dir=args.checkpoint,
            resume=args.resume,
        )
        if args.checkpoint is not None:
            n_tasks = config.n_workers * config.tasks_per_worker
            preflight_disk(args.checkpoint, estimate_checkpoint_bytes(n_tasks))
        stop = ShutdownRequest()
        with signal_shutdown(stop), maybe_profile(
            obs.profile_mode, obs.profile_dir, "main"
        ):
            result = compare_resilient(
                bank1, bank2, engine.params, config, stop=stop, obs=obs,
                index_cache=index_cache,
            )
    elif plan is not None and plan.degraded:
        from .core.tiled import compare_tiled

        with maybe_profile(obs.profile_mode, obs.profile_dir, "main"):
            result = compare_tiled(
                bank1,
                bank2,
                engine.params,
                tile_nt=plan.tile_nt,
                overlap=plan.overlap,
            )
        result.metrics.inc("governor.memory_degradations")
    else:
        if index_cache is not None and isinstance(engine, OrisEngine):
            engine.index_cache = index_cache
        with maybe_profile(obs.profile_mode, obs.profile_dir, "main"):
            result = engine.compare(bank1, bank2)

    if index_cache is not None:
        index_cache.record_metrics(result.metrics)
    sample_rss(result.metrics)
    peak = int(result.metrics.value("resources.rss_peak_bytes") or 0)
    if plan is not None and not plan.degraded and peak > budget:
        # The plan fitted the estimate, but the run did not keep it.
        result.metrics.inc("governor.budget_exceeded")
        print(
            f"scoris-n: governor: warning: measured peak RSS "
            f"{format_size(peak)} exceeds --memory-budget "
            f"{format_size(budget)}",
            file=sys.stderr,
        )
    text = format_m8(result.records)
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="ascii") as fh:
            fh.write(text)

    if args.metrics_out is not None:
        _write_metrics(args.metrics_out, result)
    if obs.profile_mode != "none":
        from .obs import merged_report

        report = merged_report(obs.profile_dir, top=25)
        if report is not None:
            print(report, file=sys.stderr)
    if args.stats:
        _print_stats(args, result, plan, ingest_reports, use_runtime)
    return EXIT_OK


def _scoring(args) -> ScoringScheme:
    return ScoringScheme(
        match=args.match,
        mismatch=args.mismatch,
        xdrop_ungapped=args.xdrop,
        xdrop_gapped=args.xdrop_gapped,
    )


def _oris_params(args, **extra) -> OrisParams:
    """ORIS parameters from the seed and scoring flags every command has."""
    return OrisParams(
        w=args.word_size,
        scoring=_scoring(args),
        filter_kind=args.filter_kind,
        max_evalue=args.evalue,
        band_radius=args.band_radius,
        sort_key=args.sort,
        kernel=args.kernel,
        **extra,
    )


def _serve_frontend(args, frontend, stop, index_cache=None) -> int:
    """Start a frontend, announce it, serve until SIGTERM, report."""
    from .runtime.scheduler import signal_shutdown

    try:
        frontend.start()
        if args.announce_file is not None:
            _write_announce(args.announce_file, *frontend.address)
        print(frontend.ready_message(), flush=True)
        with signal_shutdown(stop):
            code = frontend.serve_forever()
    finally:
        frontend.shutdown()
    if index_cache is not None:
        index_cache.record_metrics(frontend.registry)
    if args.metrics_out is not None:
        _write_serve_metrics(args.metrics_out, frontend.registry)
    if args.stats:
        _print_serve_stats(frontend.registry)
    return code


def _execute_serve(args) -> int:
    from .runtime.scheduler import ShutdownRequest
    from .serve import OrisDaemon, ServeConfig

    if args.workers < 1:
        return _fail_usage("--workers must be >= 1")
    if args.fleet_profile is not None and args.store is not None:
        return _fail_usage(
            "--fleet-profile serves an immutable shard tile; it cannot "
            "be combined with --store"
        )
    try:
        config = ServeConfig(
            host=args.host,
            port=args.port,
            n_workers=args.workers,
            max_delay_ms=args.max_delay_ms,
            max_batch_nt=args.max_batch_nt,
            max_batch_queries=args.max_batch_queries,
            max_queue=args.max_queue,
            max_query_nt=args.max_query_nt,
            request_timeout_s=args.request_timeout,
            use_shm=not args.no_shm,
            check_memory=not args.no_memory_check,
            store_flush_nt=args.store_flush_nt,
            store_max_segments=args.store_max_segments,
        )
    except ValueError as exc:
        return _fail_usage(str(exc))
    error, index_cache = _make_index_cache(args)
    if error is not None:
        return error
    obs = _obs_spec(args)

    params = _oris_params(args)

    # Subject source: a plain immutable bank, or a mutable segment store
    # (optionally seeded from a bank on its very first run).
    store = None
    bank2 = None
    if args.store is not None:
        from .index import SegmentStore

        try:
            store = SegmentStore.open(
                args.store,
                expect_w=params.w,
                expect_filter=params.filter_kind,
            )
        except FileNotFoundError:
            if args.bank is None:
                return _fail_usage(
                    f"--store {args.store} holds no store yet; give a "
                    "seed bank argument to initialise it"
                )
            seed_bank, report = load_bank(args.bank, policy=args.ingest)
            if report.warnings:
                _print_diagnostics(report.warnings)
            store = SegmentStore.create(
                args.store, w=params.w, filter_kind=params.filter_kind
            )
            store.add_many(list(seed_bank.iter_records()))
            store.flush()
        except ValueError as exc:
            return _fail_usage(str(exc))
        else:
            if args.bank is not None:
                store.close()
                return _fail_usage(
                    f"--store {args.store} is already initialised; omit "
                    "the bank argument (grow it with add-sequences)"
                )
        if store.n_sequences == 0:
            store.close()
            return _fail_usage(
                f"--store {args.store} holds no sequences; seed it with "
                "a bank argument"
            )
    else:
        if args.bank is None:
            return _fail_usage("serve needs a subject bank (or --store DIR)")
        bank2, report = load_bank(args.bank, policy=args.ingest)
        if report.warnings:
            _print_diagnostics(report.warnings)

    fleet_profile = None
    if args.fleet_profile is not None:
        from .serve.fleet.planner import load_profile

        try:
            fleet_profile = load_profile(args.fleet_profile)
        except (OSError, ValueError, KeyError) as exc:
            return _fail_usage(f"--fleet-profile: {exc}")
    stop = ShutdownRequest()
    daemon = OrisDaemon(
        bank2, params, config, index_cache=index_cache, obs=obs, stop=stop,
        store=store, fleet_profile=fleet_profile,
    )
    return _serve_frontend(args, daemon, stop, index_cache=index_cache)


def _execute_serve_fleet(args) -> int:
    import shutil
    import tempfile

    from .runtime.scheduler import ShutdownRequest
    from .serve.fleet import (
        FleetRouter,
        RouterConfig,
        ShardManager,
        plan_fleet,
        required_overlap,
        write_plan,
    )

    if args.shards < 1:
        return _fail_usage("--shards must be >= 1")
    if args.workers_per_shard < 1:
        return _fail_usage("--workers-per-shard must be >= 1")
    try:
        config = RouterConfig(
            host=args.host,
            port=args.port,
            max_queue=args.max_queue,
            max_query_nt=args.max_query_nt,
            request_timeout_s=args.request_timeout,
            tenant_quota=args.tenant_quota,
        )
    except ValueError as exc:
        return _fail_usage(str(exc))
    _obs_spec(args)

    params = _oris_params(args)
    bank2, report = load_bank(args.bank, policy=args.ingest)
    if report.warnings:
        _print_diagnostics(report.warnings)

    overlap = args.shard_overlap
    if overlap is None:
        overlap = required_overlap(args.max_query_nt, params)
    else:
        needed = required_overlap(args.max_query_nt, params)
        if overlap < needed:
            return _fail_usage(
                f"--shard-overlap {overlap} is unsafe for queries up to "
                f"{args.max_query_nt} nt: seam-straddling alignments "
                f"could be truncated (need >= {needed}; lower "
                "--max-query-nt or raise the overlap)"
            )
    plan = plan_fleet(bank2, args.shards, overlap)
    if plan.n_shards < args.shards:
        print(
            f"serve-fleet: bank of {bank2.size_nt} nt supports only "
            f"{plan.n_shards} shard(s) at overlap {overlap} "
            f"(asked for {args.shards}; lower --max-query-nt or "
            "--shard-overlap to cut finer)",
            file=sys.stderr,
        )

    work_dir = args.work_dir
    ephemeral = work_dir is None
    if ephemeral:
        work_dir = tempfile.mkdtemp(prefix="scoris_fleet_")
    write_plan(plan, work_dir)

    # Shard daemons inherit the fleet's seeding/scoring/ingest flags so
    # every shard computes exactly what one daemon over the whole bank
    # would (the profile file handles the statistics that *must* differ).
    shard_args = [
        "--workers", str(args.workers_per_shard),
        "-W", str(args.word_size),
        "-e", repr(args.evalue),
        "--filter", args.filter_kind,
        "--sort", args.sort,
        "--kernel", args.kernel,
        "--match", str(args.match),
        "--mismatch", str(args.mismatch),
        "--xdrop", str(args.xdrop),
        "--xdrop-gapped", str(args.xdrop_gapped),
        "--band-radius", str(args.band_radius),
        "--ingest", args.ingest,
        "--max-query-nt", str(args.max_query_nt),
        "--request-timeout", str(args.request_timeout),
    ]
    stop = ShutdownRequest()
    manager = ShardManager(plan, work_dir, shard_args=shard_args)
    try:
        manager.start()
        router = FleetRouter(plan, manager, params, config, stop=stop)
        router.registry.merge(manager.registry)
        manager.registry = router.registry  # one fleet-wide registry
        return _serve_frontend(args, router, stop)
    finally:
        manager.stop()
        if ephemeral:
            shutil.rmtree(work_dir, ignore_errors=True)


def _write_announce(path: str, host: str, port: int) -> None:
    """Atomically publish the bound address for supervisors to poll.

    The ``pid`` lets a reader distinguish this incarnation's file from
    a stale one left by a previous process on the same path.
    """
    import json
    import os

    payload = {"host": host, "port": port, "pid": os.getpid()}
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")
    os.replace(tmp, path)


def _write_serve_metrics(path: str, registry) -> None:
    import json

    snapshot = {"schema": "scoris-serve-metrics/1", **registry.as_dict()}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _print_serve_stats(registry) -> None:
    """Service roll-up on stderr after a drain (mirrors --stats)."""
    snapshot = registry.as_dict()
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})
    served = {k: v for k, v in sorted(counters.items())}
    if served:
        pairs = " ".join(f"{k.split('.')[-1]}={v}" for k, v in served.items()
                         if k.startswith("serve.") or k.startswith("index."))
        print(f"# serve counters: {pairs}", file=sys.stderr)
    if "step3.kernel_rows" in counters:
        print(
            f"# step3 kernel: lane_rows={counters.get('step3.lane_rows', 0)} "
            f"kernel_rows={counters['step3.kernel_rows']}",
            file=sys.stderr,
        )
    if "serve.queue_depth" in gauges:
        print(
            f"# serve queue depth (last): {gauges['serve.queue_depth']['value']}",
            file=sys.stderr,
        )
    store_gauges = {
        k: v for k, v in sorted(gauges.items()) if k.startswith("index.")
    }
    if store_gauges:
        pairs = " ".join(
            f"{k.split('.')[-1]}={v['value']:g}" for k, v in store_gauges.items()
        )
        print(f"# segment store: {pairs}", file=sys.stderr)
    for name in ("serve.batch_size", "serve.batch_latency_seconds"):
        h = histograms.get(name)
        if h and h.get("count"):
            mean = h["total"] / h["count"]
            print(
                f"# {name}: n={h['count']} mean={mean:.4g} max={h['max']:.4g}",
                file=sys.stderr,
            )


def _execute_query(args) -> int:
    from .io.m8 import M8Writer
    from .io.validate import validate_records
    from .serve.client import OrisClient, ServiceError
    from .serve.protocol import ProtocolError

    records, report = validate_records(args.queries, policy=args.ingest)
    if report.warnings:
        _print_diagnostics(report.warnings)
    if not records:
        print("scoris-n: no query sequences to send", file=sys.stderr)
        return EXIT_INPUT
    try:
        with OrisClient(args.host, args.port, timeout=args.timeout + 5.0) as client:
            if args.output == "-":
                writer = M8Writer(sys.stdout)
            else:
                writer = M8Writer(args.output)
            with writer:
                for name, sequence in records:
                    writer.write_text(
                        client.query(name, sequence, timeout_s=args.timeout)
                    )
    except (ServiceError, ProtocolError) as exc:
        print(f"scoris-n: query failed: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ConnectionError as exc:
        print(
            f"scoris-n: cannot reach daemon at {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return EXIT_RESOURCE
    return EXIT_OK


def _execute_admin(args) -> int:
    """``add-sequences`` / ``remove-sequences`` / ``reindex``."""
    from .serve.client import OrisClient, QueryFailed, ServiceError
    from .serve.protocol import ProtocolError

    request_records = None
    if args.command == "add-sequences":
        from .io.validate import validate_records

        request_records, report = validate_records(
            args.sequences, policy=args.ingest
        )
        if report.warnings:
            _print_diagnostics(report.warnings)
        if not request_records:
            print("scoris-n: no sequences to add", file=sys.stderr)
            return EXIT_INPUT
    try:
        with OrisClient(
            args.host, args.port, timeout=args.timeout, retries=0
        ) as client:
            if args.command == "add-sequences":
                result = client.add_sequences(request_records)
                action = f"added {len(request_records)} sequence(s)"
            elif args.command == "remove-sequences":
                result = client.remove_sequences(args.names)
                action = f"removed {len(args.names)} sequence(s)"
            else:
                result = client.reindex()
                action = "compacted the store"
    except QueryFailed as exc:
        # The daemon answered with a structured refusal (duplicate name,
        # unknown name, static bank, ...): bad input, not bad service.
        print(f"scoris-n: {args.command} rejected: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ServiceError, ProtocolError) as exc:
        print(f"scoris-n: {args.command} failed: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ConnectionError as exc:
        print(
            f"scoris-n: cannot reach daemon at {args.host}:{args.port}: {exc}",
            file=sys.stderr,
        )
        return EXIT_RESOURCE
    store = result.get("store", {})
    print(
        f"scoris-n: {action}: generation={result.get('generation')} "
        f"n_sequences={result.get('n_sequences')} "
        f"size_nt={result.get('size_nt')} "
        f"segments={store.get('segments')} "
        f"wal_records={store.get('wal_records')} "
        f"tombstones={store.get('tombstones')}"
    )
    return EXIT_OK


def _write_metrics(path: str, result) -> None:
    """Dump the run's metrics as a machine-readable JSON snapshot."""
    import json
    from dataclasses import asdict

    from .obs import funnel_dict

    t = result.timings
    snapshot = {
        "schema": "scoris-metrics/1",
        "funnel": funnel_dict(result.metrics),
        "timings_seconds": {
            "index": t.index,
            "ungapped": t.ungapped,
            "gapped": t.gapped,
            "display": t.display,
            "total": t.total,
        },
        "counters": asdict(result.counters),
        "metrics": result.metrics.as_dict(),
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _print_stats(args, result, plan, ingest_reports, use_runtime) -> None:
    from .runtime.governor import format_size

    t = result.timings
    c = result.counters
    m = result.metrics
    print(
        f"# step timings (s): index={t.index:.3f} ungapped={t.ungapped:.3f} "
        f"gapped={t.gapped:.3f} display={t.display:.3f} total={t.total:.3f}",
        file=sys.stderr,
    )
    print(
        f"# work: pairs={c.n_pairs} cut={c.n_cut} hsps={c.n_hsps} "
        f"alignments={c.n_alignments} records={c.n_records}",
        file=sys.stderr,
    )
    print(
        f"# step3 kernel: lane_rows={c.gapped_steps} "
        f"kernel_rows={m.value('step3.kernel_rows')}",
        file=sys.stderr,
    )
    if len(result.metrics):
        from .obs import format_funnel

        print(format_funnel(result.metrics), file=sys.stderr)
    for report in ingest_reports:
        print(f"# ingest[{report.policy}]: {report.summary()}", file=sys.stderr)
    if use_runtime:
        print(
            f"# runtime: retries={c.n_retries} crashes={c.n_crashes} "
            f"timeouts={c.n_timeouts} quarantined={c.n_quarantined} "
            f"degraded={c.n_degraded} skipped={c.n_skipped_tasks} "
            f"resumed={c.n_resumed}",
            file=sys.stderr,
        )
    if "index.cache_hit" in m or "index.cache_miss" in m:
        print(
            f"# index cache: hits={m.value('index.cache_hit')} "
            f"misses={m.value('index.cache_miss')}",
            file=sys.stderr,
        )
    if plan is not None:
        print(f"# governor: {plan.describe()}", file=sys.stderr)
    print(
        f"# resources: rss_peak={format_size(c.rss_peak_bytes)} "
        f"tiles={c.n_tiles} memory_degradations={c.n_memory_degradations} "
        f"budget_exceeded={m.value('governor.budget_exceeded')}",
        file=sys.stderr,
    )


def main() -> None:  # pragma: no cover - thin wrapper
    sys.exit(run())


if __name__ == "__main__":  # pragma: no cover
    main()
