"""Command-line interface: generate a comparison notebook from a CSV file.

Usage::

    python -m repro generate data.csv --budget 10 --out notebook.ipynb
    python -m repro generate data.csv --preset wsc-unb-approx --sample-rate 0.2
    python -m repro generate data.csv --backend sqlite
    python -m repro generate data.csv --workers 2
    python -m repro generate data.csv --deadline 5 --checkpoint run.ckpt.json
    python -m repro generate data.csv --resume run.ckpt.json --out notebook.ipynb
    python -m repro generate grown.csv --checkpoint run.ckpt.json --since-checkpoint
    python -m repro profile data.csv --trace trace.json
    python -m repro inspect data.csv
    python -m repro datasets --out-dir ./demo-data
    python -m repro flight repro-flight.json

Sub-commands
------------
``generate``
    Run the full pipeline on a CSV and write ``.ipynb`` and/or ``.sql``.
    Runs under the resilient controller: ``--deadline`` bounds the wall
    clock, ``--checkpoint``/``--resume`` snapshot and restore stage
    boundaries, and the per-stage run report is printed at the end.
    ``--trace`` additionally writes the run's span tree as Chrome
    trace-event JSON.
``profile``
    Run the pipeline purely for observability: print the span tree and
    top-k hotspots, optionally exporting the Chrome trace (``--trace``)
    and a Prometheus-style metrics dump (``--metrics-out``).
``recut``
    Re-solve the TAP over a saved run (no statistics re-run).
``inspect``
    Print the inferred schema, per-column statistics, detected functional
    dependencies, and the comparison-query count of Lemma 3.2.
``datasets``
    Materialize the synthetic evaluation datasets as CSV files.
``serve``
    Run the multi-tenant notebook-generation service: a dataset registry
    of warm sessions, async job submission with per-request deadline
    budgets, admission control, and per-dataset circuit breakers (see
    ``docs/serving.md``).  ``REPRO_FAULTS`` reaches the server's chaos
    fault points (``serve.admission``, ``serve.handler``, ``serve.job``,
    ``serve.evict``).  ``--flight-dump`` names where the flight
    recorder's ring of job post-mortems lands on crash or SIGTERM.
``flight``
    Pretty-print a flight-recorder dump file for post-mortem analysis
    (see ``docs/observability.md``).

The ``REPRO_FAULTS`` environment variable (e.g. ``stats:kill`` or
``tap:stall:10``) activates deterministic fault injection — a test hook,
see ``docs/resilience.md``.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from pathlib import Path

from repro import __version__, obs
from repro.api import Session
from repro.backend import BACKEND_NAMES
from repro.config import ReproConfig
from repro.parallel import STORE_NAMES
from repro.datasets import covid_table, enedis_table, flights_table, vaccine_table
from repro.errors import ReproError
from repro.generation import preset, preset_names
from repro.insights import count_comparison_queries, table_adom_sizes
from repro.notebook import to_sql_script, write_ipynb
from repro.relational import collect_statistics, detect_functional_dependencies, read_csv, write_csv

logger = logging.getLogger(__name__)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--verbose", action="store_true",
                        help="enable debug logging on stderr")
    common.add_argument("--quiet", action="store_true",
                        help="suppress progress output and warnings")

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Comparison-notebook generator (EDBT 2022 reproduction)",
    )
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", parents=[common],
                         help="generate a comparison notebook from a CSV")
    gen.add_argument("csv", type=Path, nargs="?", default=None,
                     help="input CSV file (optional when --resume holds the "
                          "generation stage)")
    gen.add_argument("--budget", type=int, default=10, help="notebook length eps_t (default 10)")
    gen.add_argument("--epsilon-distance", type=float, default=None,
                     help="distance bound eps_d (default: 4 per transition)")
    gen.add_argument("--preset", choices=preset_names(), default=None,
                     help="use a named Table 3/7 configuration")
    gen.add_argument("--sample-rate", type=float, default=0.1,
                     help="sampling rate for sampling presets (default 0.1)")
    gen.add_argument("--permutations", type=int, default=200,
                     help="permutations per statistical test (default 200)")
    gen.add_argument("--solver", choices=("heuristic", "exact"), default=None,
                     help="TAP solver (default from preset, else heuristic)")

    # One home for every execution knob; the CI matrix drives the same
    # dimensions through $REPRO_BACKEND / $REPRO_WORKERS / $REPRO_SHM.
    # None of them ever changes results — only speed.
    execution = gen.add_argument_group(
        "execution",
        "how the pipeline runs (results are identical for every choice)")
    execution.add_argument("--backend", choices=BACKEND_NAMES, default=None,
                           help="execution backend for scans and group-bys: "
                                "columnar (in-process NumPy, default) or sqlite "
                                "(SQL pushdown); default honours $REPRO_BACKEND")
    execution.add_argument("--workers", type=int, default=None,
                           help="worker count for the statistics and "
                                "hypothesis-evaluation stages (default "
                                "honours $REPRO_WORKERS, else 1 = in-process)")
    execution.add_argument("--store", choices=STORE_NAMES, default=None,
                           help="column-store data plane for worker processes: "
                                "shm (zero-copy shared memory), heap "
                                "(per-worker pickled copies), or auto (shm "
                                "when a subprocess pool is active; default, "
                                "honours $REPRO_SHM)")
    execution.add_argument("--since-checkpoint", action="store_true",
                           help="incremental re-run: reuse the stats memo saved "
                                "in --checkpoint by an earlier run over a row "
                                "prefix of this CSV, re-testing only the pair "
                                "families the appended rows touched (the "
                                "notebook is byte-identical to a full run)")
    gen.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                     help="wall-clock budget; stages degrade instead of overrunning")
    gen.add_argument("--checkpoint", type=Path, default=None, metavar="PATH",
                     help="write stage snapshots here (resume with --resume)")
    gen.add_argument("--resume", type=Path, default=None, metavar="PATH",
                     help="resume from a stage checkpoint (skips completed stages)")
    gen.add_argument("--out", type=Path, default=None, help="output .ipynb path")
    gen.add_argument("--sql-out", type=Path, default=None, help="output .sql script path")
    gen.add_argument("--table-name", default=None, help="table name used in the SQL")
    gen.add_argument("--no-previews", action="store_true",
                     help="skip executing queries for result previews")
    gen.add_argument("--save-run", type=Path, default=None,
                     help="also save the full run as JSON (re-cut later with 'recut')")
    gen.add_argument("--trace", type=Path, default=None, metavar="PATH",
                     help="write the run's Chrome trace-event JSON here")

    prof = sub.add_parser(
        "profile", parents=[common],
        help="run the pipeline and print the span tree + top-k hotspots"
    )
    prof.add_argument("csv", type=Path, help="input CSV file")
    prof.add_argument("--budget", type=int, default=10,
                      help="notebook length eps_t (default 10)")
    prof.add_argument("--preset", choices=preset_names(), default=None,
                      help="use a named Table 3/7 configuration")
    prof.add_argument("--sample-rate", type=float, default=0.1,
                      help="sampling rate for sampling presets (default 0.1)")
    prof.add_argument("--permutations", type=int, default=200,
                      help="permutations per statistical test (default 200)")
    prof.add_argument("--workers", type=int, default=None,
                      help="worker count (default honours $REPRO_WORKERS)")
    prof.add_argument("--store", choices=STORE_NAMES, default=None,
                      help="column-store data plane (auto, heap, or shm)")
    prof.add_argument("--backend", choices=BACKEND_NAMES, default=None,
                      help="execution backend (columnar or sqlite)")
    prof.add_argument("--trace", type=Path, default=None, metavar="PATH",
                      help="write Chrome trace-event JSON (chrome://tracing, Perfetto)")
    prof.add_argument("--metrics-out", type=Path, default=None, metavar="PATH",
                      help="write a Prometheus-style text dump of all metrics")
    prof.add_argument("--top", type=int, default=10,
                      help="number of hotspots to print (default 10)")
    prof.add_argument("--out", type=Path, default=None,
                      help="also write the generated .ipynb here")

    recut = sub.add_parser(
        "recut", parents=[common],
        help="re-solve the TAP over a saved run (no statistics re-run)"
    )
    recut.add_argument("run", type=Path, help="a run saved with --save-run")
    recut.add_argument("--budget", type=int, required=True, help="new notebook length eps_t")
    recut.add_argument("--epsilon-distance", type=float, default=None)
    recut.add_argument("--csv", type=Path, default=None,
                       help="original CSV (enables result previews/charts)")
    recut.add_argument("--out", type=Path, required=True, help="output .ipynb path")

    ins = sub.add_parser("inspect", parents=[common],
                         help="inspect a CSV's schema and statistics")
    ins.add_argument("csv", type=Path)

    data = sub.add_parser("datasets", parents=[common],
                          help="write the synthetic evaluation datasets")
    data.add_argument("--out-dir", type=Path, default=Path("."))
    data.add_argument("--scale", type=float, default=0.25)

    serve = sub.add_parser(
        "serve", parents=[common],
        help="run the multi-tenant notebook-generation service",
    )
    serve.add_argument("--host", default="127.0.0.1",
                       help="listen address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8765,
                       help="listen port; 0 binds an ephemeral port (default 8765)")
    serve.add_argument("--dataset", action="append", default=[],
                       metavar="NAME=CSV",
                       help="preload a dataset into the registry (repeatable)")
    serve.add_argument("--max-queue", type=int, default=16,
                       help="admission queue depth before requests shed (default 16)")
    serve.add_argument("--max-cost", type=float, default=64.0,
                       help="in-flight estimated-cost budget in units (default 64)")
    serve.add_argument("--default-deadline", type=float, default=30.0,
                       metavar="SECONDS",
                       help="per-request deadline budget when the request "
                            "names none (default 30)")
    serve.add_argument("--executors", type=int, default=1,
                       help="job executor threads (default 1; runs serialize "
                            "on the process-wide run lock regardless)")
    serve.add_argument("--breaker-failures", type=int, default=3,
                       help="consecutive job failures before a dataset's "
                            "circuit opens (default 3)")
    serve.add_argument("--breaker-reset", type=float, default=30.0,
                       metavar="SECONDS",
                       help="circuit cool-down before a half-open probe (default 30)")
    serve.add_argument("--flight-dump", type=Path, default=Path("repro-flight.json"),
                       metavar="PATH",
                       help="where the flight recorder dumps its ring of job "
                            "post-mortems on crash or SIGTERM (default "
                            "repro-flight.json; read back with 'repro flight')")

    flight = sub.add_parser(
        "flight", parents=[common],
        help="pretty-print a flight-recorder dump for post-mortems",
    )
    flight.add_argument("dump", type=Path,
                        help="a dump written by the serving layer "
                             "(--flight-dump) or GET /debug/flight saved to disk")
    flight.add_argument("--json", action="store_true", dest="as_json",
                        help="emit the raw records as JSON instead of a table")
    return parser


def _configure_logging(verbose: bool, quiet: bool) -> None:
    """Wire the library's module loggers to stderr.

    ``--verbose`` shows everything (DEBUG); the default shows warnings
    (degradations, timeouts); ``--quiet`` shows only errors.

    Idempotent across repeated :func:`main` calls in one process (tests,
    embedding apps): our handler is tagged, so exactly one is ever
    attached — even when the application installed stream handlers of its
    own — and the level always reflects the *latest* invocation's flags.
    """
    level = logging.DEBUG if verbose else logging.ERROR if quiet else logging.WARNING
    root = logging.getLogger("repro")
    root.setLevel(level)
    for existing in root.handlers:
        if getattr(existing, "_repro_cli", False):
            return
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("[%(levelname)s] %(name)s: %(message)s"))
    handler._repro_cli = True
    root.addHandler(handler)


def _config_from_args(args: argparse.Namespace) -> ReproConfig:
    """One :class:`ReproConfig` from the shared generate/profile flags."""
    if getattr(args, "preset", None):
        config = preset(args.preset, sample_rate=args.sample_rate)
    else:
        config = ReproConfig().with_significance(n_permutations=args.permutations)
    if getattr(args, "backend", None):
        config = config.with_generation(backend=args.backend)
    parallel_changes = {}
    if getattr(args, "workers", None):
        parallel_changes["workers"] = args.workers
    if getattr(args, "store", None):
        parallel_changes["store"] = args.store
    if parallel_changes:
        config = config.with_parallel(**parallel_changes)
    if getattr(args, "solver", None):
        config = config.replace(solver=args.solver)
    return config


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.persistence import load_checkpoint, save_run

    say = (lambda m: None) if args.quiet else (lambda m: print(f"[repro] {m}"))
    from repro.runtime import parse_fault_plan

    faults = parse_fault_plan(os.environ.get("REPRO_FAULTS"))
    if faults.active:
        say("fault injection active (REPRO_FAULTS)")

    resume = load_checkpoint(args.resume) if args.resume else None
    table = None
    if args.csv is not None:
        table = read_csv(args.csv, strict=True)
        say(f"loaded {table.n_rows} rows from {args.csv}")
    elif resume is None or resume.outcome is None:
        raise ReproError(
            "a CSV argument is required unless --resume points at a checkpoint "
            "that already contains the generation stage"
        )
    table_name = args.table_name or (args.csv.stem if args.csv else "dataset")

    config = _config_from_args(args).replace(
        budget=args.budget,
        epsilon_distance=args.epsilon_distance,
        deadline_seconds=args.deadline,
    )

    since, memo = None, None
    if args.since_checkpoint:
        memo = _load_since_memo(args, table, say)
        since = memo.version if memo is not None else None

    with Session(table, config=config, table_name=table_name) as session:
        if memo is not None:
            session.restore_memo(memo)
        run = session.generate(
            checkpoint_path=args.checkpoint,
            resume=resume,
            faults=faults,
            progress=say,
            since=since,
        )

        if not run.selected:
            _print_report(run, args.quiet)
            print("no significant comparison insights found; nothing to write",
                  file=sys.stderr)
            return 1

        say(f"selected {len(run.selected)} queries "
            f"(interest {run.solution.interest:.3f}, distance {run.solution.distance:.2f})")
        for rank, g in enumerate(run.selected, start=1):
            say(f"  {rank}. {g.query.describe()}")

        out = args.out or (
            args.csv.with_suffix(".comparisons.ipynb") if args.csv else Path("comparisons.ipynb")
        )
        notebook = session.render(
            run,
            title=f"Comparison notebook — {table_name}",
            include_previews=not args.no_previews,
            faults=faults,
        )
        write_ipynb(notebook, out)
        print(f"wrote {out}")
        if args.sql_out:
            args.sql_out.write_text(to_sql_script(notebook), encoding="utf-8")
            print(f"wrote {args.sql_out}")
        if args.save_run:
            save_run(run, args.save_run)
            print(f"wrote {args.save_run}")
        if args.trace:
            obs.write_chrome_trace(session.tracer, args.trace, session.metrics)
            say(f"wrote trace {args.trace}")
        say(obs.metrics_summary_line(session.metrics))
    _print_report(run, args.quiet)
    return 0


def _load_since_memo(args: argparse.Namespace, table, say):
    """The validated stats memo behind ``--since-checkpoint``, or None.

    Every way the memo can be unusable — no checkpoint flag, unreadable
    file, no stored memo, or a memo whose version is not a row prefix of
    the loaded CSV — downgrades to a full run with a warning, never an
    error: the flag is a speed knob, and the output is byte-identical
    either way.
    """
    from repro.persistence import PersistenceError, load_checkpoint
    from repro.relational.table import content_token

    if args.checkpoint is None:
        raise ReproError("--since-checkpoint requires --checkpoint PATH")
    if table is None:
        raise ReproError("--since-checkpoint requires a CSV argument")
    try:
        prior = load_checkpoint(args.checkpoint)
    except PersistenceError as exc:
        logger.warning("--since-checkpoint: %s; running in full", exc)
        return None
    memo = prior.memo
    if memo is None:
        logger.warning(
            "--since-checkpoint: %s holds no incremental stats memo; "
            "running the statistical stage in full", args.checkpoint,
        )
        return None
    if memo.n_rows > table.n_rows or content_token(table, memo.n_rows) != memo.version:
        logger.warning(
            "--since-checkpoint: checkpointed version %s is not a row prefix "
            "of %s; running the statistical stage in full",
            memo.version, args.csv,
        )
        return None
    say(f"incremental run since version {memo.version} "
        f"({table.n_rows - memo.n_rows} appended row(s))")
    return memo


def _cmd_profile(args: argparse.Namespace) -> int:
    """Run the pipeline purely for its observability output."""
    table = read_csv(args.csv, strict=True)
    config = _config_from_args(args).replace(budget=args.budget)

    session = Session(table, config=config, table_name=args.csv.stem)
    with session:
        run = session.generate()
        notebook = session.render(run)
        if args.out:
            write_ipynb(notebook, args.out)

    tracer, metrics = session.tracer, session.metrics
    metrics.record_peak_rss()
    if not args.quiet:
        print(obs.format_span_tree(tracer))
        print()
        print(obs.format_hotspots(tracer, top_k=args.top))
        print()
        print(obs.metrics_summary_line(metrics))
        print(_data_plane_line(session, metrics))
    if args.trace:
        obs.write_chrome_trace(tracer, args.trace, metrics)
        print(f"wrote {args.trace}")
    if args.metrics_out:
        args.metrics_out.write_text(obs.to_prometheus_text(metrics), encoding="utf-8")
        print(f"wrote {args.metrics_out}")
    if args.out:
        print(f"wrote {args.out}")
    return 0


def _data_plane_line(session: Session, metrics) -> str:
    """One-line data-plane summary: store kind, IPC volume, shm residency."""
    snapshot = metrics.snapshot()
    counters = snapshot["counters"]
    gauges = snapshot["gauges"]
    ipc = int(counters.get("parallel.ipc_bytes", 0.0))
    attaches = int(counters.get("parallel.shm_attach", 0.0))
    resident = int(gauges.get("data_plane.shm_resident_bytes", 0.0))
    return (
        f"data plane: store={session.storage} ipc_bytes={ipc} "
        f"shm_attaches={attaches} shm_resident_bytes={resident}"
    )


def _print_report(run, quiet: bool) -> int:
    if run.report is None:
        return 0
    if quiet:
        return 0
    for line in run.report.summary_lines():
        print(f"[repro] {line}")
    return 0


def _cmd_recut(args: argparse.Namespace) -> int:
    from repro.notebook import build_notebook
    from repro.persistence import load_outcome, resolve_outcome

    outcome = load_outcome(args.run)
    run = resolve_outcome(outcome, budget=args.budget, epsilon_distance=args.epsilon_distance)
    if not run.selected:
        print("no queries selected under the new bounds", file=sys.stderr)
        return 1
    table = read_csv(args.csv) if args.csv else None
    table_name = args.csv.stem if args.csv else "dataset"
    notebook = build_notebook(
        run.selected, table=table, table_name=table_name,
        title=f"Comparison notebook — {table_name} (recut)",
    )
    write_ipynb(notebook, args.out)
    print(f"selected {len(run.selected)} of {len(outcome.queries)} saved queries")
    print(f"wrote {args.out}")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    table = read_csv(args.csv)
    print(f"{args.csv}: {table.n_rows} rows")
    print(f"schema: {table.schema}")
    stats = collect_statistics(table)
    print("\ncolumns:")
    for attr in table.schema:
        s = stats[attr.name]
        print(f"  {attr.name:<24} {attr.kind.value:<12} distinct={s.n_distinct:<8} nulls={s.n_null}")
    fds = detect_functional_dependencies(table)
    if fds:
        print("\nfunctional dependencies (excluded attribute pairs):")
        for fd in fds:
            print(f"  {fd}")
    adoms = list(table_adom_sizes(table).values())
    n_queries = count_comparison_queries(adoms, len(table.schema.measure_names), 2)
    print(f"\npotential comparison queries (Lemma 3.2, f=2): {n_queries}")
    return 0


def _cmd_datasets(args: argparse.Namespace) -> int:
    args.out_dir.mkdir(parents=True, exist_ok=True)
    tables = {
        "vaccine": vaccine_table(args.scale),
        "enedis": enedis_table(args.scale),
        "flights": flights_table(args.scale),
        "covid": covid_table(),
    }
    for name, table in tables.items():
        path = args.out_dir / f"{name}.csv"
        write_csv(table, path)
        print(f"wrote {path} ({table.n_rows} rows)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.runtime import parse_fault_plan
    from repro.serve import ReproServer, ServeConfig

    say = (lambda m: None) if args.quiet else (lambda m: print(f"[repro] {m}"))
    faults = parse_fault_plan(os.environ.get("REPRO_FAULTS"))
    if faults.active:
        say("fault injection active (REPRO_FAULTS)")

    preload: list[tuple[str, Path]] = []
    for spec in args.dataset:
        name, _, path = spec.partition("=")
        if not name or not path:
            raise ReproError(
                f"malformed --dataset {spec!r} (want NAME=PATH.csv)"
            )
        preload.append((name, Path(path)))

    config = ServeConfig(
        host=args.host,
        port=args.port,
        max_queue_depth=args.max_queue,
        max_inflight_cost=args.max_cost,
        default_deadline_seconds=args.default_deadline,
        executors=args.executors,
        breaker_failures=args.breaker_failures,
        breaker_reset_seconds=args.breaker_reset,
    )
    server = ReproServer(config, faults=faults)
    server.start()
    uninstall_flight = server.flight.install(args.flight_dump)
    say(f"flight recorder dumps to {args.flight_dump} on crash/SIGTERM")
    try:
        for name, path in preload:
            entry = server.registry.register(name, path)
            say(f"registered dataset {name} "
                f"({entry.session.table.n_rows} rows, "
                f"cost {entry.cost_units:.1f} units)")
        print(f"serving on {server.url} (Ctrl-C to stop)")
        try:
            while True:
                time.sleep(3600)
        except KeyboardInterrupt:
            say("shutting down")
    finally:
        uninstall_flight()
        server.shutdown()
    return 0


def _cmd_flight(args: argparse.Namespace) -> int:
    """Pretty-print a flight-recorder dump (the post-mortem reader)."""
    import json as _json

    from repro.serve.flight import load_dump

    try:
        doc = load_dump(args.dump)
    except (OSError, ValueError, _json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    records = doc["records"]
    if args.as_json:
        print(_json.dumps(records, indent=1))
        return 0

    print(f"{args.dump}: {len(records)} record(s), "
          f"reason={doc.get('reason', '?')}")
    if not records:
        return 0
    print(f"{'job':<12} {'dataset':<12} {'status':<10} {'fingerprint':<18} "
          f"{'att':>3} {'queue_s':>8} {'total_s':>8}  detail")
    for rec in records:
        detail = rec.get("shed_reason") or rec.get("error") or ""
        if rec.get("degradations"):
            joined = ",".join(rec["degradations"])
            detail = f"{detail} [degraded: {joined}]".strip()
        print(f"{rec.get('job', '?'):<12} {rec.get('dataset', '?'):<12} "
              f"{rec.get('status', '?'):<10} "
              f"{rec.get('config_fingerprint', '?'):<18} "
              f"{rec.get('attempts', 0):>3} "
              f"{rec.get('queue_seconds', 0.0):>8.3f} "
              f"{rec.get('total_seconds', 0.0):>8.3f}  {detail}")
        for span in rec.get("spans", [])[:3]:
            flags = "".join(
                tag for tag, on in ((" open", span.get("open")),
                                    (" errors", span.get("errors")))
                if on
            )
            print(f"{'':<12} span {span['name']} x{span['count']} "
                  f"{span['seconds']:.3f}s{flags}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _configure_logging(getattr(args, "verbose", False), getattr(args, "quiet", False))
    try:
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "profile":
            return _cmd_profile(args)
        if args.command == "recut":
            return _cmd_recut(args)
        if args.command == "inspect":
            return _cmd_inspect(args)
        if args.command == "datasets":
            return _cmd_datasets(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "flight":
            return _cmd_flight(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        # Covers missing inputs and unwritable outputs (FileNotFoundError,
        # PermissionError, IsADirectoryError, ...): one line, exit code 2.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    raise AssertionError(args.command)


if __name__ == "__main__":
    raise SystemExit(main())
