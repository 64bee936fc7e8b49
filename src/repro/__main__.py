"""``python -m repro``: the campaign command line.

Subcommands:

* ``run``    — execute a benchmark suite × protection-scheme matrix on a
  worker pool, persisting results to the store so re-runs are incremental;
* ``report`` — render the table (text / markdown / CSV) for a matrix,
  executing only the cells the store does not already hold;
* ``clean``  — empty the result store;
* ``suites`` — list the known benchmark suites;
* ``machines`` — list the heterogeneous machine presets;
* ``schemes`` — list the registered protection schemes and their
  capability flags (including schemes registered at runtime through
  :func:`repro.schemes.register_scheme`);
* ``trace``  — run one benchmark instrumented and write its cycle-level
  event trace (JSONL, optionally Chrome/Perfetto JSON) and periodic
  metrics snapshots (CSV);
* ``serve``  — run the simulation service: an HTTP server exposing
  simulate / compare / sweep (async job queue) over the same store
  (:mod:`repro.service`);
* ``version`` — package version, store backends and registry sizes
  (``--json`` for the machine-readable form behind ``GET /v1/health``);
* ``store``  — store administration: ``store migrate`` copies a result
  store between the JSON-directory and SQLite backends, verifying every
  entry's integrity digest.

Examples::

    python -m repro run --suite spec_int --mode muontrap
    python -m repro run --suite parsec --mode all --jobs 8
    python -m repro run --suite mixes --machine biglittle-muontrap \
        --machine asym-protect
    python -m repro run --suite mixes --machine-file my-machine.json
    python -m repro report --suite spec_int --mode muontrap --format csv
    python -m repro trace mcf --mode muontrap --chrome mcf.chrome.json
    python -m repro trace mcf --metrics-every 1000 --metrics-out mcf.csv
    python -m repro clean

Everything routes through the public facade (:mod:`repro.api`): ``--mode``
accepts any registered scheme name, ``--machine`` any preset, and
``--machine-file`` any machine description JSON
(:mod:`repro.common.machine`).

Environment: ``REPRO_INSTRUCTIONS`` (instructions per workload),
``REPRO_JOBS`` (worker count), ``REPRO_STORE`` (result-store directory),
``REPRO_STORE_BACKEND`` (``json`` / ``sqlite``), ``REPRO_LOG``
(structured-log level, e.g. ``INFO``), ``REPRO_PROGRESS`` (force the
live progress line on/off), ``REPRO_CELL_TIMEOUT`` /
``REPRO_MAX_RETRIES`` (supervision policy, see ``--cell-timeout`` /
``--max-retries``), ``REPRO_FAULTS`` (deterministic fault injection for
chaos testing), ``REPRO_API_KEYS`` / ``REPRO_RATE_LIMIT`` /
``REPRO_RATE_BURST`` (service authentication and rate limiting, see
``serve``).

Campaigns are fault tolerant: failed cells are retried, hung or killed
workers re-dispatched, and permanently failing cells quarantined (the
report annotates them FAILED).  Results persist as each cell completes,
so after Ctrl-C or a crash, re-running the same command resumes by
computing only the missing cells.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro import api
from repro.common.params import SystemConfig
from repro.harness.campaign import Campaign, DEFAULT_SEED
from repro.harness.report import Report
from repro.harness.store import (
    STORE_BACKENDS,
    migrate_store,
    open_store,
)
from repro.harness.suites import UnknownSuiteError, resolve_suites, suite_names
from repro.schemes import (
    available_schemes,
    figure_series_schemes,
    get_scheme,
)
from repro.telemetry.log import configure as configure_logging
from repro.telemetry.phases import PHASES, phase
from repro.workloads.mixes import get_machine, machine_names

DEFAULT_STORE = ".repro-results"


def _store_path(args: argparse.Namespace) -> str:
    return args.store or os.environ.get("REPRO_STORE") or DEFAULT_STORE


def _build_configs(modes: Sequence[str], machines: Sequence[str],
                   machine_files: Sequence[str]) -> Dict[str, SystemConfig]:
    expanded: List[str] = []
    for mode in modes:
        if mode == "all":
            expanded.extend(spec.name for spec in figure_series_schemes())
        else:
            expanded.append(mode)
    configs: Dict[str, SystemConfig] = {}
    for mode in expanded:
        spec = get_scheme(mode)  # raises a clear ValueError when unknown
        configs[spec.display_name] = SystemConfig(mode=spec.name)
    for machine in machines:
        configs[machine] = get_machine(machine)
    for machine_file in machine_files:
        configs[Path(machine_file).stem] = api.resolve_machine(machine_file)
    return configs


def _build_campaign(args: argparse.Namespace) -> Campaign:
    store = None if args.no_store else open_store(
        _store_path(args), backend=args.store_backend)
    return api.build_comparison(
        _build_configs(args.mode, args.machine, args.machine_file),
        args.suite,
        baseline=api.DEFAULT_BASELINE,
        instructions=args.instructions,
        seed=args.seed,
        replicates=args.replicates,
        store=store,
        jobs=args.jobs,
        max_retries=args.max_retries,
        cell_timeout=args.cell_timeout,
    )


def _add_matrix_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--suite", action="append",
        help="suite or benchmark name (repeatable; default: spec_int). "
             f"Suites: {', '.join(suite_names())}")
    parser.add_argument(
        "--mode", action="append",
        help="protection scheme to evaluate against the unprotected "
             "baseline (repeatable; default: muontrap; 'all' = the five "
             "schemes of Figures 3 and 4; any scheme registered through "
             "repro.schemes is accepted — see 'python -m repro schemes')")
    parser.add_argument(
        "--machine", action="append", choices=machine_names(),
        help="heterogeneous machine preset to evaluate as a series "
             "(repeatable; big.LITTLE and asymmetric-protection "
             "configurations; co-run mixes get per-constituent tables)")
    parser.add_argument(
        "--machine-file", action="append",
        help="machine description JSON to evaluate as a series "
             "(repeatable; the format SystemConfig.to_dict() writes; "
             "the series is labelled with the file stem)")
    parser.add_argument("--instructions", type=int, default=None,
                        help="instructions per workload "
                             "(default: REPRO_INSTRUCTIONS or 8000)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="campaign base seed (default: %(default)s)")
    parser.add_argument("--replicates", type=int, default=1,
                        help="independent seeds per cell "
                             "(default: %(default)s)")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes "
                             "(default: REPRO_JOBS or all cores)")
    parser.add_argument("--cell-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="kill and re-dispatch any cell still running "
                             "after this many seconds (default: "
                             "REPRO_CELL_TIMEOUT or no timeout; parallel "
                             "runs only)")
    parser.add_argument("--max-retries", type=int, default=None,
                        metavar="N",
                        help="retries per failed cell before it is "
                             "quarantined and reported FAILED (default: "
                             "REPRO_MAX_RETRIES or 2)")
    parser.add_argument("--store", default=None,
                        help="result-store directory "
                             f"(default: REPRO_STORE or {DEFAULT_STORE})")
    parser.add_argument("--store-backend", default=None,
                        choices=STORE_BACKENDS,
                        help="result-store backend (default: "
                             "REPRO_STORE_BACKEND, else auto-detected "
                             "from the store layout, else json)")
    parser.add_argument("--no-store", action="store_true",
                        help="do not read or write the persistent store")
    parser.add_argument("--format", default="text",
                        choices=["text", "markdown", "csv"],
                        help="report format (default: %(default)s)")


def _normalise_matrix_defaults(args: argparse.Namespace) -> None:
    args.suite = args.suite or ["spec_int"]
    args.machine = args.machine or []
    args.machine_file = args.machine_file or []
    # With only machine presets / files requested, don't drag the default
    # homogeneous scheme into the matrix.
    if not args.mode and not args.machine and not args.machine_file:
        args.mode = ["muontrap"]
    args.mode = args.mode or []


def _render(campaign: Campaign, result, fmt: str) -> str:
    title = ("Normalised execution time (lower is better), "
             f"{len(campaign.benchmarks)} benchmarks × "
             f"{len(campaign.configs)} schemes")
    rendered = Report.from_campaign(result, title=title).render(fmt)
    if result.has_corun_results and fmt != "csv":
        # Mix-aware view: each co-run mix split into its constituents,
        # attributed per core and normalised per member.  CSV output stays
        # a single parseable table; use text/markdown for the split view.
        constituents = Report.from_campaign_constituents(
            result, title="Per-constituent normalised execution time "
                          "(co-run mixes split per member)")
        rendered += "\n\n" + constituents.render(fmt)
    return rendered


def _run_profiled(campaign: Campaign):
    """Run the campaign under cProfile and print the top-25 hot spots.

    Profiling forces ``jobs=1``: the interesting work otherwise happens in
    forked pool workers the profiler cannot see.  (The phase timers
    printed afterwards would cover pool workers too: they ship each
    cell's phases back with its result.)
    """
    import cProfile
    import pstats

    campaign.jobs = 1
    profiler = cProfile.Profile()
    profiler.enable()
    result = campaign.run()
    profiler.disable()
    stats = pstats.Stats(profiler, stream=sys.stderr)
    stats.sort_stats("cumulative").print_stats(25)
    return result


def _print_failures(result) -> None:
    """One line per quarantined cell, after the table (stderr)."""
    if not result.failures:
        return
    print(f"\n{len(result.failures)} cell(s) quarantined after exhausting "
          f"retries:", file=sys.stderr)
    for failure in result.failures:
        print(f"  {failure.benchmark}/{failure.label} seed {failure.seed}: "
              f"{failure.error} ({failure.attempts} attempts, "
              f"{failure.seconds:.1f}s)", file=sys.stderr)


def _handle_interrupt(campaign: Campaign, fmt: str) -> int:
    """Ctrl-C / SIGTERM: partial report plus a resume hint, exit 130."""
    partial = campaign.partial_result()
    cells = {spec.key() for spec in campaign.cells()}
    completed = len(partial.runs)
    print(f"\ninterrupted: {completed}/{len(cells)} unique cells completed",
          file=sys.stderr)
    if completed:
        print(_render(campaign, partial, fmt))
    if campaign.store is not None:
        print(f"completed cells are persisted in {campaign.store.root}; "
              f"re-run the same command to resume from them",
              file=sys.stderr)
    else:
        print("run again with a result store (--store/REPRO_STORE) to make "
              "interrupted campaigns resumable", file=sys.stderr)
    return 130


def cmd_run(args: argparse.Namespace) -> int:
    _normalise_matrix_defaults(args)
    campaign = _build_campaign(args)
    try:
        if args.profile:
            PHASES.reset()
            result = _run_profiled(campaign)
        else:
            result = campaign.run()
    except KeyboardInterrupt:
        return _handle_interrupt(campaign, args.format)
    stats = result.stats
    print(f"benchmarks: {', '.join(campaign.benchmarks)}")
    print(f"schemes:    {', '.join(campaign.configs)} "
          f"(baseline: {campaign.baseline_label})")
    print(f"cells:      {stats.total} ({stats.summary()})")
    if campaign.store is not None:
        print(f"store:      {campaign.store.root}")
    print()
    with phase("report"):
        rendered = _render(campaign, result, args.format)
    print(rendered)
    _print_failures(result)
    if args.profile:
        print(f"\nphase timers:\n{PHASES.report()}", file=sys.stderr)
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    _normalise_matrix_defaults(args)
    campaign = _build_campaign(args)
    try:
        result = campaign.run()
    except KeyboardInterrupt:
        return _handle_interrupt(campaign, args.format)
    print(_render(campaign, result, args.format))
    _print_failures(result)
    return 0


def cmd_clean(args: argparse.Namespace) -> int:
    store = open_store(_store_path(args), backend=args.store_backend)
    removed = store.clear()
    print(f"removed {removed} cached results from {store.root}")
    return 0


def _print_json(payload) -> None:
    """Canonical JSON on stdout — the same bytes the service would send."""
    from repro.service.serialize import canonical_json
    sys.stdout.buffer.write(canonical_json(payload) + b"\n")
    sys.stdout.buffer.flush()


def cmd_suites(args: argparse.Namespace) -> int:
    if args.json:
        from repro.service.serialize import suites_payload
        _print_json(suites_payload())
        return 0
    for name in suite_names():
        members = resolve_suites([name])
        print(f"{name} ({len(members)}): {', '.join(members)}")
    return 0


def cmd_schemes(args: argparse.Namespace) -> int:
    """List the registered protection schemes with their capabilities."""
    if args.json:
        from repro.service.serialize import schemes_payload
        _print_json(schemes_payload())
        return 0
    for spec in available_schemes():
        flags = [name.replace("_", "-")
                 for name, enabled in spec.capabilities().items() if enabled]
        origin = "builtin" if spec.builtin else "registered"
        print(f"{spec.name} ({spec.display_name}) [{origin}]: "
              f"{', '.join(flags) if flags else 'no capability flags'}")
        if spec.description:
            print(f"    {spec.description}")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """Run one benchmark instrumented and write its telemetry artefacts."""
    trace_path = args.trace or f"{args.benchmark}-{args.mode}.trace.jsonl"
    outcome = api.simulate(
        args.benchmark, args.mode, seed=args.seed,
        instructions=args.instructions, warmup_fraction=args.warmup,
        collect_stats=True, trace=trace_path, chrome_trace=args.chrome,
        metrics_every=args.metrics_every)
    tracer = outcome.tracer
    print(f"benchmark:  {outcome.benchmark}")
    print(f"machine:    {outcome.label} (seed {outcome.seed})")
    print(f"cycles:     {outcome.cycles} ({outcome.instructions} "
          f"instructions, IPC {outcome.ipc:.2f})")
    print(f"events:     {len(tracer)}")
    for (category, name), count in sorted(tracer.counts().items()):
        print(f"    {category:<10s} {name:<28s} {count:>8d}")
    print(f"trace:      {outcome.trace_path} (JSONL, one event per line)")
    if outcome.chrome_path is not None:
        print(f"chrome:     {outcome.chrome_path} "
              f"(open at https://ui.perfetto.dev)")
    if outcome.timeseries is not None:
        samples = len(outcome.timeseries)
        columns = len(outcome.timeseries.columns)
        if args.metrics_out:
            outcome.timeseries.to_csv(args.metrics_out)
            print(f"metrics:    {args.metrics_out} "
                  f"({samples} samples × {columns} columns)")
        else:
            print(f"metrics:    {samples} samples × {columns} columns "
                  f"collected (write with --metrics-out FILE)")
    return 0


def cmd_machines(args: argparse.Namespace) -> int:
    if args.json:
        from repro.service.serialize import machines_payload
        _print_json(machines_payload())
        return 0
    for name in machine_names():
        config = get_machine(name)
        cores = ", ".join(
            f"core{index}: {core.scheme} "
            f"({core.pipeline.width}-wide, "
            f"{core.l1d.size_bytes // 1024} KiB L1d)"
            for index, core in enumerate(config.core_configs()))
        flags = ""
        if any(core.protection.insecure_scoped_invalidate
               for core in config.core_configs()):
            flags = " [insecure scoped-invalidate ablation]"
        print(f"{name} ({config.num_cores} cores){flags}: {cores}")
    return 0


def cmd_version(args: argparse.Namespace) -> int:
    """Package / capability facts (the CLI face of ``GET /v1/health``)."""
    from repro.service.serialize import version_payload
    payload = version_payload()
    if args.json:
        _print_json(payload)
        return 0
    print(f"repro {payload['version']}")
    print(f"store backends:  {', '.join(payload['store_backends'])}")
    print(f"schemes:         {payload['schemes']} registered")
    print(f"suites:          {payload['suites']} named")
    return 0


def cmd_store_migrate(args: argparse.Namespace) -> int:
    """Copy a result store between backends, verifying every digest."""
    source = open_store(args.source, backend=args.source_backend)
    dest = open_store(args.dest, backend=args.dest_backend)
    if source.describe() == dest.describe():
        print(f"error: source and destination are the same store "
              f"({source.describe()})", file=sys.stderr)
        return 2
    copied, skipped = migrate_store(source, dest)
    print(f"migrated {copied} entries: {source.describe()} -> "
          f"{dest.describe()}")
    if skipped:
        print(f"skipped {skipped} entries that failed integrity "
              f"verification (corrupt or stale-version)", file=sys.stderr)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the simulation service until SIGTERM/SIGINT, then drain."""
    from repro.service import (
        ApiKeyAuth,
        RateLimiter,
        ReproServer,
        ServiceConfig,
    )
    store = None if args.no_store else open_store(
        _store_path(args), backend=args.store_backend)
    auth = ApiKeyAuth.from_env()
    config = ServiceConfig(
        host=args.host, port=args.port, store=store,
        jobs=args.jobs if args.jobs is not None else 1, auth=auth,
        limiter=RateLimiter.from_env(),
        queue_workers=args.queue_workers)
    server = ReproServer(config)

    # Serve on a background thread and park the main thread on an event:
    # signal handlers only fire on the main thread, so this is the shape
    # that makes SIGTERM-then-drain work.
    stop = threading.Event()

    def _request_stop(signum, frame):  # noqa: ARG001 — signal API
        stop.set()

    signal.signal(signal.SIGTERM, _request_stop)
    signal.signal(signal.SIGINT, _request_stop)
    server.start()
    print(f"serving on {server.url} "
          f"(auth {'on' if auth.enabled else 'off'}, "
          f"store {store.describe() if store is not None else 'none'})",
          flush=True)
    stop.wait()
    print("shutting down: draining in-flight jobs...", file=sys.stderr)
    drained = server.shutdown(drain=True, timeout=args.drain_timeout)
    if not drained:
        print(f"warning: jobs still running after {args.drain_timeout}s "
              f"drain timeout", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="MuonTrap reproduction campaign harness")
    subparsers = parser.add_subparsers(dest="command", required=True)

    run_parser = subparsers.add_parser(
        "run", help="execute a suite × scheme matrix in parallel")
    _add_matrix_arguments(run_parser)
    run_parser.add_argument(
        "--profile", action="store_true",
        help="run under cProfile (forces --jobs 1) and print the top-25 "
             "functions by cumulative time to stderr")
    run_parser.set_defaults(func=cmd_run)

    report_parser = subparsers.add_parser(
        "report", help="render the result table for a matrix")
    _add_matrix_arguments(report_parser)
    report_parser.set_defaults(func=cmd_report)

    clean_parser = subparsers.add_parser(
        "clean", help="empty the result store")
    clean_parser.add_argument("--store", default=None,
                              help="result-store directory "
                                   f"(default: REPRO_STORE or "
                                   f"{DEFAULT_STORE})")
    clean_parser.add_argument("--store-backend", default=None,
                              choices=STORE_BACKENDS,
                              help="result-store backend (default: "
                                   "REPRO_STORE_BACKEND or auto-detect)")
    clean_parser.set_defaults(func=cmd_clean)

    suites_parser = subparsers.add_parser(
        "suites", help="list the known benchmark suites")
    suites_parser.add_argument("--json", action="store_true",
                               help="canonical JSON (the same payload "
                                    "GET /v1/suites serves)")
    suites_parser.set_defaults(func=cmd_suites)

    machines_parser = subparsers.add_parser(
        "machines", help="list the heterogeneous machine presets")
    machines_parser.add_argument("--json", action="store_true",
                                 help="canonical JSON (the same payload "
                                      "GET /v1/machines serves)")
    machines_parser.set_defaults(func=cmd_machines)

    schemes_parser = subparsers.add_parser(
        "schemes", help="list the registered protection schemes and "
                        "their capability flags")
    schemes_parser.add_argument("--json", action="store_true",
                                help="canonical JSON (the same payload "
                                     "GET /v1/schemes serves)")
    schemes_parser.set_defaults(func=cmd_schemes)

    version_parser = subparsers.add_parser(
        "version", help="package version, store backends and registry "
                        "sizes")
    version_parser.add_argument("--json", action="store_true",
                                help="canonical JSON (the same payload "
                                     "GET /v1/health serves)")
    version_parser.set_defaults(func=cmd_version)

    store_parser = subparsers.add_parser(
        "store", help="result-store administration")
    store_subparsers = store_parser.add_subparsers(dest="store_command",
                                                   required=True)
    migrate_parser = store_subparsers.add_parser(
        "migrate", help="copy a result store between backends, "
                        "verifying every entry's integrity digest")
    migrate_parser.add_argument(
        "source", help="source store (directory, or .sqlite3 file)")
    migrate_parser.add_argument(
        "dest", help="destination store (directory, or .sqlite3 file)")
    migrate_parser.add_argument(
        "--source-backend", default=None, choices=STORE_BACKENDS,
        help="source backend (default: auto-detect from layout)")
    migrate_parser.add_argument(
        "--dest-backend", default=None, choices=STORE_BACKENDS,
        help="destination backend (default: auto-detect, else json)")
    migrate_parser.set_defaults(func=cmd_store_migrate)

    serve_parser = subparsers.add_parser(
        "serve", help="run the simulation service (HTTP, stdlib only): "
                      "simulate / compare / sweep over a shared store")
    serve_parser.add_argument("--host", default="127.0.0.1",
                              help="bind address (default: %(default)s)")
    serve_parser.add_argument("--port", type=int, default=8734,
                              help="bind port; 0 picks a free port "
                                   "(default: %(default)s)")
    serve_parser.add_argument("--store", default=None,
                              help="result-store path "
                                   f"(default: REPRO_STORE or "
                                   f"{DEFAULT_STORE})")
    serve_parser.add_argument("--store-backend", default=None,
                              choices=STORE_BACKENDS,
                              help="store backend; sqlite is built for "
                                   "concurrent access (default: "
                                   "REPRO_STORE_BACKEND or auto-detect)")
    serve_parser.add_argument("--no-store", action="store_true",
                              help="serve without a persistent store "
                                   "(every request recomputes)")
    serve_parser.add_argument("--jobs", type=int, default=None,
                              help="campaign worker processes per job "
                                   "(default: 1, in-process)")
    serve_parser.add_argument("--queue-workers", type=int, default=1,
                              help="concurrent async jobs (default: "
                                   "%(default)s; 1 serialises jobs, the "
                                   "strongest exactly-once setting)")
    serve_parser.add_argument("--drain-timeout", type=float, default=300.0,
                              metavar="SECONDS",
                              help="how long shutdown waits for in-flight "
                                   "jobs (default: %(default)s)")
    serve_parser.set_defaults(func=cmd_serve)

    trace_parser = subparsers.add_parser(
        "trace", help="run one benchmark instrumented and write its "
                      "cycle-level event trace")
    trace_parser.add_argument(
        "benchmark", help="benchmark or mix name (see 'suites')")
    trace_parser.add_argument(
        "--mode", default="muontrap",
        help="scheme, machine preset or machine JSON to run under "
             "(default: %(default)s)")
    trace_parser.add_argument(
        "--instructions", type=int, default=None,
        help="instructions to simulate "
             "(default: REPRO_INSTRUCTIONS or 8000)")
    trace_parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                              help="workload seed (default: %(default)s)")
    trace_parser.add_argument(
        "--warmup", type=float, default=0.0,
        help="warm-up fraction excluded from statistics "
             "(default: %(default)s — traces usually want the cold start)")
    trace_parser.add_argument(
        "--trace", default=None, metavar="FILE",
        help="JSONL output path "
             "(default: <benchmark>-<mode>.trace.jsonl)")
    trace_parser.add_argument(
        "--chrome", default=None, metavar="FILE",
        help="also write Chrome trace-event JSON, viewable at "
             "https://ui.perfetto.dev")
    trace_parser.add_argument(
        "--metrics-every", type=int, default=None, metavar="N",
        help="snapshot the statistics tree every N cycles")
    trace_parser.add_argument(
        "--metrics-out", default=None, metavar="FILE",
        help="write the metrics time series as CSV "
             "(requires --metrics-every)")
    trace_parser.set_defaults(func=cmd_trace)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    configure_logging()
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (UnknownSuiteError, ValueError) as error:
        # Configuration mistakes (unknown suite, malformed REPRO_* value)
        # deserve a one-line message, not a traceback.
        message = error.args[0] if error.args else str(error)
        print(f"error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
