"""Command-line interface: regenerate any figure/table of the paper.

Examples::

    repro-hadoop list
    repro-hadoop run F1 F2
    repro-hadoop run all --jobs 4          # parallel, persistently cached
    repro-hadoop run all --no-cache        # force a cold, serial-fidelity run
    repro-hadoop job --machine atom --workload wordcount --freq 1.6
    repro-hadoop faults --seed 7 --rates 0 5 10 --export out/faults
    repro-hadoop datacenter --nodes 200 --num-jobs 60 --seed 3 \
        --policy fifo hetero --export out/dc
    repro-hadoop trace terasort --machine atom --data-gb 10 --check
    repro-hadoop validate
    repro-hadoop cache stats
    repro-hadoop cache clear
    repro-hadoop serve --port 8008           # async what-if API
    repro-hadoop loadtest --requests 1000 --concurrency 64 --seed 1
    repro-hadoop bench                       # host-perf suite -> BENCH_*.json
    repro-hadoop lint                        # determinism/purity linter
    repro-hadoop lint --format json -o lint-report.json

Simulation commands (``run``/``validate``/``report``) share a persistent
result cache (see ``docs/MODELING.md`` §7): cells already simulated by a
previous invocation — with identical model code — are loaded from disk
instead of re-run, and ``--jobs N`` fans the remaining cells out over N
worker processes.  Results are bit-identical either way.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis.experiments import ALL_EXPERIMENTS, run_experiments
from .analysis.executor import ResultCache, resolve_jobs
from .cluster.scheduler import POLICY_NAMES
from .core.characterization import Characterizer
from .core.metrics import edp
from .mapreduce.driver import simulate_job
from .sim.engine import SimulationError
from .workloads.base import all_workloads

__all__ = ["main", "build_parser"]


def _worker_count(text: str) -> int:
    """``--jobs`` value: an integer >= 0 (0 = one worker per CPU)."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if jobs < 0:
        raise argparse.ArgumentTypeError(
            f"must be >= 0 (0 = one per CPU), got {jobs}")
    return jobs


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-hadoop",
        description=("Reproduction of 'Big vs little core for "
                     "energy-efficient Hadoop computing'"))
    sub = parser.add_subparsers(dest="command", required=True)

    # Shared by every command that simulates grid cells.
    perf = argparse.ArgumentParser(add_help=False)
    perf.add_argument("--jobs", "-j", type=_worker_count, default=1,
                      metavar="N",
                      help="worker processes for sweep cells "
                           "(default 1 = serial, 0 = one per CPU)")
    perf.add_argument("--no-cache", action="store_true",
                      help="neither read nor write the on-disk result cache")
    perf.add_argument("--cache-dir", default=None, metavar="DIR",
                      help="result-cache directory (default: $REPRO_CACHE_DIR "
                           "or ~/.cache/repro-hadoop)")

    sub.add_parser("list", help="list experiment ids and workloads")

    run = sub.add_parser("run", parents=[perf],
                         help="regenerate figures/tables by id")
    run.add_argument("experiments", nargs="+",
                     help="experiment ids (F1..F17, T3, S1, X1, X2, FT) "
                          "or 'all'")

    faults = sub.add_parser(
        "faults", parents=[perf],
        help="sweep node-failure rates (experiment FT)")
    faults.add_argument("--seed", type=int, default=0,
                        help="fault-plan seed (same seed = bit-identical "
                             "results, any --jobs)")
    faults.add_argument("--rates", type=float, nargs="+", default=None,
                        metavar="R",
                        help="node-failure rates in crashes per 1000 "
                             "simulated seconds (default 0 2 5 10)")
    faults.add_argument("--workloads", nargs="+", default=None,
                        metavar="WL",
                        help="workloads to sweep (default wordcount "
                             "terasort)")
    faults.add_argument("--speculate", action="store_true",
                        help="enable LATE speculative execution")
    faults.add_argument("--export", default=None, metavar="DIR",
                        help="write the FT_*.csv payloads to DIR")

    dc = sub.add_parser(
        "datacenter", parents=[perf],
        help="multi-job datacenter simulation with a cluster-level "
             "scheduler (experiment DC)")
    dc.add_argument("--nodes", type=int, default=200,
                    help="total nodes across the mixed racks (default 200)")
    dc.add_argument("--little-frac", type=float, default=0.5,
                    help="fraction of nodes in the little-core (atom) pool "
                         "(default 0.5)")
    dc.add_argument("--rack-size", type=int, default=16,
                    help="nodes per rack (default 16)")
    dc.add_argument("--policy", nargs="+", default=None, metavar="P",
                    choices=list(POLICY_NAMES),
                    help="scheduling policies to compare "
                         f"(default: all of {' '.join(POLICY_NAMES)})")
    dc.add_argument("--seed", type=int, default=0,
                    help="arrival-stream seed (same seed = bit-identical "
                         "results, any --jobs)")
    dc.add_argument("--num-jobs", type=int, default=60, metavar="N",
                    help="jobs in the synthetic arrival stream (default 60; "
                         "ignored with --trace)")
    dc.add_argument("--rate", type=float, default=120.0, metavar="R",
                    help="mean arrivals per 1000 simulated seconds "
                         "(default 120; ignored with --trace)")
    dc.add_argument("--goal", choices=["EDP", "ED2P", "EDAP", "ED2AP"],
                    default="EDP",
                    help="cost goal for the hetero policy's hybrid "
                         "tie-break (default EDP)")
    dc.add_argument("--patience", type=float, default=180.0, metavar="S",
                    help="seconds a job waits for the hetero policy's "
                         "preferred pool before taking the other "
                         "(default 180)")
    dc.add_argument("--freq", type=float, default=1.8,
                    help="core frequency in GHz for every node (1.2-1.8)")
    dc.add_argument("--trace", default=None, metavar="FILE",
                    help="replay a job-arrival trace CSV instead of the "
                         "synthetic stream (see docs/SCHEDULING.md)")
    dc.add_argument("--export", default=None, metavar="DIR",
                    help="write the DC_*.csv payloads to DIR")

    sub.add_parser("validate", parents=[perf],
                   help="evaluate every paper claim against the model")

    report = sub.add_parser(
        "report", parents=[perf],
        help="write the full reproduction report (markdown)")
    report.add_argument("--output", "-o", default="reproduction_report.md",
                        help="output path (default reproduction_report.md)")

    job = sub.add_parser("job", help="simulate a single Hadoop job")
    job.add_argument("--machine", choices=["atom", "xeon"], required=True)
    job.add_argument("--workload", required=True)
    job.add_argument("--freq", type=float, default=1.8,
                     help="core frequency in GHz (1.2-1.8)")
    job.add_argument("--block-mb", type=float, default=64.0)
    job.add_argument("--data-gb", type=float, default=1.0,
                     help="input data per node in GB")
    job.add_argument("--nodes", type=int, default=3)
    job.add_argument("--cores", type=int, default=None,
                     help="active cores per node")

    trace = sub.add_parser(
        "trace", parents=[perf],
        help="run one job with tracing on and export its timeline")
    trace.add_argument("workload", help="workload name (e.g. wordcount)")
    trace.add_argument("--machine", choices=["atom", "xeon"], default="atom")
    trace.add_argument("--freq", type=float, default=1.8,
                       help="core frequency in GHz (1.2-1.8)")
    trace.add_argument("--block-mb", type=float, default=64.0)
    trace.add_argument("--data-gb", type=float, default=1.0,
                       help="input data per node in GB")
    trace.add_argument("--nodes", type=int, default=3)
    trace.add_argument("--cores", type=int, default=None,
                       help="active cores per node")
    trace.add_argument("--crash", action="append", default=[],
                       metavar="NODE:SECONDS",
                       help="inject a node crash (repeatable), e.g. "
                            "--crash atom1:60")
    trace.add_argument("--out", "-o", default="trace-out", metavar="DIR",
                       help="output directory for trace.json, timeline.csv "
                            "and summary.txt (default trace-out)")
    trace.add_argument("--check", action="store_true",
                       help="run the trace invariant checker; exit 1 on "
                            "any violation")

    lint = sub.add_parser(
        "lint", help="run the determinism/purity linter (repro.lint)")
    lint.add_argument("paths", nargs="*", metavar="PATH",
                      help="files or directories to lint, relative to the "
                           "repo root (default: src/repro + the docs)")
    lint.add_argument("--format", choices=["text", "json"], default="text",
                      dest="output_format",
                      help="report format on stdout (default text)")
    lint.add_argument("--root", default=None, metavar="DIR",
                      help="repo root (default: auto-detected)")
    lint.add_argument("--output", "-o", default=None, metavar="FILE",
                      help="also write the JSON report to FILE "
                           "(for CI artifacts)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule catalog and exit")
    lint.add_argument("--graph", choices=["dot", "json"], default=None,
                      help="dump the src/repro import graph (with tier "
                           "assignments from import-contract.json) and "
                           "exit")

    serve = sub.add_parser(
        "serve", help="run the async what-if HTTP API "
                      "(simulate/sweep/compare; see docs/SERVICE.md)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8008,
                       help="TCP port (default 8008; 0 = ephemeral)")
    serve.add_argument("--workers", type=int, default=2, metavar="N",
                       help="simulation worker processes (default 2)")
    serve.add_argument("--queue-limit", type=int, default=128, metavar="N",
                       help="max admitted cells before requests are shed "
                            "with 429 (default 128)")
    serve.add_argument("--timeout", type=float, default=30.0, metavar="S",
                       help="per-request deadline in seconds -> 504 "
                            "(default 30)")
    serve.add_argument("--batch-max", type=int, default=8, metavar="N",
                       help="max cells per process-pool submission "
                            "(default 8)")
    serve.add_argument("--shards", type=int, default=8, metavar="N",
                       help="result-cache namespace shards (default 8)")
    serve.add_argument("--drain-timeout", type=float, default=10.0,
                       metavar="S",
                       help="grace period for SIGTERM drain (default 10)")
    serve.add_argument("--no-cache", action="store_true",
                       help="serve without the persistent result cache")
    serve.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="result-cache directory (default: "
                            "$REPRO_CACHE_DIR or ~/.cache/repro-hadoop)")
    serve.add_argument("--no-telemetry", action="store_true",
                       help="disable request-scoped tracing "
                            "(/debug/requests returns 404)")
    serve.add_argument("--trace-ring", type=int, default=256, metavar="N",
                       help="completed request traces kept for "
                            "/debug/requests (default 256)")
    serve.add_argument("--log-json", default=None, metavar="FILE",
                       help="append structured JSON-lines event logs "
                            "(request-id correlated) to FILE")

    loadtest = sub.add_parser(
        "loadtest", help="replay a seed-deterministic query trace against "
                         "a running server and report latency/qps")
    loadtest.add_argument("--host", default="127.0.0.1")
    loadtest.add_argument("--port", type=int, default=8008)
    loadtest.add_argument("--spawn", action="store_true",
                          help="boot an in-process server on an ephemeral "
                               "port instead of targeting --host/--port")
    loadtest.add_argument("--requests", type=int, default=200, metavar="N",
                          help="trace length (default 200)")
    loadtest.add_argument("--concurrency", type=int, default=32,
                          metavar="N",
                          help="outstanding requests (default 32)")
    loadtest.add_argument("--seed", type=int, default=0,
                          help="trace seed (same seed = byte-identical "
                               "request trace)")
    loadtest.add_argument("--mode", choices=["closed", "open"],
                          default="closed",
                          help="closed loop (capacity) or open loop "
                               "(fixed arrival rate; default closed)")
    loadtest.add_argument("--rate", type=float, default=200.0, metavar="R",
                          help="open-loop arrival rate in req/s "
                               "(default 200)")
    loadtest.add_argument("--compare-fraction", type=float, default=0.6,
                          metavar="F",
                          help="share of /compare queries in the mix "
                               "(default 0.6; the rest are /simulate)")
    loadtest.add_argument("--timeout", type=float, default=60.0,
                          metavar="S",
                          help="client-side per-request timeout "
                               "(default 60)")
    loadtest.add_argument("--out", "-o", default=None, metavar="FILE",
                          help="also write the JSON report to FILE")
    loadtest.add_argument("--trace-out", default=None, metavar="FILE",
                          help="after the run, download the server's "
                               "request traces as a Chrome trace-event "
                               "file (open in ui.perfetto.dev)")
    loadtest.add_argument("--log-json", default=None, metavar="FILE",
                          help="append the client's structured "
                               "JSON-lines events to FILE")
    loadtest.add_argument("--dry-run", action="store_true",
                          help="print the canonical trace and exit "
                               "(no server needed; for determinism "
                               "checks)")
    loadtest.add_argument("--require-coalesce", type=int, default=0,
                          metavar="N",
                          help="exit 1 unless >= N requests were "
                               "coalesced")
    loadtest.add_argument("--require-cache-hits", type=int, default=0,
                          metavar="N",
                          help="exit 1 unless >= N cache hits were "
                               "served")
    loadtest.add_argument("--workers", type=int, default=2, metavar="N",
                          help="with --spawn: server worker processes")
    loadtest.add_argument("--queue-limit", type=int, default=128,
                          metavar="N",
                          help="with --spawn: server admission limit")
    loadtest.add_argument("--batch-max", type=int, default=8, metavar="N",
                          help="with --spawn: server batch size cap")
    loadtest.add_argument("--no-cache", action="store_true",
                          help="with --spawn: serve without the "
                               "persistent cache")
    loadtest.add_argument("--cache-dir", default=None, metavar="DIR",
                          help="with --spawn: server cache directory")

    cache = sub.add_parser(
        "cache", help="inspect or clear the on-disk result cache")
    cache.add_argument("action", choices=["stats", "clear"],
                       help="'stats' prints entry counts and hit rates; "
                            "'clear' deletes cached results")
    cache.add_argument("--cache-dir", default=None, metavar="DIR",
                       help="cache directory (default: $REPRO_CACHE_DIR "
                            "or ~/.cache/repro-hadoop)")
    cache.add_argument("--stale-only", action="store_true",
                       help="with 'clear': only drop entries from "
                            "superseded model fingerprints")

    # Run flags shared between `bench` and `bench run`, so both
    # `bench --repeat 3` and `bench run --repeat 3` work (argparse only
    # applies a subparser default when the parent has not set the attr).
    bench_flags = argparse.ArgumentParser(add_help=False)
    bench_flags.add_argument("--repeat", type=int, default=None, metavar="K",
                             help="timed repetitions per scenario")
    bench_flags.add_argument("--warmup", type=int, default=None, metavar="K",
                             help="untimed warmup repetitions per scenario")
    bench_flags.add_argument("--scenario", action="append", default=None,
                             metavar="NAME",
                             help="run only this scenario (repeatable; "
                                  "see 'bench list')")
    bench_flags.add_argument("--out", "-o", default=None, metavar="FILE",
                             help="report path (default "
                                  "BENCH_<timestamp>.json in cwd)")

    bench = sub.add_parser(
        "bench", parents=[bench_flags],
        help="benchmark the reproduction itself (host wall time)")
    bench_sub = bench.add_subparsers(dest="bench_command")
    bench_sub.add_parser("run", parents=[bench_flags],
                         help="run the scenario suite (the default)")
    bench_sub.add_parser("list", help="list benchmark scenarios")
    return parser


def _open_cache(cache_dir) -> ResultCache:
    """Open the result cache, turning a bad path into a clean exit 2."""
    try:
        return ResultCache(cache_dir)
    except ValueError as exc:
        print(f"repro-hadoop: error: {exc}", file=sys.stderr)
        raise SystemExit(2)


def _make_characterizer(args: argparse.Namespace) -> Characterizer:
    """Build the shared characterizer from the perf flags."""
    cache = None if args.no_cache else _open_cache(args.cache_dir)
    return Characterizer(cache=cache, jobs=resolve_jobs(args.jobs))


def _print_cache_summary(characterizer: Characterizer) -> None:
    cache = characterizer.disk_cache
    if cache is None:
        return
    print(f"[cache] {cache.hits} cells from cache, "
          f"{cache.misses} simulated, {cache.stores} stored "
          f"({cache.path})", file=sys.stderr)


def _cmd_list() -> int:
    print("experiments:")
    for exp_id, fn in ALL_EXPERIMENTS.items():
        doc = (fn.__doc__ or "").strip().splitlines()[0]
        print(f"  {exp_id:4s} {doc}")
    print("workloads:")
    for name, spec in sorted(all_workloads().items()):
        print(f"  {name:12s} {spec.full_name} [{spec.category}]")
    return 0


def _cmd_run(ids: List[str], args: argparse.Namespace) -> int:
    if any(i.lower() == "all" for i in ids):
        ids = list(ALL_EXPERIMENTS)
    unknown = [i for i in ids if i.upper() not in ALL_EXPERIMENTS]
    if unknown:
        print(f"unknown experiment ids: {unknown}; "
              f"valid: {sorted(ALL_EXPERIMENTS)}", file=sys.stderr)
        return 2
    characterizer = _make_characterizer(args)
    for experiment in run_experiments(characterizer,
                                      [i.upper() for i in ids]):
        print(experiment.render())
        print()
    _print_cache_summary(characterizer)
    return 0


def _cmd_job(args: argparse.Namespace) -> int:
    try:
        result = simulate_job(
            args.machine, args.workload, n_nodes=args.nodes,
            freq_ghz=args.freq, block_size_mb=args.block_mb,
            data_per_node_gb=args.data_gb, cores_per_node=args.cores)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    except (ValueError, SimulationError) as exc:
        print(f"repro-hadoop: error: {exc}", file=sys.stderr)
        return 2
    print(f"{args.workload} on {args.machine} "
          f"({args.nodes} nodes @ {args.freq} GHz, "
          f"{args.block_mb:g} MB blocks, {args.data_gb:g} GB/node)")
    print(f"  execution time : {result.execution_time_s:10.1f} s")
    print(f"  dynamic power  : {result.dynamic_power_w:10.1f} W")
    print(f"  dynamic energy : {result.dynamic_energy_j:10.1f} J")
    print(f"  EDP            : {edp(result.dynamic_energy_j, result.execution_time_s):10.3e} J*s")
    print(f"  aggregate IPC  : {result.ipc:10.2f}")
    for phase in ("map", "reduce", "other"):
        print(f"  {phase:6s} phase   : {result.phase_time(phase):10.1f} s "
              f"({100 * result.phase_fraction(phase):5.1f}%)")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from .analysis.executor import CellError
    from .analysis.experiments import fault_sweep
    from .analysis.export import write_experiment_csv
    characterizer = _make_characterizer(args)
    kwargs = {"seed": args.seed, "speculative": args.speculate}
    if args.rates is not None:
        kwargs["rates"] = tuple(args.rates)
    if args.workloads is not None:
        kwargs["workloads"] = tuple(args.workloads)
    try:
        experiment = fault_sweep(characterizer, **kwargs)
    except (KeyError, ValueError, CellError) as exc:
        print(f"repro-hadoop: error: {exc}", file=sys.stderr)
        return 2
    print(experiment.render())
    if args.export:
        for path in write_experiment_csv(experiment, args.export):
            print(f"wrote {path}")
    _print_cache_summary(characterizer)
    return 0


def _cmd_datacenter(args: argparse.Namespace) -> int:
    from .analysis.executor import CellError
    from .analysis.experiments import datacenter_study
    from .analysis.export import write_experiment_csv
    from .cluster.arrivals import parse_trace

    stream = None
    if args.trace:
        try:
            with open(args.trace, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(f"repro-hadoop: error: {exc}", file=sys.stderr)
            return 2
    characterizer = _make_characterizer(args)
    try:
        if args.trace:
            stream = parse_trace(text)
        experiment = datacenter_study(
            characterizer, seed=args.seed, n_nodes=args.nodes,
            little_frac=args.little_frac, rack_size=args.rack_size,
            policies=tuple(args.policy) if args.policy else POLICY_NAMES,
            n_jobs=args.num_jobs, jobs_per_1000s=args.rate,
            goal=args.goal, patience_s=args.patience, freq_ghz=args.freq,
            stream=stream)
    except (KeyError, ValueError, CellError, SimulationError) as exc:
        print(f"repro-hadoop: error: {exc}", file=sys.stderr)
        return 2
    print(experiment.render())
    if args.export:
        for path in write_experiment_csv(experiment, args.export):
            print(f"wrote {path}")
    _print_cache_summary(characterizer)
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import Tracer, check_job, write_trace_files
    from .sim.faults import FaultPlan, NodeFault

    node_faults = []
    for spec in args.crash:
        node, sep, when = spec.partition(":")
        if not sep or not node:
            print(f"repro-hadoop: error: --crash wants NODE:SECONDS, "
                  f"got {spec!r}", file=sys.stderr)
            return 2
        try:
            node_faults.append(NodeFault(node, crash_at_s=float(when)))
        except ValueError:
            print(f"repro-hadoop: error: bad --crash time {when!r}",
                  file=sys.stderr)
            return 2
    plan = FaultPlan(node_faults=tuple(node_faults)) if node_faults else None

    # The traced run is always executed in-process: tracing re-simulates
    # the one job it describes (cached scalar results stay untouched), so
    # --jobs only affects sweep commands and the trace bytes cannot
    # depend on it.
    tracer = Tracer()
    try:
        simulate_job(
            args.machine, args.workload, n_nodes=args.nodes,
            freq_ghz=args.freq, block_size_mb=args.block_mb,
            data_per_node_gb=args.data_gb, cores_per_node=args.cores,
            fault_plan=plan, obs=tracer)
    except KeyError as exc:
        print(exc, file=sys.stderr)
        return 2
    except (ValueError, SimulationError) as exc:
        print(f"repro-hadoop: error: {exc}", file=sys.stderr)
        return 2
    for path in write_trace_files(tracer, args.out):
        print(f"wrote {path}")
    if args.check:
        report = check_job(tracer.job)
        print(report.render())
        if not report.ok:
            return 1
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .bench import SCENARIOS, default_output_path, run_suite, write_report
    from .bench.runner import render_report

    command = args.bench_command or "run"
    if command == "list":
        for scenario in SCENARIOS:
            print(f"  {scenario.name:20s} [{scenario.kind}] "
                  f"{scenario.description}")
        return 0
    try:
        report = run_suite(
            names=args.scenario, repeat=args.repeat, warmup=args.warmup,
            progress=lambda msg: print(msg, file=sys.stderr))
    except ValueError as exc:
        print(f"repro-hadoop: error: {exc}", file=sys.stderr)
        return 2
    out = Path(args.out) if args.out else default_output_path()
    write_report(report, out)
    print(render_report(report))
    print(f"wrote {out}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from .obs import slog
    from .serve.run import serve_forever
    from .serve.service import ServiceConfig

    try:
        config = ServiceConfig(
            workers=args.workers, queue_limit=args.queue_limit,
            request_timeout_s=args.timeout, batch_max=args.batch_max,
            shards=args.shards, cache_dir=args.cache_dir,
            no_cache=args.no_cache, drain_timeout_s=args.drain_timeout,
            telemetry=not args.no_telemetry, trace_ring=args.trace_ring)
    except ValueError as exc:
        print(f"repro-hadoop: error: {exc}", file=sys.stderr)
        return 2
    log = None
    if args.log_json:
        try:
            log = slog.install(sink=args.log_json)
        except OSError as exc:
            print(f"repro-hadoop: error: cannot open {args.log_json}: "
                  f"{exc}", file=sys.stderr)
            return 2
    try:
        return asyncio.run(serve_forever(config, args.host, args.port))
    except OSError as exc:          # port in use, bad bind address, ...
        print(f"repro-hadoop: error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:       # signal handler races on teardown
        return 0
    finally:
        if log is not None:
            slog.uninstall()
            log.close()


def _cmd_loadtest(args: argparse.Namespace) -> int:
    import asyncio
    import json as json_mod

    from .loadgen import LoadConfig, build_trace, run_load, trace_lines
    from .loadgen.client import fetch_traces
    from .obs import slog

    try:
        load_config = LoadConfig(
            seed=args.seed, n_requests=args.requests, mode=args.mode,
            rate_per_s=args.rate, compare_fraction=args.compare_fraction)
        trace = build_trace(load_config)
    except ValueError as exc:
        print(f"repro-hadoop: error: {exc}", file=sys.stderr)
        return 2
    if args.dry_run:
        for line in trace_lines(trace):
            print(line)
        return 0

    async def _run():
        if not args.spawn:
            report = await run_load(args.host, args.port, trace,
                                    concurrency=args.concurrency,
                                    timeout_s=args.timeout)
            if args.trace_out:
                return report, await fetch_traces(args.host, args.port)
            return report, None
        from .serve.run import start_stack, stop_stack
        from .serve.service import ServiceConfig
        handle = await start_stack(ServiceConfig(
            workers=args.workers, queue_limit=args.queue_limit,
            batch_max=args.batch_max, no_cache=args.no_cache,
            cache_dir=args.cache_dir))
        try:
            report = await run_load(handle.host, handle.port, trace,
                                    concurrency=args.concurrency,
                                    timeout_s=args.timeout)
            chrome = None
            if args.trace_out:
                chrome = await fetch_traces(handle.host, handle.port)
            return report, chrome
        finally:
            await stop_stack(handle, graceful=True)

    log = None
    if args.log_json:
        try:
            log = slog.install(sink=args.log_json)
        except OSError as exc:
            print(f"repro-hadoop: error: cannot open {args.log_json}: "
                  f"{exc}", file=sys.stderr)
            return 2
    try:
        report, chrome = asyncio.run(_run())
    except (ValueError, OSError) as exc:
        print(f"repro-hadoop: error: {exc}", file=sys.stderr)
        return 2
    finally:
        if log is not None:
            slog.uninstall()
            log.close()
    if args.trace_out:
        if chrome is None:
            print("note: server traces unavailable (telemetry off or "
                  "server unreachable); nothing written to "
                  f"{args.trace_out}", file=sys.stderr)
        else:
            with open(args.trace_out, "wb") as fh:
                fh.write(chrome)
            print(f"wrote {args.trace_out}")
    print(report.render())
    if args.out:
        payload = {"config": {
            "seed": args.seed, "requests": args.requests,
            "concurrency": args.concurrency, "mode": args.mode,
            "rate_per_s": args.rate,
            "compare_fraction": args.compare_fraction,
        }, "report": report.to_dict()}
        with open(args.out, "w", encoding="utf-8") as fh:
            json_mod.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    failures = []
    if report.errors:
        failures.append(f"{report.errors} errors "
                        f"({report.server_errors} 5xx, "
                        f"{report.transport_errors} transport, "
                        f"{report.mismatches} response mismatches)")
    if report.coalesced < args.require_coalesce:
        failures.append(f"coalesced {report.coalesced} < required "
                        f"{args.require_coalesce}")
    if report.cache_hits < args.require_cache_hits:
        failures.append(f"cache hits {report.cache_hits} < required "
                        f"{args.require_cache_hits}")
    if failures:
        print("loadtest FAILED: " + "; ".join(failures), file=sys.stderr)
        return 1
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = _open_cache(args.cache_dir)
    if args.action == "stats":
        print(cache.stats().render())
        return 0
    removed = cache.clear(stale_only=args.stale_only)
    print(f"removed {removed} cached cell(s) from {cache.path}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        return _cmd_list()
    if args.command == "run":
        return _cmd_run(args.experiments, args)
    if args.command == "validate":
        from .analysis.validation import validate
        characterizer = _make_characterizer(args)
        report = validate(characterizer)
        print(report.render())
        _print_cache_summary(characterizer)
        return 0 if report.all_ok else 1
    if args.command == "report":
        from .analysis.report import generate_report
        characterizer = _make_characterizer(args)
        text = generate_report(characterizer)
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.output} ({len(text.splitlines())} lines)")
        _print_cache_summary(characterizer)
        return 0
    if args.command == "faults":
        return _cmd_faults(args)
    if args.command == "datacenter":
        return _cmd_datacenter(args)
    if args.command == "job":
        return _cmd_job(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "lint":
        from .lint.cli import run_lint
        return run_lint(
            paths=args.paths, output_format=args.output_format,
            root=args.root, output=args.output,
            list_rules=args.list_rules, graph=args.graph)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "loadtest":
        return _cmd_loadtest(args)
    if args.command == "cache":
        return _cmd_cache(args)
    if args.command == "bench":
        return _cmd_bench(args)
    raise AssertionError("unreachable")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
