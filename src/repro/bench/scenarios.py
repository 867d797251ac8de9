"""The pinned benchmark scenarios.

Every scenario is a named, fixed-configuration measurement of one hot
path of the reproduction.  Configurations are **pinned** — quick mode
changes repetition counts, never workloads or data sizes — so any two
``BENCH_*.json`` files measure the same work and their medians compare
meaningfully across commits.

A scenario is a callable taking a :class:`ScenarioContext` (scratch
directory plus memoized expensive fixtures) and returning an optional
dict of extra metrics; the runner times the call.  Set-up that must not
be timed (building the traced run for the export scenario, warming the
sweep cache) lives in context accessors that scenarios call during the
warmup repetitions.
"""

from __future__ import annotations

import asyncio
import json
import shutil
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

from ..analysis.executor import ResultCache, cache_key, run_cells
from ..cluster.arrivals import ArrivalConfig, poisson_stream
from ..cluster.datacenter import (DatacenterSpec, default_job_model,
                                  run_policies)
from ..core.characterization import Characterizer, RunKey
from ..mapreduce.config import DEFAULT_CONF
from ..mapreduce.driver import simulate_job
from ..obs import Tracer, perfetto_json, prof, text_summary, timeline_csv
from ..sim.engine import Simulator

__all__ = ["Scenario", "ScenarioContext", "SCENARIOS", "scenario_names"]

#: Engine micro-benchmark: processes × timeouts each (~30k events).
_ENGINE_PROCS = 2500
_ENGINE_TIMEOUTS = 10

#: Pinned single-job configurations (the paper's micro default sizes,
#: scaled up so one run takes tens of milliseconds — enough to dwarf
#: timer noise, small enough for median-of-k in CI).
_JOB_GB = {"wordcount": 4.0, "terasort": 4.0, "kmeans": 2.0}

#: Pinned sweep grid for the cold/warm executor scenarios.
_SWEEP_KEYS = tuple(
    RunKey(machine, workload, data_per_node_gb=0.25)
    for machine in ("atom", "xeon")
    for workload in ("wordcount", "terasort"))

#: Fixed workload for the profiler-overhead self-check.
_OVERHEAD_GB = 2.0
_OVERHEAD_BEST_OF = 5

#: Pinned serve scenario: boot the full what-if stack on loopback and
#: replay a fixed 64-request closed-loop trace against a fully warm
#: sharded cache, so the timed work is the service path (HTTP parse,
#: coalescing map, cache probe, canonical JSON) and never a simulation.
_SERVE_REQUESTS = 64
_SERVE_CONCURRENCY = 16
_SERVE_SHARDS = 4
_SERVE_SEED = 5

#: Pinned datacenter scenario: a small mixed cluster replaying a fixed
#: 12-job stream under two policies.  The inner per-job cells are
#: pre-simulated in a context accessor, so the timed repetitions
#: measure the outer scheduling layer (arrivals, leasing, policy loop).
_DC_NODES = 16
_DC_RACK = 8
_DC_POLICIES = ("fifo", "hetero")
_DC_ARRIVALS = ArrivalConfig(seed=3, n_jobs=12, jobs_per_1000s=150.0,
                             node_choices=(2, 3, 4),
                             size_choices_gb=(0.25,))


@dataclass
class ScenarioContext:
    """Scratch space and memoized fixtures shared by one suite run."""

    tmp: Path
    _tracer: Optional[Tracer] = None
    _warm_cache_dir: Optional[Path] = None
    _serve_cache_dir: Optional[Path] = None
    _dc_model: Optional[Callable] = None
    _counter: int = 0

    def fresh_dir(self, prefix: str) -> Path:
        """A new empty directory under the suite's scratch space."""
        self._counter += 1
        path = self.tmp / f"{prefix}-{self._counter}"
        path.mkdir(parents=True)
        return path

    def traced_run(self) -> Tracer:
        """A traced terasort run (built once, export scenarios reuse it)."""
        if self._tracer is None:
            tracer = Tracer()
            simulate_job("atom", "terasort", data_per_node_gb=1.0,
                         obs=tracer)
            self._tracer = tracer
        return self._tracer

    def warm_cache(self) -> ResultCache:
        """A result cache pre-populated with the pinned sweep grid."""
        if self._warm_cache_dir is None:
            self._warm_cache_dir = self.fresh_dir("warm-cache")
            run_cells(list(_SWEEP_KEYS), jobs=1,
                      cache=ResultCache(self._warm_cache_dir))
        return ResultCache(self._warm_cache_dir)

    def serve_cache_dir(self) -> Path:
        """A sharded result cache pre-filled with the serve trace's cells."""
        if self._serve_cache_dir is None:
            from ..serve.service import ShardedResultCache
            self._serve_cache_dir = self.fresh_dir("serve-cache")
            keys = _serve_trace_keys()
            results = run_cells(keys, jobs=1)
            sharded = ShardedResultCache(str(self._serve_cache_dir),
                                         shards=_SERVE_SHARDS)
            for key, result in results.items():
                sharded.put(cache_key(key), key, DEFAULT_CONF, result)
        return self._serve_cache_dir

    def datacenter_model(self):
        """A job model with every pinned-stream cell pre-simulated."""
        if self._dc_model is None:
            model = default_job_model(Characterizer(), freq_ghz=1.8)
            for request in poisson_stream(_DC_ARRIVALS):
                for machine in ("atom", "xeon"):
                    model(machine, request)
            self._dc_model = model
        return self._dc_model


@dataclass(frozen=True)
class Scenario:
    """One pinned measurement: the runner times ``fn(ctx)``."""

    name: str
    kind: str          #: ``micro`` | ``macro`` | ``self``
    description: str
    fn: Callable[[ScenarioContext], Optional[Dict[str, float]]]
    #: Included in the post-suite profiled pass that fills the bench
    #: JSON's phase breakdown (self-checks and micro loops are skipped).
    profile: bool = True


# -- scenario bodies ------------------------------------------------------

def _engine_worker(sim: Simulator, delay: float):
    for _ in range(_ENGINE_TIMEOUTS):
        yield sim.timeout(delay)


def engine_throughput(ctx: ScenarioContext) -> Dict[str, float]:
    sim = Simulator()
    for i in range(_ENGINE_PROCS):
        sim.process(_engine_worker(sim, 0.5 + (i % 7) * 0.25))
    t0 = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - t0
    return {"events": float(sim.event_count),
            "events_per_s": sim.event_count / elapsed if elapsed else 0.0}


def _job_scenario(workload: str) -> Callable[[ScenarioContext],
                                             Dict[str, float]]:
    def run(ctx: ScenarioContext) -> Dict[str, float]:
        result = simulate_job("atom", workload,
                              data_per_node_gb=_JOB_GB[workload])
        return {"sim_makespan_s": result.execution_time_s,
                "map_attempts": float(result.counters.map_attempts),
                "reduce_attempts": float(result.counters.reduce_attempts)}

    run.__name__ = f"job_{workload}"
    return run


def sweep_cold(ctx: ScenarioContext) -> Dict[str, float]:
    cache = ResultCache(ctx.fresh_dir("cold-cache"))
    run_cells(list(_SWEEP_KEYS), jobs=1, cache=cache)
    return {"cells": float(len(_SWEEP_KEYS)),
            "stores": float(cache.stores)}


def sweep_warm(ctx: ScenarioContext) -> Dict[str, float]:
    cache = ctx.warm_cache()
    run_cells(list(_SWEEP_KEYS), jobs=1, cache=cache)
    stats = cache.stats()
    # Cache effectiveness rides along in the bench trajectory: a change
    # that silently breaks cache keying shows up as hit_rate < 1 here
    # long before anyone notices `run all` got slow.
    return {"cells": float(len(_SWEEP_KEYS)),
            "cache_hits": float(stats.hits),
            "cache_misses": float(stats.misses),
            "cache_hit_rate": stats.hit_rate}


def trace_export(ctx: ScenarioContext) -> Dict[str, float]:
    tracer = ctx.traced_run()          # memoized: built during warmup
    json_text = perfetto_json(tracer)
    csv_text = timeline_csv(tracer.job)
    summary = text_summary(tracer)
    return {"json_bytes": float(len(json_text)),
            "csv_bytes": float(len(csv_text)),
            "summary_bytes": float(len(summary)),
            "spans": float(len(tracer.spans))}


def _serve_load_config():
    from ..loadgen import LoadConfig
    return LoadConfig(seed=_SERVE_SEED, n_requests=_SERVE_REQUESTS,
                      compare_fraction=0.5,
                      workloads=("wordcount", "terasort"),
                      freqs_ghz=(1.2, 1.8), sizes_gb=(0.1,))


def _serve_trace_keys() -> List[RunKey]:
    """Every distinct grid cell the pinned serve trace can touch."""
    from ..loadgen import build_trace
    keys: List[RunKey] = []
    for query in build_trace(_serve_load_config()):
        doc = json.loads(query.body)
        doc.pop("goal", None)
        if query.path == "/compare":
            for machine in ("atom", "xeon"):
                keys.append(RunKey(machine=machine, **doc))
        else:
            keys.append(RunKey(**doc))
    return list(dict.fromkeys(keys))


def serve_qps(ctx: ScenarioContext) -> Dict[str, float]:
    """Boot the what-if API, replay the pinned trace, tear down.

    Measures the full service path end to end — TCP accept, HTTP
    parse, coalescing probe, sharded cache read, canonical JSON
    encode — against a fully warm cache, so a regression here is a
    serving-layer regression, never a simulation slowdown.
    """
    from ..loadgen import build_trace, run_load
    from ..serve.run import start_stack, stop_stack
    from ..serve.service import ServiceConfig

    cache_dir = ctx.serve_cache_dir()     # memoized: built during warmup
    trace = build_trace(_serve_load_config())

    async def _run():
        # Telemetry off: the scenario gates the untelemetered hot path,
        # so a tracing-cost regression shows up in serve.qps history
        # as a deliberate choice, not ambient drift.
        handle = await start_stack(ServiceConfig(
            workers=2, shards=_SERVE_SHARDS, cache_dir=str(cache_dir),
            telemetry=False))
        try:
            return await run_load(handle.host, handle.port, trace,
                                  concurrency=_SERVE_CONCURRENCY,
                                  timeout_s=60.0)
        finally:
            await stop_stack(handle, graceful=True)

    report = asyncio.run(_run())
    return {"qps": report.qps,
            "p50_ms": report.latency.quantile(0.5) * 1000.0,
            "p99_ms": report.latency.quantile(0.99) * 1000.0,
            "requests": float(report.requests),
            "errors": float(report.errors),
            "cache_hits": float(report.cache_hits)}


def datacenter_small(ctx: ScenarioContext) -> Dict[str, float]:
    spec = DatacenterSpec.mixed(_DC_NODES, rack_size=_DC_RACK)
    stream = poisson_stream(_DC_ARRIVALS)
    runs = run_policies(spec, stream, _DC_POLICIES,
                        job_model=ctx.datacenter_model())
    fifo, hetero = runs["fifo"], runs["hetero"]
    return {"jobs_scheduled": float(len(stream) * len(_DC_POLICIES)),
            "fifo_makespan_s": fifo.makespan_s,
            "hetero_edp_vs_fifo": (hetero.cluster_edp / fifo.cluster_edp
                                   if fifo.cluster_edp else 0.0)}


def lint_tree_scenario(ctx: ScenarioContext) -> Dict[str, float]:
    """Full-tree determinism/architecture lint over this checkout.

    Pins the linter's own wall time: the one taint-dataflow pass that
    DET001-DET006 all read must keep whole-tree lint under ~2x its
    pre-dataflow runtime, and this scenario is where that budget is
    enforced — a fixpoint blow-up or an accidentally quadratic rule
    shows up here before it shows up in every CI run.
    The measured tree is the live checkout, so ``files`` drifts as the
    repo grows; the gate judges the median wall time, not the counts.
    """
    from ..lint.engine import find_repo_root, lint_tree

    result = lint_tree(find_repo_root())
    return {"files": float(result.files_checked),
            "findings": float(len(result.findings)),
            "suppressed": float(result.suppressed)}


def profiler_overhead(ctx: ScenarioContext) -> Dict[str, float]:
    """Self-check: wall cost of the same job with profiling off vs on.

    Uses best-of-N on both sides — the minimum is the noise-robust
    estimator for a deterministic workload — with the off/on runs
    *interleaved*, so load or frequency drift on a busy host lands on
    both sides equally and the reported overhead is instrumentation
    cost, not scheduler jitter.  The bench gate asserts this stays
    small (< 10% of the post-campaign engine — the same absolute cost
    as 5% of the pre-campaign one); the profiler's whole design
    (coarse phases, batched engine timing) exists to keep it there.
    """
    def once(profiled: bool) -> float:
        t0 = time.perf_counter()
        if profiled:
            with prof.profiled():
                simulate_job("atom", "wordcount",
                             data_per_node_gb=_OVERHEAD_GB)
        else:
            simulate_job("atom", "wordcount", data_per_node_gb=_OVERHEAD_GB)
        return time.perf_counter() - t0

    once(False), once(True)   # untimed warmup pair: absorb cold-start cost
    pairs = [(once(False), once(True)) for _ in range(_OVERHEAD_BEST_OF)]
    baseline = min(b for b, _ in pairs)
    profiled = min(p for _, p in pairs)
    overhead = (profiled - baseline) / baseline * 100.0 if baseline else 0.0
    return {"baseline_s": baseline, "profiled_s": profiled,
            "overhead_pct": overhead}


#: The pinned suite, in execution order.
SCENARIOS: List[Scenario] = [
    Scenario("engine.throughput", "micro",
             "dispatch ~30k timeout events through a bare Simulator",
             engine_throughput, profile=False),
    Scenario("job.wordcount", "macro",
             f"single wordcount job, atom, {_JOB_GB['wordcount']:g} GB/node",
             _job_scenario("wordcount")),
    Scenario("job.terasort", "macro",
             f"single terasort job, atom, {_JOB_GB['terasort']:g} GB/node",
             _job_scenario("terasort")),
    Scenario("job.kmeans", "macro",
             f"single k-means job, atom, {_JOB_GB['kmeans']:g} GB/node",
             _job_scenario("kmeans")),
    Scenario("sweep.cold", "macro",
             f"{len(_SWEEP_KEYS)}-cell sweep, empty result cache",
             sweep_cold),
    Scenario("sweep.warm", "macro",
             f"{len(_SWEEP_KEYS)}-cell sweep, fully warm result cache",
             sweep_warm),
    Scenario("datacenter.small", "macro",
             f"{_DC_NODES}-node mixed cluster, {_DC_ARRIVALS.n_jobs}-job "
             f"stream under {' + '.join(_DC_POLICIES)} (warm inner cells)",
             datacenter_small),
    Scenario("serve.qps", "macro",
             f"what-if API: {_SERVE_REQUESTS}-request closed-loop trace, "
             f"{_SERVE_CONCURRENCY} outstanding, warm sharded cache",
             serve_qps, profile=False),
    Scenario("trace.export", "macro",
             "Perfetto JSON + timeline CSV + text summary of a traced run",
             trace_export, profile=False),
    Scenario("lint.tree", "macro",
             "full-tree determinism/architecture lint (dataflow + ARCH001)",
             lint_tree_scenario, profile=False),
    Scenario("prof.overhead", "self",
             "profiler-overhead self-check (same job, profiling off vs on)",
             profiler_overhead, profile=False),
]


def scenario_names() -> List[str]:
    return [s.name for s in SCENARIOS]


def make_context() -> ScenarioContext:
    """Create a context with a self-cleaning scratch directory."""
    return ScenarioContext(tmp=Path(tempfile.mkdtemp(prefix="repro-bench-")))


def cleanup_context(ctx: ScenarioContext) -> None:
    shutil.rmtree(ctx.tmp, ignore_errors=True)
