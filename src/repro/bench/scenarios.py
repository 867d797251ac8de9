"""The pinned benchmark scenarios.

Every scenario is a named, fixed-configuration measurement of one hot
path of the reproduction.  Configurations are **pinned**, so any two
``BENCH_*.json`` files measure the same work.

A scenario is a callable taking a :class:`ScenarioContext` (memoized
expensive fixtures) and returning a dict of metrics; the runner times
the call.  Metrics are work counts and simulated outputs, never host
rates, so they are the same on every host (the profiler self-check,
whose outputs are timings, is the exception).  Set-up that must not be
timed or counted (building the traced run for the export scenario,
pre-simulating the datacenter's inner cells) is the scenario's
``setup``, which the runner calls before any repetition.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from ..cluster.arrivals import ArrivalConfig, poisson_stream
from ..cluster.datacenter import (DatacenterSpec, default_job_model,
                                  run_policies)
from ..core.characterization import Characterizer
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

#: Fixed workload for the profiler-overhead self-check, and the number
#: of timed off/on pairs it takes the median ratio of.
_OVERHEAD_GB = 2.0
_OVERHEAD_PAIRS = 21

#: Pinned datacenter scenario: a small mixed cluster replaying a fixed
#: 12-job stream under two policies.  The inner per-job cells are
#: pre-simulated by the scenario's setup, so the timed repetitions
#: measure the outer scheduling layer (arrivals, leasing, policy loop).
_DC_NODES = 16
_DC_RACK = 8
_DC_POLICIES = ("fifo", "hetero")
_DC_ARRIVALS = ArrivalConfig(seed=3, n_jobs=12, jobs_per_1000s=150.0,
                             node_choices=(2, 3, 4),
                             size_choices_gb=(0.25,))


@dataclass
class ScenarioContext:
    """Memoized fixtures shared by one suite run."""

    _tracer: Optional[Tracer] = None
    _dc_model: Optional[Callable] = None

    def traced_run(self) -> Tracer:
        """A traced terasort run (built once, export scenarios reuse it)."""
        if self._tracer is None:
            tracer = Tracer()
            simulate_job("atom", "terasort", data_per_node_gb=1.0,
                         obs=tracer)
            self._tracer = tracer
        return self._tracer

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
    fn: Callable[[ScenarioContext], Dict[str, float]]
    #: Builds the memoized fixtures ``fn`` reads, before it is timed or
    #: counted, so no repetition and no count includes their cost.
    setup: Optional[Callable[[ScenarioContext], object]] = None
    #: Profiled on its own for the report's ``counts``, which
    #: ``tests/test_bench.py`` pins.  Off for whole-tree lint, whose
    #: counts describe the checkout (the lint job gates its findings),
    #: and for the overhead self-check, whose outputs are timings.
    counted: bool = True


# -- scenario bodies ------------------------------------------------------

def _engine_worker(sim: Simulator, delay: float):
    for _ in range(_ENGINE_TIMEOUTS):
        yield sim.timeout(delay)


def engine_throughput(ctx: ScenarioContext) -> Dict[str, float]:
    sim = Simulator()
    for i in range(_ENGINE_PROCS):
        sim.process(_engine_worker(sim, 0.5 + (i % 7) * 0.25))
    sim.run()
    return {"events": float(sim.event_count)}


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


def trace_export(ctx: ScenarioContext) -> Dict[str, float]:
    tracer = ctx.traced_run()          # memoized: built by the setup
    json_text = perfetto_json(tracer)
    csv_text = timeline_csv(tracer.job)
    summary = text_summary(tracer)
    return {"json_bytes": float(len(json_text)),
            "csv_bytes": float(len(csv_text)),
            "summary_bytes": float(len(summary)),
            "spans": float(len(tracer.spans))}


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
    repo grows; its counts describe the checkout and are not pinned.
    """
    from ..lint.engine import find_repo_root, lint_tree

    result = lint_tree(find_repo_root())
    return {"files": float(result.files_checked),
            "findings": float(len(result.findings)),
            "suppressed": float(result.suppressed)}


def profiler_overhead(ctx: ScenarioContext) -> Dict[str, float]:
    """Self-check: wall cost of the same job with profiling off vs on.

    Times :data:`_OVERHEAD_PAIRS` off/on pairs, alternating which side
    runs first so drift lands on both, and reports the median of the
    pairs' on/off ratios: a noise burst moves a pair or two, not the
    median.  Each timed run starts from a fresh ``gc.collect()`` so that
    a collection cannot land in one side at random, which on this ~8 ms
    job was the largest source of noise.  A tier-1 test asserts the
    overhead stays under 10%; the profiler's whole design (coarse
    phases, batched engine timing) exists to keep it there.
    """
    def once(profiled: bool) -> float:
        gc.collect()
        t0 = time.perf_counter()
        if profiled:
            with prof.profiled():
                simulate_job("atom", "wordcount",
                             data_per_node_gb=_OVERHEAD_GB)
        else:
            simulate_job("atom", "wordcount", data_per_node_gb=_OVERHEAD_GB)
        return time.perf_counter() - t0

    once(False), once(True)   # untimed warmup pair: absorb cold-start cost
    offs, ons = [], []
    for i in range(_OVERHEAD_PAIRS):
        if i % 2:
            ons.append(once(True))
            offs.append(once(False))
        else:
            offs.append(once(False))
            ons.append(once(True))
    ratio = statistics.median(on / off for off, on in zip(offs, ons))
    return {"baseline_s": statistics.median(offs),
            "profiled_s": statistics.median(ons),
            "overhead_pct": (ratio - 1.0) * 100.0}


#: The pinned suite, in execution order.
SCENARIOS: List[Scenario] = [
    Scenario("engine.throughput", "micro",
             "dispatch ~30k timeout events through a bare Simulator",
             engine_throughput),
    Scenario("job.wordcount", "macro",
             f"single wordcount job, atom, {_JOB_GB['wordcount']:g} GB/node",
             _job_scenario("wordcount")),
    Scenario("job.terasort", "macro",
             f"single terasort job, atom, {_JOB_GB['terasort']:g} GB/node",
             _job_scenario("terasort")),
    Scenario("job.kmeans", "macro",
             f"single k-means job, atom, {_JOB_GB['kmeans']:g} GB/node",
             _job_scenario("kmeans")),
    Scenario("datacenter.small", "macro",
             f"{_DC_NODES}-node mixed cluster, {_DC_ARRIVALS.n_jobs}-job "
             f"stream under {' + '.join(_DC_POLICIES)} (warm inner cells)",
             datacenter_small, setup=ScenarioContext.datacenter_model),
    Scenario("trace.export", "macro",
             "Perfetto JSON + timeline CSV + text summary of a traced run",
             trace_export, setup=ScenarioContext.traced_run),
    Scenario("lint.tree", "macro",
             "full-tree determinism/architecture lint (dataflow + ARCH001)",
             lint_tree_scenario, counted=False),
    Scenario("prof.overhead", "self",
             "profiler-overhead self-check (same job, profiling off vs on)",
             profiler_overhead, counted=False),
]


def scenario_names() -> List[str]:
    return [s.name for s in SCENARIOS]


def make_context() -> ScenarioContext:
    """A context with no fixture built yet."""
    return ScenarioContext()


def cleanup_context(ctx: ScenarioContext) -> None:
    """Drop the context's fixtures (a traced run, pre-simulated cells)."""
    ctx._tracer = ctx._dc_model = None
