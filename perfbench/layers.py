"""Outside-in per-layer tracing: wrap public functions of each layer.

A :class:`LayerTrace` patches functions and methods of the program's
layers for the length of one traced pass and restores them afterwards.
Nothing under ``src/`` changes: the wrappers live here and see only
what a caller of the layer sees.

Three kinds of wrapper:

* ``timed`` — synchronous calls, counted and timed.  A stack of child
  times gives each timed name both its inclusive time and its *self*
  time (inclusive minus the time of timed calls made beneath it).
  Synchronous calls cannot interleave, so the stack stays balanced
  even when they run inside coroutines.
* ``counted`` — calls counted, not timed.  Used for generator factories
  (``BandwidthDevice.transfer`` returns a generator, so timing the call
  would time nothing) and for very hot pass-through methods.
* ``timed_async`` — coroutines, counted with inclusive wall time only
  (concurrent requests overlap, so self time is not defined).

:data:`PER_LAYER` is the one catalogue of per-layer metrics the
benchmark reports; ``BENCHMARK.json`` and the self-tests check against it.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Tuple

#: (name, unit) of every per-layer metric, in report order.  Times are
#: host seconds per pass (one pass = the workload's fixed unit of work);
#: counts are per pass; ``*_frac`` are ratios of two medians, minus 1.
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("core.cells", "count"),
    ("core.simulate_cell_s", "s"),
    ("mapreduce.simulate_job_s", "s"),
    ("mapreduce.tasks", "count"),
    ("hdfs.load_input.calls", "count"),
    ("hdfs.load_input_s", "s"),
    ("hdfs.place_block.calls", "count"),
    ("arch.core_evaluate.calls", "count"),
    ("arch.core_evaluate_s", "s"),
    ("arch.stall.calls", "count"),
    ("arch.stall_s", "s"),
    ("arch.integrate_energy_s", "s"),
    ("cluster.core_perf.calls", "count"),
    ("sim.events", "count"),
    ("sim.run_s", "s"),
    ("sim.host_us_per_event", "us"),
    ("sim.transfers", "count"),
    ("analysis.cache_put.calls", "count"),
    ("analysis.cache_put_s", "s"),
    ("analysis.drivers_s", "s"),
    ("analysis.cache_get.calls", "count"),
    ("analysis.cache_get_s", "s"),
    ("analysis.cache_hit_ratio", "ratio"),
    ("serve.read_request_s", "s"),
    ("serve.handle_s", "s"),
    ("serve.submit_s", "s"),
    ("serve.sharded_get_s", "s"),
    ("serve.sharded_put_s", "s"),
    ("obs.telemetry_cost_frac", "ratio"),
    ("serve.coalesced", "count"),
    ("serve.executor_submissions", "count"),
    ("serve.executor_cells", "count"),
    ("serve.batch_cells_mean", "count"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.pool_execute_ms", "ms"),
    ("serve.shed", "count"),
    ("serve.timeouts", "count"),
    ("client.sent", "count"),
    ("client.ok", "count"),
    ("client.failed", "count"),
    ("trace.overhead_frac", "ratio"),
)

#: Counts that are a pure function of the seed: two traced runs with the
#: same seed must report them exactly equal, and every traced pass of
#: one run must agree on them.
DETERMINISTIC = ("core.cells", "sim.events", "arch.core_evaluate.calls",
                 "sim.transfers", "hdfs.place_block.calls",
                 "mapreduce.tasks")


class LayerTrace:
    """Call counts and wall times of wrapped layer functions."""

    def __init__(self):
        self.calls: Dict[str, int] = defaultdict(int)
        self.inclusive: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.extra: Dict[str, float] = defaultdict(float)
        self._stack: List[float] = []
        self._patches: List[Tuple[object, str, object, bool]] = []

    # -- recording ---------------------------------------------------------

    def _close(self, name: str, started: float) -> None:
        elapsed = time.perf_counter() - started
        child = self._stack.pop()
        if self._stack:
            self._stack[-1] += elapsed
        self.calls[name] += 1
        self.inclusive[name] += elapsed
        self.self_s[name] += elapsed - child

    @contextmanager
    def span(self, name: str):
        """Time a block of the benchmark's own code as a timed call."""
        self._stack.append(0.0)
        started = time.perf_counter()
        try:
            yield
        finally:
            self._close(name, started)

    # -- patching ----------------------------------------------------------

    def _patch(self, owner: object, attr: str, wrapper: Callable) -> None:
        own = attr in vars(owner)
        self._patches.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, wrapper)

    def timed(self, owner: object, attr: str, name: str,
              after: Optional[Callable] = None) -> None:
        """Wrap ``owner.attr``; ``after(args, result, trace)`` may record
        more from the call's arguments and result."""
        original = getattr(owner, attr)
        trace = self

        def wrapper(*args, **kwargs):
            trace._stack.append(0.0)
            started = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                trace._close(name, started)
            if after is not None:
                after(args, result, trace)
            return result

        self._patch(owner, attr, wrapper)

    def counted(self, owner: object, attr: str, name: str) -> None:
        original = getattr(owner, attr)
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        self._patch(owner, attr, wrapper)

    def timed_async(self, owner: object, attr: str, name: str,
                    measure: Optional[Callable] = None) -> None:
        """Wrap a coroutine function.  ``measure(result)`` may replace the
        call's wall time with a duration taken from its result."""
        original = getattr(owner, attr)
        trace = self

        async def wrapper(*args, **kwargs):
            started = time.perf_counter()
            result = await original(*args, **kwargs)
            elapsed = (time.perf_counter() - started if measure is None
                       else measure(result))
            if elapsed is not None:
                trace.calls[name] += 1
                trace.inclusive[name] += elapsed
            return result

        self._patch(owner, attr, wrapper)

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attr, previous, own = self._patches.pop()
            if own:
                setattr(owner, attr, previous)
            else:
                delattr(owner, attr)


def _count_tasks(args, result, trace: LayerTrace) -> None:
    counters = result.counters
    trace.extra["mapreduce.tasks"] += (counters.map_attempts
                                       + counters.reduce_attempts)


def _count_hit(args, result, trace: LayerTrace) -> None:
    if result is not None:
        trace.extra["analysis.cache_hits"] += 1


def install_model(trace: LayerTrace) -> None:
    """Wrap the model stack: core → mapreduce → hdfs → arch/cluster → sim."""
    from repro.arch.caches import CacheHierarchy
    from repro.arch.cores import CoreSpec
    from repro.cluster.server import ServerNode
    from repro.core import characterization
    from repro.hdfs.filesystem import HDFS
    from repro.hdfs.namenode import NameNode
    from repro.mapreduce import driver
    from repro.sim.engine import Simulator
    from repro.sim.resources import BandwidthDevice

    trace.timed(characterization, "simulate_cell", "core.simulate_cell")
    trace.timed(characterization, "simulate_job", "mapreduce.simulate_job",
                after=_count_tasks)
    trace.timed(HDFS, "load_input", "hdfs.load_input")
    trace.counted(NameNode, "place_block", "hdfs.place_block")
    trace.timed(CoreSpec, "evaluate", "arch.core_evaluate")
    trace.timed(CacheHierarchy, "stall_seconds_per_access", "arch.stall")
    trace.timed(driver, "integrate_energy", "arch.integrate_energy")
    trace.counted(ServerNode, "core_perf", "cluster.core_perf")
    trace.counted(BandwidthDevice, "transfer", "sim.transfers")

    run = Simulator.run

    def run_counting_events(sim, *args, **kwargs):
        before = sim.event_count
        try:
            return run(sim, *args, **kwargs)
        finally:
            trace.extra["sim.events"] += sim.event_count - before

    trace._patch(Simulator, "run", run_counting_events)
    trace.timed(Simulator, "run", "sim.run")


def install_cache(trace: LayerTrace) -> None:
    """Wrap the persistent result cache (``analysis.executor``)."""
    from repro.analysis.executor import ResultCache
    trace.timed(ResultCache, "get", "analysis.cache_get", after=_count_hit)
    trace.timed(ResultCache, "put", "analysis.cache_put")


def install_serve(trace: LayerTrace, server) -> None:
    """Wrap the service tier of one running stack (``server`` is its
    :class:`~repro.serve.http.HTTPServer`, whose handler was bound at
    boot and so is wrapped on the instance)."""
    from repro.serve import http
    from repro.serve.service import ShardedResultCache, SimulationService

    trace.timed_async(
        http, "read_request", "serve.read_request",
        measure=lambda req: (None if req is None
                             else req.recv_end - req.recv_start))
    trace.timed_async(server, "handler", "serve.handle")
    trace.timed_async(SimulationService, "submit", "serve.submit")
    trace.timed(ShardedResultCache, "get", "serve.sharded_get")
    trace.timed(ShardedResultCache, "put", "serve.sharded_put")


def layer_values(trace: LayerTrace) -> Dict[str, float]:
    """The per-pass numbers one traced pass yields (wrapper-derived only)."""
    c, inc, own, extra = (trace.calls, trace.inclusive, trace.self_s,
                          trace.extra)
    events = extra["sim.events"]
    gets = c["analysis.cache_get"]
    return {
        "core.cells": c["core.simulate_cell"],
        "core.simulate_cell_s": inc["core.simulate_cell"],
        "mapreduce.simulate_job_s": own["mapreduce.simulate_job"],
        "mapreduce.tasks": extra["mapreduce.tasks"],
        "hdfs.load_input.calls": c["hdfs.load_input"],
        "hdfs.load_input_s": inc["hdfs.load_input"],
        "hdfs.place_block.calls": c["hdfs.place_block"],
        "arch.core_evaluate.calls": c["arch.core_evaluate"],
        "arch.core_evaluate_s": own["arch.core_evaluate"],
        "arch.stall.calls": c["arch.stall"],
        "arch.stall_s": inc["arch.stall"],
        "arch.integrate_energy_s": inc["arch.integrate_energy"],
        "cluster.core_perf.calls": c["cluster.core_perf"],
        "sim.events": events,
        "sim.run_s": own["sim.run"],
        "sim.host_us_per_event": (own["sim.run"] / events * 1e6
                                  if events else 0.0),
        "sim.transfers": c["sim.transfers"],
        "analysis.cache_put.calls": c["analysis.cache_put"],
        "analysis.cache_put_s": inc["analysis.cache_put"],
        "analysis.drivers_s": own["analysis.drivers"],
        "analysis.cache_get.calls": gets,
        "analysis.cache_get_s": inc["analysis.cache_get"],
        "analysis.cache_hit_ratio": (extra["analysis.cache_hits"] / gets
                                     if gets else 0.0),
        "serve.read_request_s": inc["serve.read_request"],
        "serve.handle_s": inc["serve.handle"],
        "serve.submit_s": inc["serve.submit"],
        "serve.sharded_get_s": inc["serve.sharded_get"],
        "serve.sharded_put_s": inc["serve.sharded_put"],
    }
