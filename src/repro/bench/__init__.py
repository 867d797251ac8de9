"""Benchmark harness: what running the reproduction costs the host.

``repro.bench`` times the *reproduction itself* — engine event
dispatch, single-job simulation, the datacenter scheduling loop,
trace export, whole-tree lint — as a pinned
scenario suite executed median-of-k with warmup, and writes a
schema-versioned ``BENCH_<timestamp>.json`` (git rev, host info,
per-scenario wall times and exact work counts).  Wall times are for
reading; the gate is ``tests/test_bench.py``, which pins each
scenario's work counts exactly.  See ``docs/OBSERVABILITY.md``
§Profiling & benchmarking.

The simulated results are never touched: benchmarking only *times*
existing entry points, so a bench run can never change a figure.
"""

from .runner import (BENCH_SCHEMA, BENCH_SCHEMA_VERSION, default_output_path,
                     run_suite, scenario_counts, write_report)
from .scenarios import SCENARIOS, Scenario, ScenarioContext

__all__ = [
    "Scenario", "ScenarioContext", "SCENARIOS",
    "BENCH_SCHEMA", "BENCH_SCHEMA_VERSION",
    "run_suite", "scenario_counts", "write_report", "default_output_path",
]
