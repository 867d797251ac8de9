"""Repo benchmark: cold paper reproduction and the warm/cold what-if service.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1``
interleaves untraced and traced passes and reports the per-layer table.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; one row per run
is appended to ``.bench_runs/rows.jsonl``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List

import common
from common import (REFERENCE_PROBE_S, SETUP_SAMPLES, Clock, median,
                    peak_rss_mb, percentile, probe, time_imports)

#: (name, unit) of the end-to-end metrics every untraced run reports.
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cells_per_s", "1/s"),
    ("req_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
)

WORKLOADS = ("paper-cold", "whatif-warm", "whatif-cold")


def make_workload(name: str, seed: int):
    if name == "paper-cold":
        from paper import PaperCold
        return PaperCold(seed)
    from whatif import WhatIf
    return WhatIf(seed, warm=name == "whatif-warm")


def measure_setup(workload) -> List[Dict[str, float]]:
    """Set up :data:`SETUP_SAMPLES` times: imports in a fresh interpreter
    plus the workload's own set-up in this one, each between probes.  An
    untimed import first fills the bytecode cache, as any earlier run
    of the program would have."""
    time_imports(workload.imports)
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = probe()
        seconds = time_imports(workload.imports) + workload.setup_once()
        samples.append({"seconds": seconds, "scaled": seconds * 2
                        * REFERENCE_PROBE_S / (before + probe())})
    return samples


def timed_pass(workload, **kwargs) -> Dict[str, object]:
    """One pass, bracketed by host-speed probes, with its timings also
    rescaled (see :func:`common.probe`).

    A pass of serial operations returns the probes it took between them
    (outside the timed operations); each operation is then rescaled by
    the two probes around it.  A pass of overlapping requests is
    rescaled as a whole by the mean of its two brackets."""
    before = probe()
    result = workload.run_pass(**kwargs)
    after = probe()
    latencies = result["latencies"]
    if "probes" in result:
        probes = [before, *result["probes"], after]
        scaled = [x * 2 * REFERENCE_PROBE_S / (a + b)
                  for x, a, b in zip(latencies, probes, probes[1:])]
        result["scaled"] = {"wall_s": sum(scaled), "latencies": scaled}
    else:
        k = 2 * REFERENCE_PROBE_S / (before + after)
        result["scaled"] = {"wall_s": result["wall_s"] * k,
                            "latencies": [x * k for x in latencies]}
    return result


def end_to_end(passes: List[Dict[str, object]],
               setup: List[Dict[str, float]], peak_mb: float,
               rescale: bool = True) -> Dict[str, Dict[str, float]]:
    """Medians over passes; latency percentiles come from each pass's
    raw samples (a pass replays the same inputs, so every pass has the
    same sample count and the percentile ranks never shift).  With
    *rescale* the host-speed-rescaled timings are used."""
    views = [p["scaled"] if rescale else p for p in passes]
    values = {
        "wall_s": median([v["wall_s"] for v in views]),
        "setup_s": median([s["scaled" if rescale else "seconds"]
                           for s in setup]),
        "peak_rss_mb": peak_mb,
        "cells_per_s": median([p["cells"] / v["wall_s"]
                               for p, v in zip(passes, views)]),
        "req_per_s": median([p["ops"] / v["wall_s"]
                             for p, v in zip(passes, views)]),
        "latency_p50_ms": median([percentile(v["latencies"], 50) * 1e3
                                  for v in views]),
        "latency_p90_ms": median([percentile(v["latencies"], 90) * 1e3
                                  for v in views]),
    }
    latency_samples = sum(len(p["latencies"]) for p in passes)
    samples = {"wall_s": len(passes), "setup_s": len(setup),
               "peak_rss_mb": 1, "cells_per_s": len(passes),
               "req_per_s": len(passes),
               "latency_p50_ms": latency_samples,
               "latency_p90_ms": latency_samples}
    return {name: {"value": values[name], "unit": unit,
                   "samples": samples[name]} for name, unit in END_TO_END}


def run_untraced(workload, seconds: float) -> Dict[str, object]:
    setup = measure_setup(workload)
    workload.start()
    passes: List[Dict[str, object]] = []
    try:
        clock = Clock(seconds)
        while not passes or clock.another():
            passes.append(timed_pass(workload))
    finally:
        workload.stop()
    # Before the output checks, which simulate cells in this process.
    peak_mb = peak_rss_mb() + workload.children_peak_mb
    workload.check_outputs()
    return {"passes": len(passes),
            "metrics": end_to_end(passes, setup, peak_mb),
            "unscaled": end_to_end(passes, setup, peak_mb, rescale=False)}


def run_traced(workload, seconds: float) -> Dict[str, object]:
    """Rounds of (untraced, traced[, telemetry off]) passes."""
    from layers import DETERMINISTIC, PER_LAYER, LayerTrace, layer_values
    service = workload.name != "paper-cold"
    untraced: List[Dict[str, object]] = []
    traced: List[Dict[str, float]] = []
    traced_walls: List[float] = []
    off_walls: List[float] = []
    workload.start(telemetry_off=service)
    try:
        clock = Clock(seconds)
        while not traced or clock.another():
            untraced.append(timed_pass(workload))
            trace = LayerTrace()
            traced_walls.append(
                timed_pass(workload, trace=trace)["scaled"]["wall_s"])
            traced.append(layer_values(trace))
            if service:
                off_walls.append(timed_pass(
                    workload, telemetry=False)["scaled"]["wall_s"])
    finally:
        workload.stop()
    workload.check_outputs()

    for name in DETERMINISTIC:
        seen = {round(t[name], 6) for t in traced}
        if len(seen) > 1:
            workload.failed += 1
            workload.mismatches.append(
                f"{name} differs between traced passes: {sorted(seen)}")
    table = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
    table.update({name: median([t[name] for t in traced])
                  for name in traced[0]})
    if service:
        server = [p["server"] for p in untraced]
        table.update({name: median([s[name] for s in server])
                      for name in server[0]})
        subs = table["serve.executor_submissions"]
        table["serve.batch_cells_mean"] = (
            table["serve.executor_cells"] / subs if subs else 0.0)
        table["obs.telemetry_cost_frac"] = (
            median([p["scaled"]["wall_s"] for p in untraced]) / median(off_walls)
            - 1)
    table["client.sent"] = workload.attempted
    table["client.ok"] = workload.attempted - workload.failed
    table["client.failed"] = workload.failed
    table["trace.overhead_frac"] = (
        median(traced_walls) / median([p["scaled"]["wall_s"] for p in untraced])
        - 1)
    return {"passes": len(traced),
            "metrics": {name: {"value": table[name], "unit": unit,
                               "samples": len(traced)}
                        for name, unit in PER_LAYER}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    common.isolate()
    started = time.time()
    workload = make_workload(args.workload, args.seed)
    run = run_traced if args.trace else run_untraced
    outcome = run(workload, args.seconds)
    metrics = outcome["metrics"]
    correct = workload.failed == 0

    print(f"{args.workload} seed={args.seed} trace={args.trace} "
          f"passes={outcome['passes']}")
    for name, m in metrics.items():
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']:6s} "
              f"(n={m['samples']})")
    print(f"  failed_frac {workload.failed / max(workload.attempted, 1):g} "
          f"({workload.failed} of {workload.attempted} operations)")
    for problem in workload.mismatches:
        print(f"  FAILED: {problem}")

    common.append_row({
        "schema": 1, "started_unix": round(started, 3),
        "rev": common.source_rev(), "host": common.host_info(),
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "config": workload.config(), "passes": outcome["passes"],
        "attempted": workload.attempted, "failed": workload.failed,
        "failed_frac": workload.failed / max(workload.attempted, 1),
        "failures": workload.mismatches, "metrics": metrics,
        "unscaled_metrics": outcome.get("unscaled")})
    print(json.dumps({
        "correct": correct, "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
