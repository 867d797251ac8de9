"""Suite runner: median-of-k timing, exact work counts, the report.

Each scenario's ``setup`` builds its fixtures first; then *warmup*
throwaway repetitions run, followed by *repeat* timed ones.  The report
records every rep plus median/min/max/mean, so a reader can judge the
noise; wall times are host-specific and nothing gates on them.

What is gated is each row's ``counts``: one untimed call of the
scenario with a work counter installed (:mod:`repro.obs.prof`), giving
the scenario's metrics plus the counter's tallies (engine events,
driver stages, HDFS placements).  These are exact and the same on any
host; ``tests/test_bench.py`` pins them through :func:`scenario_counts`,
the function the runner calls, so a change in the work a scenario does
is a review diff that names the scenario and the count.

The report is schema-versioned (:data:`BENCH_SCHEMA`,
:data:`BENCH_SCHEMA_VERSION`), and the version bumps on any breaking
layout change.  Alongside the numbers it embeds the git revision and
host facts, so a report says where it was measured.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

from ..obs import prof
from .scenarios import (SCENARIOS, Scenario, cleanup_context, make_context,
                        scenario_names)

__all__ = ["BENCH_SCHEMA", "BENCH_SCHEMA_VERSION", "run_suite",
           "scenario_counts", "write_report", "default_output_path"]

BENCH_SCHEMA = "repro-hadoop-bench"
#: Bump on any breaking change to the report layout.
BENCH_SCHEMA_VERSION = 2

#: Default repetition counts.
DEFAULT_REPEAT, DEFAULT_WARMUP = 7, 2


def git_info() -> Dict[str, object]:
    """Current revision and dirtiness, or ``unknown`` outside a checkout."""
    def _git(*args: str) -> Optional[str]:
        try:
            out = subprocess.run(
                ("git",) + args, capture_output=True, text=True, timeout=10)
        except (OSError, subprocess.TimeoutExpired):
            return None
        return out.stdout.strip() if out.returncode == 0 else None

    rev = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if rev else None
    return {"rev": rev or "unknown",
            "dirty": bool(status) if status is not None else None}


def host_info() -> Dict[str, object]:
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
    }


def scenario_counts(scenario: Scenario, ctx) -> Dict[str, float]:
    """The scenario's exact work counts, from one counted call.

    The scenario's metrics plus the work counter's tallies.  The setup
    runs first, so a count never depends on which call built a fixture.
    """
    if scenario.setup is not None:
        scenario.setup(ctx)
    with prof.profiled() as profiler:
        counts = dict(scenario.fn(ctx))
    counts.update(profiler.counts)
    return dict(sorted(counts.items()))


def _time_scenario(scenario: Scenario, ctx, repeat: int, warmup: int
                   ) -> Dict[str, object]:
    if scenario.setup is not None:
        scenario.setup(ctx)
    for _ in range(warmup):
        scenario.fn(ctx)
    reps: List[float] = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        metrics = scenario.fn(ctx)
        reps.append(time.perf_counter() - t0)
    return {
        "kind": scenario.kind,
        "description": scenario.description,
        "unit": "s",
        "repeat": repeat,
        "warmup": warmup,
        "reps_s": reps,
        "median_s": statistics.median(reps),
        "min_s": min(reps),
        "max_s": max(reps),
        "mean_s": statistics.fmean(reps),
        "metrics": metrics,             # of the last timed rep
    }


def run_suite(names: Optional[Sequence[str]] = None,
              repeat: Optional[int] = None,
              warmup: Optional[int] = None,
              progress: Optional[Callable[[str], None]] = None
              ) -> Dict[str, object]:
    """Run the (selected) scenario suite and return the report dict.

    *repeat* and *warmup* default to :data:`DEFAULT_REPEAT` and
    :data:`DEFAULT_WARMUP`.  Each counted scenario's row carries its
    :func:`scenario_counts`; an uncounted one's ``counts`` is ``None``.
    Unknown *names* raise ``ValueError`` before anything runs.
    """
    if names:
        known = set(scenario_names())
        unknown = [n for n in names if n not in known]
        if unknown:
            raise ValueError(f"unknown scenario(s) {unknown}; "
                             f"valid: {sorted(known)}")
        chosen = [s for s in SCENARIOS if s.name in set(names)]
    else:
        chosen = list(SCENARIOS)
    repeat = DEFAULT_REPEAT if repeat is None else repeat
    warmup = DEFAULT_WARMUP if warmup is None else warmup
    if repeat < 1:
        raise ValueError(f"repeat must be >= 1, got {repeat}")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup}")

    say = progress or (lambda _msg: None)
    ctx = make_context()
    scenarios: Dict[str, object] = {}
    try:
        for scenario in chosen:
            say(f"bench: {scenario.name} ({repeat} reps, "
                f"{warmup} warmup) ...")
            row = _time_scenario(scenario, ctx, repeat, warmup)
            row["counts"] = (scenario_counts(scenario, ctx)
                             if scenario.counted else None)
            scenarios[scenario.name] = row
    finally:
        cleanup_context(ctx)

    return {
        "schema": BENCH_SCHEMA,
        "schema_version": BENCH_SCHEMA_VERSION,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "git": git_info(),
        "host": host_info(),
        "config": {"repeat": repeat, "warmup": warmup,
                   "argv": list(sys.argv)},
        "scenarios": scenarios,
    }


def default_output_path(directory: Optional[Path] = None) -> Path:
    """``BENCH_<UTC timestamp>.json`` in *directory* (default: cwd)."""
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    return (directory or Path.cwd()) / f"BENCH_{stamp}.json"


def write_report(report: Dict[str, object], path: Path) -> Path:
    """Serialize *report* deterministically (sorted keys, LF newlines)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    path.write_text(text, encoding="utf-8", newline="\n")
    return path


def render_report(report: Dict[str, object]) -> str:
    """Terminal table of one report's scenario medians."""
    lines = [f"{'scenario':<20s} {'kind':<6s} {'median':>10s} {'min':>10s} "
             f"{'max':>10s}  notes"]
    for name, row in report["scenarios"].items():
        metrics = row.get("metrics") or {}
        notes = ", ".join(f"{k}={_fmt(v)}" for k, v in sorted(metrics.items()))
        lines.append(f"{name:<20s} {row['kind']:<6s} "
                     f"{row['median_s'] * 1e3:>8.1f}ms "
                     f"{row['min_s'] * 1e3:>8.1f}ms "
                     f"{row['max_s'] * 1e3:>8.1f}ms  {notes}")
    return "\n".join(lines)


def _fmt(value: float) -> str:
    if value != value or value in (float("inf"), float("-inf")):
        return str(value)
    if abs(value) >= 1000 or (0 < abs(value) < 0.01):
        return f"{value:.3g}"
    return f"{value:g}" if value == int(value) else f"{value:.3f}"
