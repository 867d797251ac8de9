"""Benchmark harness fixtures.

Each ``benchmarks/test_*.py`` regenerates one figure/table of the paper:
it times the experiment driver (one round — the drivers are deterministic
simulations, not microbenchmarks), asserts the paper's qualitative
shapes, prints the regenerated rows/series, and compares them byte for
byte with the committed table under ``benchmarks/results/``.  The
tables are regenerated only by ``python tests/test_paper_tables.py``,
so a changed number is a review diff, never a silent overwrite.
"""

from __future__ import annotations

import os
import pathlib

import pytest

from repro.core.characterization import Characterizer

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def characterizer() -> Characterizer:
    """Shared measurement cache across all benchmark files.

    Opt into the persistent result cache and/or parallel cell execution
    with ``REPRO_BENCH_CACHE=1`` and ``REPRO_JOBS=N`` — a warm second
    benchmark run then deserializes grid cells instead of re-simulating
    them (the drivers stay timed; only cell simulation is cached).
    """
    from repro.analysis.executor import ResultCache, resolve_jobs
    cache = ResultCache() if os.environ.get("REPRO_BENCH_CACHE") else None
    return Characterizer(cache=cache, jobs=resolve_jobs(None))


@pytest.fixture()
def run_experiment(benchmark, characterizer):
    """Run a driver once under the benchmark timer; check its output
    against the committed table."""

    def _run(driver, *args, **kwargs):
        exp = benchmark.pedantic(driver, args=(characterizer, *args),
                                 kwargs=kwargs, rounds=1, iterations=1)
        text = exp.render()
        print()
        print(text)
        committed = (RESULTS_DIR / f"{exp.exp_id}.txt").read_text(
            encoding="utf-8")
        assert text + "\n" == committed, (
            f"{exp.exp_id} differs from benchmarks/results/{exp.exp_id}.txt")
        return exp

    return _run
