"""``paper-cold``: render a seed-drawn set of the paper's figures, cold.

Each pass renders the drawn figure drivers serially, in one process,
into a :class:`~repro.core.characterization.Characterizer` backed by a
fresh, empty on-disk :class:`~repro.analysis.executor.ResultCache`, and
compares every table with the committed ``benchmarks/results/<ID>.txt``.

Draw rule.  Several paper figures are drawn from *the same grid cells*:
F1/F2, F6/F7, F5/F8, F9/F16 and F17/T3 each read one identical cell set
and only derive different numbers from it.  The seed picks one figure
of each pair; the pairs render in a fixed order.  Every seed therefore
simulates the same 140 cells — micro-benchmarks at 1 GB/node and
real-world applications at 10 GB/node — and renders a different set of
tables, so seeds vary the inputs and the output checks while the
simulated work, and with it the run-to-run spread, stays that of the
host alone.
"""

from __future__ import annotations

import random
import time
from contextlib import nullcontext
from typing import Dict, List, Optional, Sequence, Tuple

from common import ROOT, probe, remove, scratch_dir

#: Figure pairs with identical cell sets, in render order.  The first
#: pair's cells are a subset of the fourth's, so the order is fixed to
#: keep each figure's share of the work — and the latency
#: percentiles — the same for every seed.
PAIRS: Tuple[Tuple[str, str], ...] = (
    ("F1", "F2"), ("F6", "F7"), ("F5", "F8"), ("F9", "F16"), ("T3", "F17"))

RESULTS = ROOT / "benchmarks" / "results"


def draw(seed: int) -> List[str]:
    """The figure ids one seed renders, in render order."""
    rng = random.Random(f"paper-cold:{seed}")
    return [pair[rng.randrange(2)] for pair in PAIRS]


def expected_tables(ids: Sequence[str]) -> Dict[str, str]:
    """The committed tables (read only, never rewritten)."""
    return {eid: (RESULTS / f"{eid}.txt").read_text(encoding="utf-8")
            for eid in ids}


class PaperCold:
    """One ``paper-cold`` run: set-up, then passes, each a cold render."""

    name = "paper-cold"
    imports = ("repro.analysis.experiments", "repro.analysis.executor")
    #: Every cell is simulated in this process; no children to add.
    children_peak_mb = 0.0

    def __init__(self, seed: int):
        self.seed = seed
        self.ids = draw(seed)
        self.expected = expected_tables(self.ids)
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []

    def config(self) -> Dict[str, object]:
        return {"figures": self.ids, "cache": "fresh ResultCache per pass",
                "jobs": 1}

    def setup_once(self) -> float:
        """In-process share of one set-up: an empty cache + characterizer."""
        from repro.analysis.executor import ResultCache
        from repro.core.characterization import Characterizer
        t0 = time.perf_counter()
        path = scratch_dir("setup-")
        Characterizer(cache=ResultCache(path), jobs=1)
        elapsed = time.perf_counter() - t0
        remove(path)
        return elapsed

    def start(self, telemetry_off: bool = False) -> None:
        """Nothing outlives a pass: each builds its own cache."""

    def stop(self) -> None:
        pass

    def check_outputs(self) -> None:
        """Tables are checked as each pass renders them."""

    def run_pass(self, trace=None) -> Dict[str, object]:
        """Render every drawn figure cold; returns the pass's numbers.

        *trace* (a :class:`layers.LayerTrace`) wraps the model stack and
        the result cache for the length of the pass.  A host-speed probe
        runs between figures; the pass's wall time is the sum of the
        figures' times, so it excludes the probes."""
        from repro.analysis.executor import ResultCache
        from repro.analysis.experiments import ALL_EXPERIMENTS
        from repro.core.characterization import Characterizer
        from layers import install_cache, install_model

        path = scratch_dir("paper-")
        if trace is not None:
            install_model(trace)
            install_cache(trace)
        try:
            ch = Characterizer(cache=ResultCache(path), jobs=1)
            latencies: List[float] = []
            texts: Dict[str, Optional[str]] = {}
            probes: List[float] = []
            for eid in self.ids:
                if latencies:
                    probes.append(probe())
                span = (nullcontext() if trace is None
                        else trace.span("analysis.drivers"))
                t0 = time.perf_counter()
                try:
                    with span:
                        texts[eid] = ALL_EXPERIMENTS[eid](ch).render()
                except Exception as exc:       # a failed cell fails its figure
                    texts[eid] = None
                    self.mismatches.append(f"{eid}: {exc!r}")
                latencies.append(time.perf_counter() - t0)
            cells = len(ch)
        finally:
            if trace is not None:
                trace.restore()
            remove(path)
        for eid in self.ids:
            self.attempted += 1
            text = texts[eid]
            if text is None or text + "\n" != self.expected[eid]:
                self.failed += 1
                if text is not None:
                    self.mismatches.append(f"{eid}: table differs from "
                                           f"benchmarks/results/{eid}.txt")
        return {"wall_s": sum(latencies), "latencies": latencies,
                "cells": cells, "ops": len(self.ids), "probes": probes}
