"""Byte-pinned simulation outputs for a small fixed cell set.

Each case runs one simulation and pins ``sha256(repr(result))``: every
field of the :class:`~repro.mapreduce.driver.JobResult` (timings,
energy breakdowns, counters, stage timings) to the last bit.  A change
that is meant to leave the model's outputs alone — a cache, a faster
event path — must leave every digest here unchanged.

The cases cover the three ways a node's cores are driven:

* both machines x {wordcount, terasort} x {1.2, 1.8} GHz through
  :func:`~repro.core.characterization.simulate_cell`;
* one mixed big+little cluster (``Cluster.heterogeneous``) through
  :func:`~repro.core.phase_scheduler.compare_phase_placements`;
* one faulted run whose plan degrades a node's compute
  (``compute_slowdown``) and adds stragglers and failed attempts.

Print the current digests with ``PYTHONPATH=src python
tests/test_model_digests.py``.  Re-pin only together with a change that
is meant to move the model's outputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Callable, Dict

import pytest

from repro.core.characterization import RunKey, simulate_cell
from repro.core.phase_scheduler import compare_phase_placements
from repro.mapreduce.config import DEFAULT_CONF
from repro.sim.faults import FaultPlan, NodeFault

FAULT_PLAN = FaultPlan(
    seed=3,
    node_faults=(NodeFault("atom1", compute_slowdown=2.5),),
    task_fail_prob=0.1,
    straggler_prob=0.2)


def _cell(machine: str, workload: str, freq_ghz: float) -> Callable:
    return lambda: simulate_cell(RunKey(machine, workload, freq_ghz=freq_ghz))


CASES: Dict[str, Callable] = {
    f"{m}/{w}@{f}": _cell(m, w, f)
    for m in ("atom", "xeon")
    for w in ("wordcount", "terasort")
    for f in (1.2, 1.8)
}
CASES["mixed/terasort"] = lambda: compare_phase_placements("terasort")
CASES["faulted/atom/wordcount"] = lambda: simulate_cell(
    RunKey("atom", "wordcount"),
    dataclasses.replace(DEFAULT_CONF, fault_plan=FAULT_PLAN))

DIGESTS = {
    "atom/wordcount@1.2":
        "dc9dfce0bb03a0c8b56561b39859692902d1ef38c32a2572ca9ab061af02f88d",
    "atom/wordcount@1.8":
        "01646418397100ce689d77a209104e89f9e76584c043c6b5598fcbf4ee582ca3",
    "atom/terasort@1.2":
        "1bb31997c4d3261712d657a0801ae198f2727999498b368f75393c3a180ff2d3",
    "atom/terasort@1.8":
        "94a0866cec5971266e4af6a9d66fe1a398c1d2576866557517673734599a8b04",
    "xeon/wordcount@1.2":
        "63b63eea256a05ecee84583ee295ddcf33194d20dba5d6537e9154bfc6401636",
    "xeon/wordcount@1.8":
        "0fddd0062cd8f05533914ae3efa2beb710c22e53c48727bf995034de8929550b",
    "xeon/terasort@1.2":
        "66813e210f173a4dd068aa81c671305ccbdd13c3e401bff1341231a67511da39",
    "xeon/terasort@1.8":
        "e89f4ffe5577424288812977e7e92ff73f541e4712289b708dd12b7748446f0f",
    "mixed/terasort":
        "da81a2163ebef102ffc8edd95e872310bd03057d778cb1ba14ffda72c5fe4dbb",
    "faulted/atom/wordcount":
        "4f12bd356a39548d0cb2531a2dbac81dde2af7b7a9ba03c24d9e8498a466356d",
}


def digest(result) -> str:
    return hashlib.sha256(repr(result).encode("utf-8")).hexdigest()


def test_cases_are_all_pinned():
    assert sorted(CASES) == sorted(DIGESTS)


@pytest.mark.parametrize("label", sorted(CASES))
def test_output_digest_unchanged(label):
    assert digest(CASES[label]()) == DIGESTS[label]


if __name__ == "__main__":
    for label in CASES:
        print(f'    "{label}":\n        "{digest(CASES[label]())}",')
