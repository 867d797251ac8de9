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
  (``compute_slowdown``) and adds stragglers and failed attempts, and
  the same run with speculative execution on, whose backup attempts and
  speculation polls are the engine's one path that cancels events in
  volume;
* two runs in which a node really crashes while transfers on it are
  still queued or in service (one also with ``disk_slowdown``);
* map-only ``sort``, whose output goes through the driver's replicated
  HDFS write fan-out, and ``grep``.

Every case also runs twice more, once folding energy as rows are
recorded (what an untraced cluster does) and once with each cluster's
trace replaced by a recorder that keeps its rows; both must give the
pinned digest and the same energy breakdowns.  The kept rows are pinned
too (``ROW_DIGESTS``: ``sha256(repr(rows))`` per cluster, in record
order).  Record order is the visible trace of dispatch order: two
same-time events that swap places reorder rows even where the folded
floats happen to agree, so this pin checks "same events, same order".

Traced runs also pin ``events_dispatched`` from the tracer's
``JobTrace.engine`` — a deterministic count of the work the engine did
— and the digest of the Perfetto export.

Print the current digests (and row digests) with ``PYTHONPATH=src python
tests/test_model_digests.py``.  Re-pin only together with a change that
is meant to move the model's outputs.
"""

from __future__ import annotations

import dataclasses
import hashlib
from typing import Callable, Dict

import pytest

from repro.arch.power import integrate_energy
from repro.cluster.server import Cluster
from repro.core.characterization import RunKey, simulate_cell
from repro.core.phase_scheduler import compare_phase_placements
from repro.mapreduce.config import DEFAULT_CONF
from repro.mapreduce.driver import simulate_job
from repro.obs import Tracer, perfetto_json
from repro.sim.faults import FaultPlan, NodeFault
from repro.sim.trace import TraceRecorder

FAULT_PLAN = FaultPlan(
    seed=3,
    node_faults=(NodeFault("atom1", compute_slowdown=2.5),),
    task_fail_prob=0.1,
    straggler_prob=0.2)


def _cell(machine: str, workload: str, freq_ghz: float) -> Callable:
    return lambda: simulate_cell(RunKey(machine, workload, freq_ghz=freq_ghz))


def _crash(machine: str, workload: str, fault: NodeFault) -> Callable:
    conf = dataclasses.replace(
        DEFAULT_CONF, fault_plan=FaultPlan(node_faults=(fault,)))
    return lambda: simulate_cell(RunKey(machine, workload), conf)


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
CASES["speculative/atom/wordcount"] = lambda: simulate_cell(
    RunKey("atom", "wordcount"),
    dataclasses.replace(DEFAULT_CONF, fault_plan=FAULT_PLAN,
                        speculative_execution=True))
# Crash times chosen so that the dying node has transfers in flight.
CRASH_CASES = {
    "crash/xeon/terasort": _crash(
        "xeon", "terasort", NodeFault("xeon1", crash_at_s=70.0)),
    "crash/atom/wordcount": _crash(
        "atom", "wordcount",
        NodeFault("atom2", crash_at_s=100.0, disk_slowdown=2.0)),
}
CASES.update(CRASH_CASES)
CASES["atom/sort@1.2"] = _cell("atom", "sort", 1.2)
CASES["xeon/grep@1.8"] = _cell("xeon", "grep", 1.8)

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
    "speculative/atom/wordcount":
        "6a6a76e36e4d0b63c2ceab60dc30b0a9abf207a546c954acb9ac620851343007",
    "crash/xeon/terasort":
        "d5a3651b70bf2b0c46cbcbc61c95b0884ee12001152937fe5ac9f77d9acbfc56",
    "crash/atom/wordcount":
        "6192cea02a8894fb2bf260835c3d447876005c582e1b20c6959d661d89055582",
    "atom/sort@1.2":
        "3bb736ab85d823c224524f445742bc708526e277916cc31e006062e5bbbc7f72",
    "xeon/grep@1.8":
        "3624261a593a1cb6032532f6563424fd58731257b0d842c7368aa3f7fa3eb6ee",
}

#: label -> ``sha256(repr(rows))`` of each cluster's kept trace rows, in
#: cluster build order (see the module docstring).
ROW_DIGESTS: Dict[str, tuple] = {
    "atom/wordcount@1.2": (
        "b61ddbc65f7bbb1a41fe24a874ec68abb3614a03bace7c5eb288bf26b4299381",
    ),
    "atom/wordcount@1.8": (
        "bb2c77436b45144b78a980dc50fea8bc12a141091a870cac7438e1c3b4540530",
    ),
    "atom/terasort@1.2": (
        "075f512e3e9644cd6a87ce46fcef43ca9b6813657f25426915abc9bc84b9d267",
    ),
    "atom/terasort@1.8": (
        "5c5cfdda36ad263e08cd82b13224256f194500db59f6caac3ffb0fd17c1cb0d3",
    ),
    "xeon/wordcount@1.2": (
        "89307415bd3553ac6313f8dc4120a5506347cedf7930665ab9b8dddaea59e130",
    ),
    "xeon/wordcount@1.8": (
        "5474f272fb92a96d4af51f665e786d49d2da8f3b2340bb2f6222f2c317e4e5f5",
    ),
    "xeon/terasort@1.2": (
        "44129f1b47b5d10fa60a1209f57d66e93ddede6fbc2e356b8402ffb90300678b",
    ),
    "xeon/terasort@1.8": (
        "6e9a9be5c790aa7843cced60ea825ab7b76e9cc60ae6c6167798958a9815996c",
    ),
    "mixed/terasort": (
        "35b2bb8346f4eba5ec5ad691430a3236bb3d9d0927eab1b84416dbf5c028f36e",
        "8c6caeacb351007fed354fe8db362b21e5fd8efa99592ad33874e3e7ccf85209",
        "61a88c13015f90245927c6e37a1530fa08932397b18babaa0a0986ba4bbe0186",
        "1c3b97d420d54494f7ccedaa9b26dfe64844d5bd62da983f9fadab74a9880712",
    ),
    "faulted/atom/wordcount": (
        "f298a7f3a33197727ba93d2210a070e01377a0a286885ec775b1cb652087248b",
    ),
    "speculative/atom/wordcount": (
        "c9e412799c029667a38610872a0cba0a706a65db64985a1ef11f55d521d15235",
    ),
    "crash/xeon/terasort": (
        "e477dc2c60c70abeb54b2cf8fbdc799f947fb79d9fe49542d0f7d12f972dabe2",
    ),
    "crash/atom/wordcount": (
        "38c261be5a6788d1ee596680b1ef625a3c6798eb57c41c361dea1ffe863111e6",
    ),
    "atom/sort@1.2": (
        "a90a79158a6dd206e02a393630a0f951c274e689bbdff4e69304461aa963d6d8",
    ),
    "xeon/grep@1.8": (
        "0be62d3196af71abca2aac7e3dac0737c68bb0288e42136c2ae49d5c19890c11",
    ),
}


def _traced(machine: str, workload: str, *faults: NodeFault) -> Callable:
    def run() -> Tracer:
        tracer = Tracer()
        simulate_job(machine, workload, data_per_node_gb=0.25,
                     block_size_mb=64.0,
                     fault_plan=FaultPlan(node_faults=faults) if faults
                     else None,
                     obs=tracer)
        return tracer
    return run


TRACED: Dict[str, Callable] = {
    "xeon/sort/crash": _traced("xeon", "sort",
                               NodeFault("xeon1", crash_at_s=20.0)),
    "atom/wordcount": _traced("atom", "wordcount"),
    "xeon/terasort": _traced("xeon", "terasort"),
}

#: label -> (events_dispatched, sha256 of the Perfetto export)
TRACED_PINS = {
    "xeon/sort/crash": (
        536,
        "ea03ede9d4ef328cd53cd77ea2897573a8fd3db0d3356ed03c14319509dc43f3"),
    "atom/wordcount": (
        755,
        "c1ec70c3b9dab96878ff262485a61833900c9da4ff9651571c0a7ae89b017397"),
    "xeon/terasort": (
        1292,
        "59b724e32f0ed60c55cfa7b23c3bc8a4d0ddf3726b47eb0736b1b97ba3d283ea"),
}


def digest(result) -> str:
    return hashlib.sha256(repr(result).encode("utf-8")).hexdigest()


def test_cases_are_all_pinned():
    assert sorted(CASES) == sorted(DIGESTS)


@pytest.mark.parametrize("label", sorted(CASES))
def test_output_digest_unchanged(label):
    assert digest(CASES[label]()) == DIGESTS[label]


def test_speculative_case_launches_backups():
    counters = CASES["speculative/atom/wordcount"]().counters
    assert counters.speculative_attempts >= 1


@pytest.mark.parametrize("label", sorted(CRASH_CASES))
def test_crash_cases_lose_a_node(label):
    assert CASES[label]().counters.node_crashes == 1


def _run_recording_clusters(label: str, keep_rows: bool):
    """Run one case; returns the result and its clusters, in build order.

    With *keep_rows*, each cluster's folding trace is replaced by a plain
    recorder before anything records, so the run keeps every row.
    """
    clusters = []
    init = Cluster.__init__

    def spy(self, sim, nodes):
        init(self, sim, nodes)
        if keep_rows:
            self.trace = TraceRecorder()
        clusters.append(self)

    Cluster.__init__ = spy
    try:
        result = CASES[label]()
    finally:
        Cluster.__init__ = init
    return result, clusters


def row_digests(clusters) -> tuple:
    """``sha256(repr(rows))`` of each cluster's kept trace, in build order."""
    return tuple(
        hashlib.sha256(repr(c.trace.rows).encode("utf-8")).hexdigest()
        for c in clusters)


def test_row_digests_are_all_pinned():
    assert sorted(ROW_DIGESTS) == sorted(CASES)


@pytest.mark.parametrize("label", sorted(CASES))
def test_energy_fold_matches_kept_rows(label):
    kept, kept_clusters = _run_recording_clusters(label, True)
    folded, folded_clusters = _run_recording_clusters(label, False)
    assert digest(kept) == digest(folded) == DIGESTS[label]
    assert row_digests(kept_clusters) == ROW_DIGESTS[label]
    if hasattr(kept, "energy"):
        assert repr(kept.energy) == repr(folded.energy)
    assert len(kept_clusters) == len(folded_clusters) > 0
    for k, f in zip(kept_clusters, folded_clusters):
        assert len(k.trace) > 0 and f.trace.folds and len(f.trace) == 0
        from_rows = integrate_energy(k.trace, k.node_power(), k.sim.now)
        from_fold = integrate_energy(f.trace, f.node_power(), f.sim.now)
        assert repr(from_rows) == repr(from_fold)


def test_traced_cases_are_all_pinned():
    assert sorted(TRACED) == sorted(TRACED_PINS)


def _traced_pin(tracer: Tracer):
    return (int(tracer.job.engine["events_dispatched"]),
            hashlib.sha256(perfetto_json(tracer).encode("utf-8")).hexdigest())


@pytest.mark.parametrize("label", sorted(TRACED))
def test_traced_events_and_export_unchanged(label):
    assert _traced_pin(TRACED[label]()) == TRACED_PINS[label]


if __name__ == "__main__":
    for label in CASES:
        print(f'    "{label}":\n        "{digest(CASES[label]())}",')
    for label in CASES:
        rows = row_digests(_run_recording_clusters(label, True)[1])
        print(f'    "{label}": (')
        for row_digest in rows:
            print(f'        "{row_digest}",')
        print("    ),")
    for label in TRACED:
        print(f'    "{label}": {_traced_pin(TRACED[label]())!r},')
