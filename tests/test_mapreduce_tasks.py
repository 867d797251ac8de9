"""Unit tests for the map/reduce task models (driven standalone)."""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import math
from types import SimpleNamespace

import pytest

from repro.arch.presets import ATOM_C2758, XEON_E5_2420
from repro.cluster.server import Cluster
from repro.hdfs.blocks import Block
from repro.hdfs.filesystem import HDFS
from repro.mapreduce import tasks
from repro.mapreduce.config import DEFAULT_CONF
from repro.mapreduce.driver import simulate_job
from repro.mapreduce.tasks import (MapTask, ReduceTask, RunCounters,
                                   TaskAttemptError)
from repro.sim.faults import FaultPlan, NodeFault
from repro.sim.engine import Interrupt, SimulationError, Simulator
from repro.sim.trace import TraceRecorder
from repro.workloads.base import workload

MB = 1024 * 1024


def _setup(spec=XEON_E5_2420, freq=1.8, block_mb=64):
    sim = Simulator()
    cluster = Cluster.homogeneous(sim, spec, 3, freq)
    cluster.trace = TraceRecorder()   # the tests read its rows
    hdfs = HDFS(cluster, block_mb * MB)
    return sim, cluster, hdfs


def _run_map(spec=XEON_E5_2420, wl="wordcount", block_mb=64, freq=1.8):
    sim, cluster, hdfs = _setup(spec, freq, block_mb)
    blocks = hdfs.load_input("in", block_mb * MB)
    counters = RunCounters()
    task = MapTask("m0", cluster.nodes[0], hdfs,
                   workload(wl).stages[0], DEFAULT_CONF, counters,
                   blocks[0])
    proc = sim.process(task.run())
    sim.run()
    assert proc.ok
    return sim, task, counters


class TestRunCounters:
    def test_ipc(self):
        c = RunCounters()
        c.charge(2e9, 4e9)
        assert c.ipc == pytest.approx(0.5)

    def test_empty_ipc(self):
        assert RunCounters().ipc == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            RunCounters().charge(-1, 0)

    @pytest.mark.parametrize("instructions, cycles", [
        (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, math.inf)])
    def test_non_finite_rejected(self, instructions, cycles):
        """A NaN charge used to make ``ipc`` NaN for the rest of the run."""
        counters = RunCounters()
        counters.charge(2.0, 4.0)
        with pytest.raises(ValueError, match="finite"):
            counters.charge(instructions, cycles)
        assert counters.ipc == 0.5


class TestMapTask:
    def test_produces_output(self):
        _sim, task, counters = _run_map()
        stage = workload("wordcount").stages[0]
        assert task.output_bytes == pytest.approx(
            64 * MB * stage.map_output_ratio)
        assert counters.map_tasks == 1
        assert counters.input_bytes == pytest.approx(64 * MB)

    def test_duration_scales_with_block(self):
        sim_small, _t, _c = _run_map(block_mb=64)
        sim_big, _t, _c = _run_map(block_mb=256)
        # Startup is fixed, compute scales ~4x: total should be 2.5-4x.
        assert 2.2 < sim_big.now / sim_small.now < 4.5

    def test_atom_slower_than_xeon(self):
        sim_x, _t, _c = _run_map(spec=XEON_E5_2420)
        sim_a, _t, _c = _run_map(spec=ATOM_C2758)
        assert sim_a.now > sim_x.now

    def test_higher_frequency_faster(self):
        slow, _t, _c = _run_map(freq=1.2)
        fast, _t, _c = _run_map(freq=1.8)
        assert fast.now < slow.now

    def test_charges_instructions(self):
        _sim, _task, counters = _run_map()
        assert counters.instructions > 64 * MB  # > 1 instruction per byte
        assert counters.cycles > counters.instructions / 4  # IPC <= 4

    def test_sort_spills_more_than_wordcount(self):
        _s, _t, wc = _run_map(wl="wordcount", block_mb=512)
        _s, _t, st = _run_map(wl="sort", block_mb=512)
        assert st.spill_bytes > wc.spill_bytes


class TestMapReader:
    """The map read loop runs by callbacks, with the task's process
    waiting once for the whole loop.  The pins below are the outputs of
    the generator-driven loop it replaced: a 256 MB block read remotely
    (8 chunks), so every chunk crosses the source disk and both NICs."""

    @staticmethod
    def _task(spec=XEON_E5_2420, **attempt_kw):
        sim, cluster, hdfs = _setup(spec, 1.8, 256)
        blocks = hdfs.load_input("in", 256 * MB)
        counters = RunCounters()
        task = MapTask("m0", cluster.nodes[1], hdfs,
                       workload("wordcount").stages[0], DEFAULT_CONF,
                       counters, blocks[0], **attempt_kw)
        return sim, cluster, hdfs, task, counters

    @pytest.mark.parametrize("spec, digest", [
        (XEON_E5_2420, "a8e981c55a10dd58b35124f54111be56"
                       "3161df75ec6ad2c9294e319b23636aaf"),
        (ATOM_C2758, "fd8d2f9e22a1e95d4de42557bee3779a"
                     "7073b0be0dd7848b0b64e7c97566717c"),
    ])
    def test_task_as_its_own_process_is_unchanged(self, spec, digest):
        sim, cluster, _hdfs, task, counters = self._task(spec)
        proc = sim.process(task.run())
        sim.run()
        assert proc.value == task.output_bytes
        state = (sim.now, sim.event_count, list(cluster.trace), counters)
        assert hashlib.sha256(repr(state).encode()).hexdigest() == digest

    def test_injected_failure_reaches_the_worker_at_the_same_time(self):
        sim, _cluster, _hdfs, task, _counters = self._task(
            failure_point=0.5)
        caught = []

        def slot_worker():
            try:
                yield from task.run()
            except TaskAttemptError as exc:
                caught.append((sim.now, exc.progress))
            yield sim.timeout(1.0)

        sim.process(slot_worker())
        sim.run()
        # The fifth of eight chunks crosses the failure point.
        assert caught == [(35.75514553690641, 0.5625)]
        assert sim.now == 36.75514553690641

    @pytest.mark.parametrize("at, end, events", [
        # Inside the third chunk's join wait: its join still fires.
        (17.3, 17.454196857237754, 36),
        # Inside its residual compute: the reader's own post still fires.
        (20.0, 23.378439073537564, 37),
    ])
    def test_no_read_after_an_interrupt_mid_read(self, at, end, events):
        sim, _cluster, hdfs, task, counters = self._task()
        reads = []
        reader = hdfs.reader

        def spy(*args, **kwargs):
            read = reader(*args, **kwargs).read

            def spied(nbytes):
                reads.append(sim.now)
                read(nbytes)

            return SimpleNamespace(read=spied)

        hdfs.reader = spy
        interrupted = []

        def slot_worker():
            try:
                yield from task.run()
            except Interrupt:
                interrupted.append(sim.now)

        proc = sim.process(slot_worker())

        def bolt():
            yield sim.timeout(at)
            proc.interrupt("lost the speculation race")

        sim.process(bolt())
        sim.run()
        assert interrupted == [at]
        # Three chunks were issued; what of the third was still pending
        # fires, but starts nothing.
        assert reads == [4.8133793784842895, 11.001732610168714,
                         17.19008584185314]
        assert sim.now == end
        assert sim.event_count == events
        assert counters.input_bytes == 0.0

    def test_read_loop_needs_a_process(self):
        _sim, _cluster, _hdfs, task, _counters = self._task()
        steps = task.run()
        with pytest.raises(SimulationError, match="inside a process"):
            for _ in range(3):
                next(steps)


class TestReduceTask:
    def _run_reduce(self, partition_mb=64, wl="wordcount"):
        sim, cluster, hdfs = _setup()
        counters = RunCounters()
        sources = {n.name: partition_mb * MB / 3 for n in cluster.nodes}
        task = ReduceTask("r0", cluster.nodes[0], hdfs,
                          workload(wl).stages[0], DEFAULT_CONF, counters,
                          sources)
        proc = sim.process(task.run())
        sim.run()
        assert proc.ok
        return sim, task, counters

    def test_shuffles_and_writes(self):
        _sim, task, counters = self._run_reduce()
        stage = workload("wordcount").stages[0]
        assert counters.shuffle_bytes == pytest.approx(64 * MB)
        assert task.output_bytes == pytest.approx(
            64 * MB * stage.reduce_output_ratio)
        assert counters.reduce_tasks == 1

    def test_remote_sources_cost_network(self):
        sim, cluster, hdfs = _setup()
        counters = RunCounters()
        remote_only = {"xeon1": 32 * MB, "xeon2": 32 * MB}
        task = ReduceTask("r0", cluster.nodes[0], hdfs,
                          workload("wordcount").stages[0], DEFAULT_CONF,
                          counters, remote_only)
        sim.process(task.run())
        sim.run()
        nic_traffic = sum(iv.duration for iv in cluster.trace.filter(
            device="nic"))
        assert nic_traffic > 0

    def test_bigger_partition_takes_longer(self):
        small, _t, _c = self._run_reduce(partition_mb=32)
        big, _t, _c = self._run_reduce(partition_mb=256)
        assert big.now > small.now

    def test_oversized_partition_spills(self):
        sim, cluster, hdfs = _setup()
        counters = RunCounters()
        sources = {"xeon0": 400 * MB}  # above merge_memory (140 MB)
        task = ReduceTask("r0", cluster.nodes[0], hdfs,
                          workload("wordcount").stages[0], DEFAULT_CONF,
                          counters, sources)
        sim.process(task.run())
        sim.run()
        spill_intervals = cluster.trace.filter(device="disk",
                                               kind="reduce.spill")
        assert spill_intervals


class TestReduceSteps:
    """A reduce attempt's steps: startup, a three-source shuffle (one
    local, two remote), a partition that spills and merges, the user
    reduce and a replicated output write.  The pins are the outputs of
    the process-driven task (one generator resume per step)."""

    @staticmethod
    def _task(spec=XEON_E5_2420, **attempt_kw):
        sim, cluster, hdfs = _setup(spec)
        counters = RunCounters()
        n0, n1, n2 = (n.name for n in cluster.nodes)
        sources = {n0: 40 * MB, n1: 200 * MB, n2: 160 * MB}
        task = ReduceTask("r0", cluster.nodes[0], hdfs,
                          workload("wordcount").stages[0], DEFAULT_CONF,
                          counters, sources, **attempt_kw)
        return sim, cluster, hdfs, task, counters

    @pytest.mark.parametrize("spec, digest", [
        (XEON_E5_2420, "9f157e5993d2e346c77cacfd4213d3a9"
                       "2bec24cbd6c7e39098894177a56d0eaf"),
        (ATOM_C2758, "861fbe4f043087693ecaf0d128157beb"
                     "f087ecae74ffaeecd0c401bd2575272e"),
    ])
    def test_task_as_its_own_process_is_unchanged(self, spec, digest):
        sim, cluster, _hdfs, task, counters = self._task(spec)
        proc = sim.process(task.run())
        sim.run()
        assert proc.value == task.output_bytes
        assert cluster.trace.filter(kind="reduce.spill")
        state = (sim.now, sim.event_count, list(cluster.trace), counters)
        assert hashlib.sha256(repr(state).encode()).hexdigest() == digest

    def test_injected_failure_mid_shuffle_reaches_the_worker(self):
        sim, _cluster, _hdfs, task, counters = self._task(
            failure_point=0.3)
        caught = []

        def slot_worker():
            try:
                yield from task.run()
            except TaskAttemptError as exc:
                caught.append((sim.now, exc.progress))
            yield sim.timeout(1.0)

        sim.process(slot_worker())
        sim.run()
        # The second of three fetches crosses the failure point.
        assert caught == [(10.346287207544119, 0.36)]
        assert sim.now == 11.346287207544119
        assert counters.shuffle_bytes == 0.0

    @staticmethod
    def _interrupt(at):
        sim, cluster, hdfs, task, counters = TestReduceSteps._task()
        writes = []
        write = hdfs.write

        def spy(*args, **kwargs):
            writes.append(sim.now)
            return write(*args, **kwargs)

        hdfs.write = spy
        interrupted = []

        def slot_worker():
            try:
                yield from task.run()
            except Interrupt:
                interrupted.append(sim.now)

        proc = sim.process(slot_worker())

        def bolt():
            yield sim.timeout(at)
            proc.interrupt("lost the speculation race")

        sim.process(bolt())
        sim.run()
        assert interrupted == [at]
        return sim, cluster, writes, counters

    def test_no_step_after_an_interrupt_mid_compute(self):
        # Inside the user reduce (20.3 s to 35.2 s): its post still
        # fires, but the output write never starts.
        sim, cluster, writes, counters = self._interrupt(25.0)
        assert writes == []
        assert counters.output_bytes == 0.0
        assert not cluster.trace.filter(kind="reduce.user")
        assert (sim.now, sim.event_count) == (35.185510597936236, 70)

    def test_no_step_after_an_interrupt_mid_write(self):
        # Inside the output write's join wait (35.2 s to 39.4 s): the
        # write runs to its end, but the task bills nothing for it.
        sim, cluster, writes, counters = self._interrupt(37.0)
        assert writes == [35.185510597936236]
        assert not cluster.trace.filter(kind="reduce.write.iowait")
        assert counters.reduce_tasks == 0
        assert (sim.now, sim.event_count) == (39.38611459793623, 112)


def _cyclic_garbage(workload_name, conf, kinds):
    """Names of the *kinds* whose instances one small job leaves in
    reference cycles, found with the collector off during the run."""
    gc.collect()
    gc.disable()
    try:
        result = simulate_job("atom", workload_name, data_per_node_gb=0.25,
                              conf=conf)
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        stuck = sorted({type(obj).__name__ for obj in gc.garbage
                        if isinstance(obj, kinds)})
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert result.counters.map_tasks > 0
    return stuck


class TestNoReferenceCycles:
    """A finished task attempt is in no reference cycle, so reference
    counting frees it, its task and its transfers at once; per-attempt
    cyclic garbage would pile up between collections and raise peak
    memory."""

    # sort is map-only: its output goes through the driver's fan-out.
    @pytest.mark.parametrize("workload_name", ["wordcount", "sort"])
    def test_no_attempt_or_task_is_cyclic_garbage(self, workload_name):
        assert _cyclic_garbage(workload_name, DEFAULT_CONF,
                               (tasks._Attempt, MapTask, ReduceTask)) == []

    def test_no_ended_attempt_is_cyclic_garbage(self):
        """Attempts that end by an exception or an interrupt (failed,
        killed by a speculation loss or a crash) are freed too, and so
        are their tasks: a slot process that ends after an interrupt no
        longer keeps the interrupt, whose traceback holds the slot's
        last task, as its target."""
        conf = dataclasses.replace(
            DEFAULT_CONF, speculative_execution=True,
            fault_plan=FaultPlan(
                seed=3, task_fail_prob=0.1, straggler_prob=0.2,
                node_faults=(NodeFault("atom2", crash_at_s=40.0),)))
        assert _cyclic_garbage("wordcount", conf, (
            tasks._Attempt, MapTask, ReduceTask)) == []
