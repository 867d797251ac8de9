"""Integration tests for the simulated HDFS data path."""

from __future__ import annotations

import gc

import pytest

from repro.arch.presets import ATOM_C2758, XEON_E5_2420
from repro.cluster.server import Cluster
from repro.hdfs import filesystem
from repro.hdfs.filesystem import HDFS, EventJoin
from repro.sim.engine import SimulationError, Simulator
from repro.sim.trace import TraceRecorder

MB = 1024 * 1024


def _cluster(spec=XEON_E5_2420, n=3, freq=1.8):
    sim = Simulator()
    cluster = Cluster.homogeneous(sim, spec, n, freq)
    cluster.trace = TraceRecorder()   # the tests read its rows
    return sim, cluster


def _service(dev, nbytes):
    """A transfer's service time on *dev*, excluding queueing."""
    return dev.latency + nbytes / dev.bandwidth


def _drive(sim, start, *args, **kwargs):
    """Start a transfer at time 0 with ``start(join, *args, **kwargs)``
    and run it to completion; its elapsed time."""
    join = EventJoin(sim)
    start(join, *args, **kwargs)
    sim.run()
    assert join.event.ok
    return sim.now


class TestSetup:
    def test_load_input_registers_blocks(self):
        sim, cluster = _cluster()
        hdfs = HDFS(cluster, 64 * MB)
        blocks = hdfs.load_input("data", 256 * MB)
        assert len(blocks) == 4
        assert hdfs.num_map_tasks("data") == 4

    def test_invalid_block_size(self):
        sim, cluster = _cluster()
        with pytest.raises(ValueError):
            HDFS(cluster, 0)

    def test_invalid_cache_fraction(self):
        sim, cluster = _cluster()
        with pytest.raises(ValueError):
            HDFS(cluster, 64 * MB, page_cache_hit=1.0)


class TestReads:
    def test_local_read_time_bounded_by_disk_and_iopath(self):
        sim, cluster = _cluster()
        hdfs = HDFS(cluster, 64 * MB)
        node = cluster.nodes[0]
        nbytes = 64 * MB
        elapsed = _drive(sim, hdfs.read_span, node.name, node, nbytes)
        floor = max(_service(node.disk, nbytes),
                    _service(node.iopath, nbytes))
        assert elapsed == pytest.approx(floor, rel=0.01)

    def test_remote_read_slower_than_local(self):
        sim, cluster = _cluster()
        hdfs = HDFS(cluster, 64 * MB)
        reader = cluster.nodes[0]
        local = _drive(sim, hdfs.read_span, reader.name, reader, 64 * MB)
        sim2, cluster2 = _cluster()
        hdfs2 = HDFS(cluster2, 64 * MB)
        reader2 = cluster2.nodes[0]
        remote = _drive(sim2, hdfs2.read_span, "xeon1", reader2, 64 * MB)
        assert remote > local

    def test_page_cache_accelerates_reads(self):
        def read_time(hit):
            sim, cluster = _cluster()
            hdfs = HDFS(cluster, 64 * MB, page_cache_hit=hit)
            node = cluster.nodes[0]
            return _drive(sim, hdfs.read_span, node.name, node, 64 * MB)
        assert read_time(0.75) < read_time(0.0)

    def test_atom_iopath_binds(self):
        """On the little core the CPU-coupled I/O path, not the disk,
        limits local reads — the paper's Sort mechanism."""
        sim, cluster = _cluster(spec=ATOM_C2758)
        hdfs = HDFS(cluster, 64 * MB)
        node = cluster.nodes[0]
        nbytes = 256 * MB
        elapsed = _drive(sim, hdfs.read_span, node.name, node, nbytes,
                         io_factor=2.0)
        disk_only = _service(node.disk, nbytes)
        assert elapsed > 2 * disk_only


class _Tally(filesystem.Join):
    """A join that can fire again: it notes each time it fires."""

    __slots__ = ("fired",)

    def __init__(self, sim):
        self.sim = sim
        self.callbacks = None
        self.legs = 0
        self.fired = []

    def joined(self, _join):
        self.fired.append(self.sim.now)


class TestResidentReader:
    """A reader builds its legs once and re-posts them for every read."""

    def test_reads_record_what_fresh_reads_would(self):
        sizes = (32 * MB, 32 * MB, 8 * MB)

        def run(resident):
            sim, cluster = _cluster()
            hdfs = HDFS(cluster, 64 * MB)
            join = _Tally(sim)
            reader = hdfs.reader(join, "xeon1", cluster.nodes[0], "m0")
            for nbytes in sizes:
                if resident:
                    reader.read(nbytes)
                else:
                    hdfs.read_span(join, "xeon1", cluster.nodes[0], nbytes,
                                   task_id="m0")
                sim.run()
            return join.fired, sim.event_count, cluster.trace.rows

        assert run(True) == run(False)
        fired, _events, _rows = run(True)
        assert len(fired) == len(sizes)

    @pytest.mark.parametrize("source", ["xeon0", "xeon1"])
    def test_read_while_legs_in_flight_raises(self, source):
        """A second read before the first's legs have counted off would
        put a leg in the calendar twice; it raises and posts nothing."""
        sim, cluster = _cluster()
        hdfs = HDFS(cluster, 64 * MB)
        join = _Tally(sim)
        reader = hdfs.reader(join, source, cluster.nodes[0])
        reader.read(8 * MB)
        pending = sim.pending
        with pytest.raises(SimulationError, match="still in flight"):
            reader.read(8 * MB)
        assert sim.pending == pending
        sim.run()
        assert len(join.fired) == 1


class TestWrites:
    def test_replicated_write_touches_other_nodes(self):
        sim, cluster = _cluster()
        hdfs = HDFS(cluster, 64 * MB, replication=3)
        writer = cluster.nodes[0]
        _drive(sim, hdfs.write, "out", 64 * MB, writer)
        touched = {iv.node for iv in cluster.trace.filter(device="disk")}
        assert len(touched) == 3

    def test_replication_override(self):
        sim, cluster = _cluster()
        hdfs = HDFS(cluster, 64 * MB, replication=3)
        writer = cluster.nodes[0]
        _drive(sim, hdfs.write, "out", 64 * MB, writer, replication=1)
        touched = {iv.node for iv in cluster.trace.filter(device="disk")}
        assert touched == {writer.name}

    @pytest.mark.parametrize("replication, end, events", [
        (1, 0.5222220307692308, 12),
        (3, 2.2432621333333334, 42),
    ])
    def test_write_join_time_and_events(self, replication, end, events):
        """Each replica group starts from a boot at the current time and
        the write's join fires one hop after the last group's own join:
        the calendar positions of the process-free fan-out."""
        sim, cluster = _cluster()
        hdfs = HDFS(cluster, 64 * MB, replication=3)
        joined = []
        join = EventJoin(sim)
        hdfs.write(join, "out", 64 * MB, cluster.nodes[0],
                   replication=replication)
        join.event.add_callback(lambda _event: joined.append(sim.now))
        sim.run()
        assert joined == [end]
        assert sim.event_count == events

    def test_write_local_records_trace(self):
        sim, cluster = _cluster()
        hdfs = HDFS(cluster, 64 * MB)
        node = cluster.nodes[0]
        _drive(sim, hdfs.write_local, node, 32 * MB, kind="map.spill")
        spills = cluster.trace.filter(device="disk", kind="map.spill")
        assert len(spills) == 1
        assert spills[0].duration == pytest.approx(
            _service(node.disk, 32 * MB))

    def test_negative_size_fails_the_run(self):
        """A bad transfer raises out of the run even though a watched
        process waits on it: nothing on the data path may swallow it."""
        sim, cluster = _cluster()
        hdfs = HDFS(cluster, 64 * MB)
        node = cluster.nodes[0]

        def task():
            join = EventJoin(sim)
            hdfs.read_local(join, node, -MB)
            yield join.event

        proc = sim.process(task())
        proc.add_callback(lambda _event: None)
        with pytest.raises(SimulationError, match="negative transfer size"):
            sim.run()
        assert not proc.triggered

    def test_finished_legs_need_no_cycle_collector(self):
        """A finished leg is in no reference cycle, so reference counting
        frees it at once; per-leg cyclic garbage would pile up between
        collections and raise peak memory."""
        sim, cluster = _cluster()
        hdfs = HDFS(cluster, 64 * MB)
        reader = cluster.nodes[0]
        gc.collect()
        gc.disable()
        try:
            _drive(sim, hdfs.read_span, "xeon1", reader, 8 * MB)
            _drive(sim, hdfs.write, "out", 8 * MB, reader)
            leftover = [obj for obj in gc.get_objects()
                        if isinstance(obj, filesystem._Leg)]
        finally:
            gc.enable()
        assert leftover == []

    def test_trace_phases_tagged(self):
        sim, cluster = _cluster()
        hdfs = HDFS(cluster, 64 * MB)
        node = cluster.nodes[0]
        _drive(sim, hdfs.read_span, node.name, node, 8 * MB, phase="reduce")
        assert all(iv.phase == "reduce" for iv in cluster.trace)
