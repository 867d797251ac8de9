"""Unit tests for bandwidth devices and the channel FIFO they own.

A device keeps no counters, so every test reads FIFO order, channel
parallelism and makespan from the times at which transfers' ``done``
hooks run.
"""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.sim.engine import Entry, SimulationError, Simulator
from repro.sim.resources import BandwidthDevice, Transfer


class _Logged(Transfer):
    """A transfer that logs ``(tag, finish time)`` when it is done."""

    __slots__ = ("sim", "log", "tag")

    def __init__(self, sim, nbytes, log, tag):
        super().__init__(nbytes)
        self.sim = sim
        self.log = log
        self.tag = tag

    def done(self):
        if self.log is not None:
            self.log.append((self.tag, self.sim.now))


def _start(sim, dev, n, log=None, tag=None):
    """Start a transfer of *n* bytes; log ``(tag, finish time)``."""
    dev.transfer(_Logged(sim, n, log, tag))


def _service(dev, n):
    """A transfer's service time on *dev*, excluding queueing."""
    return dev.latency + n / dev.bandwidth


class TestResource:
    """The counted, FIFO-queued channel pool inside a device.

    ``channels`` plays the part of a resource's capacity: a transfer is
    granted a channel when one is free and otherwise waits its turn.
    """

    def test_capacity_enforced(self):
        sim = Simulator()
        dev = BandwidthDevice(sim, bandwidth=1.0, channels=1)
        log = []
        _start(sim, dev, 5.0, log, "a")
        _start(sim, dev, 5.0, log, "b")
        sim.run()
        granted = [(tag, t - 5.0) for tag, t in log]
        assert granted == [("a", 0.0), ("b", 5.0)]

    def test_parallel_up_to_capacity(self):
        sim = Simulator()
        dev = BandwidthDevice(sim, bandwidth=1.0, channels=3)
        log = []
        for tag in "abc":
            _start(sim, dev, 2.0, log, tag)
        sim.run()
        # Nobody waited: every transfer finished one service time in.
        assert log == [("a", 2.0), ("b", 2.0), ("c", 2.0)]
        assert sim.now == 2.0

    def test_fifo_ordering(self):
        """Served in arrival order, not shortest first."""
        sim = Simulator()
        dev = BandwidthDevice(sim, bandwidth=1.0, channels=1)
        log = []
        for tag, n in zip("abcd", (4.0, 1.0, 3.0, 2.0)):
            _start(sim, dev, n, log, tag)
        sim.run()
        assert log == [("a", 4.0), ("b", 5.0), ("c", 8.0), ("d", 10.0)]

    def test_invalid_capacity(self):
        for channels in (0, -1):
            with pytest.raises(SimulationError):
                BandwidthDevice(Simulator(), bandwidth=1.0, channels=channels)

    def test_queue_length_and_in_use(self):
        """Transfers beyond the channels in use wait in the queue."""
        sim = Simulator()
        dev = BandwidthDevice(sim, bandwidth=1.0, channels=2)
        log = []
        for tag in "abcde":
            _start(sim, dev, 1.0, log, tag)
        sim.run()
        # Two in service at once; the other three wait their turn in
        # arrival order.
        assert log == [("a", 1.0), ("b", 1.0), ("c", 2.0), ("d", 2.0),
                       ("e", 3.0)]

    def test_utilization_full_serial(self):
        sim = Simulator()
        dev = BandwidthDevice(sim, bandwidth=1.0, channels=1)
        log = []
        _start(sim, dev, 3.0, log, "a")
        _start(sim, dev, 3.0, log, "b")
        sim.run()
        # Back to back: the second starts the instant the first ends.
        assert log == [("a", 3.0), ("b", 6.0)]
        assert sim.now == pytest.approx(6.0)


class TestBandwidthDevice:
    def test_transfers_serialize(self):
        sim = Simulator()
        dev = BandwidthDevice(sim, bandwidth=10.0, latency=0.5)
        log = []
        _start(sim, dev, 100.0, log, "a")
        _start(sim, dev, 100.0, log, "b")
        sim.run()
        assert [t for _tag, t in log] == pytest.approx([10.5, 21.0])

    def test_channels_allow_parallelism(self):
        sim = Simulator()
        dev = BandwidthDevice(sim, bandwidth=10.0, channels=2)
        log = []
        _start(sim, dev, 100.0, log, "a")
        _start(sim, dev, 100.0, log, "b")
        sim.run()
        assert log == [("a", 10.0), ("b", 10.0)]
        assert sim.now == pytest.approx(10.0)

    def test_transfer_returns_elapsed_including_queue(self):
        sim = Simulator()
        dev = BandwidthDevice(sim, bandwidth=10.0)
        log = []
        _start(sim, dev, 100.0, log, "a")
        _start(sim, dev, 100.0, log, "b")
        sim.run()
        elapsed = [t for _tag, t in log]  # both requested at time 0
        assert elapsed[0] == pytest.approx(10.0)
        assert elapsed[1] == pytest.approx(20.0)  # waited behind the first

    def test_negative_size_rejected(self):
        sim = Simulator()
        dev = BandwidthDevice(sim, bandwidth=10.0)
        with pytest.raises(SimulationError):
            dev.transfer(Transfer(-1.0))
        assert sim.pending == 0

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_inputs_rejected(self, bad):
        """NaN and infinite rates and sizes fail at once; a NaN size
        used to complete at time NaN."""
        sim = Simulator()
        with pytest.raises(SimulationError, match="bandwidth"):
            BandwidthDevice(sim, bandwidth=bad)
        with pytest.raises(SimulationError, match="latency"):
            BandwidthDevice(sim, bandwidth=1.0, latency=bad)
        dev = BandwidthDevice(sim, bandwidth=1.0)
        with pytest.raises(SimulationError, match="transfer size"):
            dev.transfer(Transfer(bad))
        assert sim.pending == 0

    def test_one_object_for_grant_and_service(self):
        """The device posts the transfer itself, for both its events."""
        sim = Simulator()
        dev = BandwidthDevice(sim, bandwidth=1.0)
        job = _Logged(sim, 2.0, [], "a")
        dev.transfer(job)
        assert sim.pending == 1
        with pytest.raises(SimulationError, match="already in the calendar"):
            sim.post(job, lambda _job: None)
        sim.run()
        assert job.log == [("a", 2.0)]
        assert sim.event_count == 2

    @pytest.mark.parametrize("channels", [1, 2])
    def test_transfer_refuses_a_job_already_in_the_calendar(self, channels):
        """The device posts in place, so ``transfer`` makes ``post``'s
        check itself, whether a channel is free or not."""
        sim = Simulator()
        dev = BandwidthDevice(sim, bandwidth=1.0, channels=channels)
        job = _Logged(sim, 2.0, [], "a")
        dev.transfer(job)
        with pytest.raises(SimulationError, match="already in the calendar"):
            dev.transfer(job)
        sim.run()
        assert job.log == [("a", 2.0)]

    def test_invalid_parameters(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            BandwidthDevice(sim, bandwidth=0.0)
        with pytest.raises(SimulationError):
            BandwidthDevice(sim, bandwidth=1.0, latency=-0.1)
        with pytest.raises(SimulationError):
            BandwidthDevice(sim, bandwidth=1.0, channels=0)

    def test_fifo_ordering(self):
        sim = Simulator()
        dev = BandwidthDevice(sim, bandwidth=1.0)
        log = []
        for tag in "abcd":
            _start(sim, dev, 1.0, log, tag)
        sim.run()
        assert log == [("a", 1.0), ("b", 2.0), ("c", 3.0), ("d", 4.0)]

    def test_wait_statistics(self):
        """A request that arrives behind a busy channel waits out the
        rest of its service, then takes its own."""
        sim = Simulator()
        dev = BandwidthDevice(sim, bandwidth=1.0)
        log = []
        _start(sim, dev, 4.0, log, "a")

        def late(_event):
            _start(sim, dev, 4.0, log, "b")

        sim.post(Entry(), late, 1.0)
        sim.run()
        # b waited 3 s (from t=1 to t=4), then served 4 s.
        assert log == [("a", 4.0), ("b", 8.0)]

    def test_grant_and_service_are_two_events(self):
        """Per transfer: one grant event, then one service timeout."""
        sim = Simulator()
        dev = BandwidthDevice(sim, bandwidth=1.0)
        _start(sim, dev, 1.0)
        _start(sim, dev, 1.0)
        sim.run()
        assert sim.event_count == 4

    @given(st.integers(min_value=1, max_value=6),
           st.integers(min_value=1, max_value=20))
    def test_makespan_matches_wave_count(self, channels, n_transfers):
        """n identical unit transfers over c channels take ceil(n/c) waves."""
        sim = Simulator()
        dev = BandwidthDevice(sim, bandwidth=1.0, channels=channels)
        for _ in range(n_transfers):
            _start(sim, dev, 1.0)
        sim.run()
        waves = -(-n_transfers // channels)
        assert sim.now == pytest.approx(float(waves))

    def test_busy_intervals_recorded(self):
        sim = Simulator()
        dev = BandwidthDevice(sim, bandwidth=10.0)
        log = []
        _start(sim, dev, 50.0, log, "a")
        sim.run()
        assert log == [("a", 5.0)]
        assert sim.now == 5.0

    def test_utilization_is_per_channel(self):
        """Each channel serves its own transfer; a later transfer on an
        idle device starts at once, whatever ran before."""
        sim = Simulator()
        dev = BandwidthDevice(sim, bandwidth=1.0, channels=2)
        log = []
        _start(sim, dev, 5.0, log, "a")
        _start(sim, dev, 5.0, log, "b")
        sim.run()
        assert log == [("a", 5.0), ("b", 5.0)]
        _start(sim, dev, 5.0, log, "c")
        sim.run()
        assert log[-1] == ("c", 10.0)

    @given(st.lists(st.floats(min_value=1.0, max_value=1e6),
                    min_size=1, max_size=10))
    def test_serialized_makespan_is_sum_of_service(self, sizes):
        sim = Simulator()
        dev = BandwidthDevice(sim, bandwidth=123.0, latency=0.25)
        for n in sizes:
            _start(sim, dev, n)
        sim.run()
        expected = sum(_service(dev, n) for n in sizes)
        assert sim.now == pytest.approx(expected)
