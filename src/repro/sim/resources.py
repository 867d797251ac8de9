"""Bandwidth devices for the simulation kernel.

A :class:`BandwidthDevice` is a serializing device with a service time
per request derived from a bandwidth and a fixed per-request latency
(disks, NICs, the CPU-coupled I/O path).  Serialization is a standard
first-order contention model: when N requests overlap, each effectively
sees ~1/N of the bandwidth.

A device keeps no statistics of its own: the power model folds the
activity intervals the HDFS layer records in the cluster trace, and a
caller learns when a transfer finished from its ``done`` callback.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Tuple

from .engine import Event, SimulationError, Simulator, Timeout

__all__ = ["BandwidthDevice"]


#: One transfer: (nbytes, done callback).
_Job = Tuple[float, Callable[[], None]]


class BandwidthDevice:
    """A serializing device (disk / NIC) with bandwidth and fixed latency.

    Each transfer of ``nbytes`` occupies the device for
    ``latency + nbytes / bandwidth`` seconds.  Requests are served FIFO
    with ``channels`` parallel servers; overlapping demand queues up, which
    is what produces realistic I/O contention across concurrent tasks.

    The device owns its FIFO — a free-channel count and a deque of
    waiting transfers — and runs each transfer by callbacks rather than
    as a process: see :meth:`transfer`.
    """

    def __init__(self, sim: Simulator, bandwidth: float, latency: float = 0.0,
                 channels: int = 1, name: str = "device"):
        if bandwidth <= 0:
            raise SimulationError(f"bandwidth must be positive, got {bandwidth}")
        if latency < 0:
            raise SimulationError(f"latency must be non-negative, got {latency}")
        if channels < 1:
            raise SimulationError(f"channels must be >= 1, got {channels}")
        self.sim = sim
        self.bandwidth = bandwidth
        self.latency = latency
        self.channels = channels
        self.name = name
        self._free = channels
        self._waiting: Deque[_Job] = deque()

    def transfer(self, nbytes: float, done: Callable[[], None]) -> None:
        """Move *nbytes* through the device, then call ``done()``.

        Schedules a grant event — now if a channel is free, otherwise
        when the transfer ahead of it in the FIFO finishes — and, when
        the grant fires, the service timeout.  ``done`` runs
        synchronously when that timeout fires, after the channel has
        passed to the next waiting transfer.  These are the events, in
        the order, that a process acquiring a channel and then sleeping
        for the service time would schedule.
        """
        if nbytes < 0:
            raise SimulationError(f"negative transfer size: {nbytes}")
        job = (nbytes, done)
        if self._free:
            self._free -= 1
            self.sim.schedule(self._begin, job)
        else:
            self._waiting.append(job)

    def _begin(self, grant: Event) -> None:
        job = grant.value
        self.sim.timeout(self.latency + job[0] / self.bandwidth, job,
                         self._end)

    def _end(self, service: Timeout) -> None:
        if self._waiting:
            self.sim.schedule(self._begin, self._waiting.popleft())
        else:
            self._free += 1
        service.value[1]()
