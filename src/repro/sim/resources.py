"""Bandwidth devices for the simulation kernel.

A :class:`BandwidthDevice` is a serializing device with a service time
per request derived from a bandwidth and a fixed per-request latency
(disks, NICs, the CPU-coupled I/O path).  Serialization is a standard
first-order contention model: when N requests overlap, each effectively
sees ~1/N of the bandwidth.

A transfer is a :class:`Transfer`, a calendar entry carrying its byte
count and a ``done`` hook.  The device posts that same object for the
grant and for the service completion, posting it in place, so moving
bytes allocates no event.  Rate and latency are checked when the device
is built and sizes in :meth:`BandwidthDevice.transfer`, so every service
time is finite.  A device keeps no statistics of its own: the power
model folds the activity intervals the HDFS layer records in the
cluster trace, and a caller learns when a transfer finished from its
``done`` hook.
"""

from __future__ import annotations

from collections import deque
from math import inf
from typing import Deque

from .engine import Entry, SimulationError, Simulator

__all__ = ["BandwidthDevice", "Transfer"]


class Transfer(Entry):
    """One transfer through a device: ``nbytes``, then ``done()``.

    Subclasses override :meth:`done`; an HDFS leg is one transfer
    object for each of its device steps in turn.
    """

    __slots__ = ("nbytes",)

    def __init__(self, nbytes: float) -> None:
        super().__init__()
        self.nbytes = nbytes

    def done(self) -> None:
        """Called once the transfer's service completes."""


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
        if not 0.0 < bandwidth < inf:
            raise SimulationError(
                f"bandwidth must be positive and finite, got {bandwidth}")
        if not 0.0 <= latency < inf:
            raise SimulationError(
                f"latency must be non-negative and finite, got {latency}")
        if channels < 1:
            raise SimulationError(f"channels must be >= 1, got {channels}")
        self.sim = sim
        self.bandwidth = bandwidth
        self.latency = latency
        self.channels = channels
        self.name = name
        self._free = channels
        self._waiting: Deque[Transfer] = deque()

    def transfer(self, job: Transfer) -> None:
        """Move ``job.nbytes`` through the device, then call ``job.done()``.

        Posts *job* for its grant — now if a channel is free, otherwise
        when the transfer ahead of it in the FIFO finishes — and, when
        the grant fires, for the service completion.  ``done`` runs
        synchronously when that completion fires, after the channel has
        passed to the next waiting transfer.  These are the calendar
        positions, in the order, that a process acquiring a channel and
        then sleeping for the service time would take.  A negative,
        infinite or NaN size, or a *job* already in the calendar, raises
        :class:`SimulationError`.
        """
        if not 0.0 <= job.nbytes < inf:
            raise SimulationError(f"negative transfer size, infinity or "
                                  f"NaN: {job.nbytes!r}")
        if job.callbacks is not None:
            raise SimulationError("entry is already in the calendar")
        if self._free:
            self._free -= 1
            sim = self.sim
            job.callbacks = self._begin
            sim.calendar[sim.now].append(job)
        else:
            self._waiting.append(job)

    def _begin(self, job: Transfer) -> None:
        sim = self.sim
        job.callbacks = self._end
        # Parenthesized as ``post(job, cb, delay)`` evaluated it.
        when = sim.now + (self.latency + job.nbytes / self.bandwidth)
        sim.calendar[when].append(job)

    def _end(self, job: Transfer) -> None:
        if self._waiting:
            sim = self.sim
            grant = self._waiting.popleft()
            grant.callbacks = self._begin
            sim.calendar[sim.now].append(grant)
        else:
            self._free += 1
        job.done()
