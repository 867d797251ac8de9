"""Simulated Watts-Up PRO wall power meter.

The paper measures whole-system power with a Watts-Up PRO meter that
"produces the power consumption profile every one second" and estimates
dynamic power as the average reading minus the idle floor (§1.1).  This
module reconstructs the instantaneous power waveform P(t) from the
simulation's activity trace, samples it at the meter's cadence, and
applies exactly the same estimator — so the reproduction inherits the
measurement methodology, quantization and all.

The meter reads the trace's rows, so it needs a trace that keeps them:
an untraced :class:`~repro.cluster.server.Cluster` folds energy instead,
unless its ``trace`` is set to a plain :class:`TraceRecorder` before
anything records.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Sequence, Tuple

from ..sim.trace import TraceRecorder
from .power import NodePower

__all__ = ["MeterReading", "WattsUpMeter"]


@dataclass(frozen=True)
class MeterReading:
    """One sample from the meter: time and whole-system watts."""

    time: float
    watts: float


class WattsUpMeter:
    """Samples a reconstructed power waveform at a fixed interval."""

    def __init__(self, node_power: Mapping[str, NodePower],
                 sample_interval: float = 1.0):
        if sample_interval <= 0:
            raise ValueError("sample interval must be positive")
        self.node_power = dict(node_power)
        self.sample_interval = sample_interval

    @property
    def idle_watts(self) -> float:
        """Whole-cluster idle floor (sum over nodes)."""
        return sum(np.idle_watts for np in self.node_power.values())

    # -- waveform reconstruction -----------------------------------------
    def waveform(self, trace: TraceRecorder) -> List[Tuple[float, float]]:
        """Piecewise-constant P(t) as ``(edge_time, watts_after_edge)``.

        The first entry is ``(start, idle + uplifts active at start)``; the
        waveform is valid until the trace span's end.
        """
        edges: List[Tuple[float, float]] = []  # (time, delta_watts)
        for start, end, node, device, _kind, activity, _task, _phase \
                in trace.rows:
            if end - start <= 0:
                continue
            uplift = self.node_power[node].device_uplift(device, activity)
            edges.append((start, +uplift))
            edges.append((end, -uplift))
        edges.sort(key=lambda e: e[0])
        waveform: List[Tuple[float, float]] = []
        level = self.idle_watts
        index = 0
        while index < len(edges):
            time = edges[index][0]
            while index < len(edges) and edges[index][0] == time:
                level += edges[index][1]
                index += 1
            waveform.append((time, level))
        return waveform

    # -- sampling ---------------------------------------------------------
    def sample(self, trace: TraceRecorder) -> List[MeterReading]:
        """Sample P(t) every ``sample_interval`` seconds over the trace span."""
        start, end = trace.span()
        waveform = self.waveform(trace)
        if not waveform:
            return []
        readings: List[MeterReading] = []
        level = self.idle_watts
        edge_index = 0
        t = start
        while t <= end:
            while edge_index < len(waveform) and waveform[edge_index][0] <= t:
                level = waveform[edge_index][1]
                edge_index += 1
            readings.append(MeterReading(t, level))
            t += self.sample_interval
        return readings

    # -- the paper's estimator ---------------------------------------------
    def average_power(self, trace: TraceRecorder) -> float:
        """Mean of the sampled readings (whole-system watts)."""
        readings = self.sample(trace)
        if not readings:
            return self.idle_watts
        return sum(r.watts for r in readings) / len(readings)

    def dynamic_power(self, trace: TraceRecorder) -> float:
        """Average power minus the idle floor — the paper's §1.1 estimator."""
        return max(0.0, self.average_power(trace) - self.idle_watts)

    def exact_dynamic_energy(self, trace: TraceRecorder) -> float:
        """Exact integral of the uplift waveform (no sampling error).

        Useful to bound the sampling error of :meth:`dynamic_power` in
        tests: ``|sampled − exact| / exact`` should shrink with the
        sampling interval.
        """
        total = 0.0
        for start, end, node, device, _kind, activity, _task, _phase \
                in trace.rows:
            uplift = self.node_power[node].device_uplift(device, activity)
            total += uplift * (end - start)
        return total
