"""Server power model and energy accounting.

Methodology mirrors the paper (§1.1): a wall meter reads whole-system
power; the *dynamic* power of a run is the average reading minus the idle
floor.  We therefore model every activity as a power **uplift** over the
idle floor and integrate uplifts over the activity intervals recorded by
the simulator:

* an active core adds dynamic power ``c_dyn · V² · f · activity`` plus a
  static uplift from running at an elevated voltage;
* an active disk or NIC adds its (active − idle) delta;
* DRAM traffic adds power proportional to bytes moved (folded into the
  core/disk uplifts at first order — the meter cannot separate them
  either).

Energy is attributed to MapReduce phases through the ``phase`` tag each
interval carries, which is what Figs. 7/8/13 (map vs reduce EDP) consume.

The fold itself lives in :class:`~repro.sim.trace.TraceRecorder`: a
recorder built with :func:`node_uplift` folds each activity as it is
recorded and keeps no row.  That is how a cluster records unless a
tracer is attached to its simulator, since nothing else reads the rows
of a run; :func:`integrate_energy` then reads the finished sums.  A
trace that keeps its rows (a traced run, or a plain recorder a caller
put in place to read them) is replayed through the same fold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Mapping, Optional

from ..sim.trace import Interval, TraceRecorder
from .dvfs import GHZ, DvfsTable, OperatingPoint

__all__ = ["PowerSpec", "NodePower", "EnergyBreakdown", "node_uplift",
           "integrate_energy"]


@dataclass(frozen=True)
class PowerSpec:
    """Per-node power coefficients (whole server, wall-plug view).

    Attributes:
        base_watts: board + PSU loss + fans + idle uncore/DRAM — the
            constant floor a wall meter sees with the machine idle.
        core_dynamic_coeff: watts per core per (V² · GHz) at activity 1.
        core_static_uplift: watts per core per volt of uplift above the
            idle operating voltage.
        fw_activity: activity factor charged for framework/JVM overhead
            intervals (they burn power without useful IPC).
        disk_active_uplift: watts added while the disk is transferring.
        nic_active_uplift: watts added while the NIC is transferring.
        idle_voltage: voltage the cores idle at (deep C-state request).
        job_active_uplift: watts the uncore/DRAM add over idle for the
            whole duration of a running job (refresh-rate upshift, fabric
            out of package C-states) — independent of how many cores the
            job was allotted, which is what makes long jobs on few cores
            expensive (the paper's real-world EDAP trend).
    """

    base_watts: float
    core_dynamic_coeff: float
    core_static_uplift: float
    disk_active_uplift: float
    nic_active_uplift: float
    idle_voltage: float
    fw_activity: float = 0.3
    job_active_uplift: float = 0.0

    def __post_init__(self):
        for name in ("base_watts", "core_dynamic_coeff", "core_static_uplift",
                     "disk_active_uplift", "nic_active_uplift", "idle_voltage"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")


class NodePower:
    """Power state of one server node at a fixed operating point."""

    def __init__(self, spec: PowerSpec, op: OperatingPoint):
        self.spec = spec
        self.op = op

    @property
    def idle_watts(self) -> float:
        return self.spec.base_watts

    def core_uplift(self, activity: float) -> float:
        """Watts one core adds over idle while running at *activity*."""
        if not 0.0 <= activity <= 1.0:
            raise ValueError(f"activity must be in [0, 1], got {activity}")
        dyn = (self.spec.core_dynamic_coeff * self.op.voltage ** 2
               * (self.op.freq_hz / GHZ) * activity)
        static = self.spec.core_static_uplift * max(
            0.0, self.op.voltage - self.spec.idle_voltage)
        return dyn + static

    def device_uplift(self, device: str, activity: float) -> float:
        """Watts a device class adds over the idle floor at *activity*."""
        if device == "core":
            return self.core_uplift(activity)
        if device == "fw":
            return self.core_uplift(min(1.0, self.spec.fw_activity))
        if device == "disk":
            return self.spec.disk_active_uplift
        if device == "nic":
            return self.spec.nic_active_uplift
        if device == "uncore":
            return self.spec.job_active_uplift
        raise ValueError(f"unknown device class: {device!r}")

    def interval_uplift(self, interval: Interval) -> float:
        """Watts the given activity interval adds over the idle floor."""
        return self.device_uplift(interval.device, interval.activity)


@dataclass
class EnergyBreakdown:
    """Dynamic energy of a run, decomposed the way the figures need it."""

    dynamic_joules: float = 0.0
    by_phase: Dict[str, float] = field(default_factory=dict)
    by_device: Dict[str, float] = field(default_factory=dict)
    by_node: Dict[str, float] = field(default_factory=dict)
    idle_watts: float = 0.0
    makespan: float = 0.0

    @property
    def total_joules(self) -> float:
        """Wall-plug energy including the idle floor over the makespan."""
        return self.dynamic_joules + self.idle_watts * self.makespan

    @property
    def average_dynamic_watts(self) -> float:
        """The paper's estimator: mean power minus idle."""
        return self.dynamic_joules / self.makespan if self.makespan > 0 else 0.0

    def phase_energy(self, phase: str) -> float:
        return self.by_phase.get(phase, 0.0)


def node_uplift(node_power: Mapping[str, NodePower]
                ) -> Callable[[str, str, float], float]:
    """``uplift(node, device, activity)`` over *node_power*: the watts one
    recorded activity adds over the idle floor, as a folding
    :class:`~repro.sim.trace.TraceRecorder` takes it."""
    return lambda node, device, activity: node_power[node].device_uplift(
        device, activity)


def integrate_energy(trace: TraceRecorder,
                     node_power: Mapping[str, NodePower],
                     makespan: Optional[float] = None) -> EnergyBreakdown:
    """Fold node power models over a recorded activity trace.

    A trace that folded its rows as they were recorded (see
    :class:`~repro.sim.trace.TraceRecorder`) already holds the sums; its
    uplift came from the same nodes' power models, so *node_power*
    supplies only the idle floor.  A trace that kept its rows is
    replayed into a folding recorder here, so both paths run the one
    fold and give bit-identical results.

    Args:
        trace: intervals recorded by the cluster simulation.
        node_power: node name → :class:`NodePower` for that node.
        makespan: wall-clock duration of the run; defaults to the trace
            span, which only a trace that keeps its rows has.

    Returns:
        An :class:`EnergyBreakdown` with dynamic joules split by phase,
        device class and node.
    """
    out = EnergyBreakdown()
    if makespan is None:
        start, end = trace.span()
        makespan = end - start
    out.makespan = makespan
    out.idle_watts = sum(np.idle_watts for np in node_power.values())
    if not trace.folds:
        folded = TraceRecorder(uplift=node_uplift(node_power))
        for row in trace.rows:
            folded.add(*row)
        trace = folded
    (out.dynamic_joules, out.by_phase, out.by_device,
     out.by_node) = trace.energy_fold()
    return out
