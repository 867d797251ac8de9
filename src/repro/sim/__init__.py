"""Discrete-event simulation substrate (engine, resources, tracing)."""

from .engine import (AllOf, AnyOf, Event, Interrupt, Process, SimulationError,
                     Simulator, Timeout)
from .faults import FaultPlan, NodeFault, unit_draw
from .resources import BandwidthDevice
from .trace import (Interval, TraceRecorder, complement, merge_intervals,
                    total_overlap)

__all__ = [
    "AllOf", "AnyOf", "Event", "Interrupt", "Process", "SimulationError",
    "Simulator", "Timeout", "FaultPlan", "NodeFault", "unit_draw",
    "BandwidthDevice", "Interval",
    "TraceRecorder", "merge_intervals", "total_overlap", "complement",
]
