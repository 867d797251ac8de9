"""Discrete-event simulation substrate (engine, resources, tracing)."""

from .engine import (AnyOf, Entry, Event, Interrupt, Process,
                     SimulationError, Simulator, Timeout)
from .faults import FaultPlan, NodeFault, unit_draw
from .resources import BandwidthDevice, Transfer
from .trace import (Interval, TraceRecorder, complement, merge_intervals,
                    total_overlap)

__all__ = [
    "AnyOf", "Entry", "Event", "Interrupt", "Process",
    "SimulationError", "Simulator", "Timeout", "FaultPlan", "NodeFault",
    "unit_draw", "BandwidthDevice", "Transfer", "Interval",
    "TraceRecorder", "merge_intervals", "total_overlap", "complement",
]
