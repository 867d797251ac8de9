"""Structured tracing: spans, instant events, and the job-trace capture.

This is the recording half of ``repro.obs``.  A :class:`Tracer` collects

* **spans** — named ``[start, end)`` windows on a *track* (a
  ``(group, lane)`` pair such as ``("atom0", "slot2")``), used for task
  attempts, stage phases and HDFS writes;
* **instant events** — point occurrences (crashes, retries, speculation
  launches, process interrupts);
* **counters** — step-function time series (live tasks, queue backlog),
  see :mod:`repro.obs.metrics`, kept by name in :attr:`Tracer.counters`;
* **meta counters** — plain scalar tallies (engine wakes, HDFS bytes)
  with no time dimension.

Tracing is strictly opt-in.  Every instrumentation site in the simulator
guards on ``sim.obs is not None``, so a run without a tracer pays one
attribute load per site and records nothing — scalar outputs are
byte-identical with tracing on or off (the exporter tests assert this).

The tracer's clock is injected: :meth:`Tracer.attach` binds it to a
:class:`~repro.sim.engine.Simulator`'s ``now`` so job traces advance in
simulated seconds only (and are therefore reproducible bit for bit at
any ``--jobs`` width), while a bare ``Tracer()`` uses the wall clock for
host-side instrumentation such as the sweep executor.

:class:`SpanRecord` is the one span type in ``repro.obs``: the
request-trace layer (:mod:`repro.obs.reqtrace`) records its wall-clock
windows with it too, and :mod:`repro.obs.export` turns either kind into
Chrome trace events.

At the end of a traced run the job driver deposits a :class:`JobTrace`
on the tracer: the full activity-interval set plus the node, stage,
counter and power metadata the exporters (:mod:`repro.obs.export`) and
the invariant checker (:mod:`repro.obs.invariants`) consume.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, List, Optional, Tuple, TYPE_CHECKING)

from ..sim.trace import Interval
from .metrics import Counter

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids import cycles
    from ..arch.power import EnergyBreakdown, NodePower
    from ..mapreduce.driver import StageTiming
    from ..mapreduce.tasks import RunCounters
    from ..sim.engine import Simulator

__all__ = ["SpanRecord", "EventRecord", "NodeInfo", "JobTrace", "Tracer"]

Track = Tuple[str, str]


class SpanRecord:
    """One named time window on a track.

    Job traces stamp it in simulated seconds, request traces in
    ``perf_counter`` seconds; the record itself never reads a clock.
    Slotted by hand (not ``dataclass(slots=True)``, which needs Python
    3.10) because request tracing builds several per served request.
    """

    __slots__ = ("name", "track", "cat", "start", "end", "args")

    def __init__(self, name: str, track: Track, cat: str, start: float,
                 end: Optional[float] = None,
                 args: Optional[Dict[str, Any]] = None):
        self.name = name
        self.track = track
        self.cat = cat
        self.start = start
        self.end = end  #: None while the span is still open
        self.args: Dict[str, Any] = args if args is not None else {}

    @property
    def duration(self) -> float:
        """Seconds from start to end; 0 while the span is still open."""
        end = self.end if self.end is not None else self.start
        return max(end - self.start, 0.0)


@dataclass
class EventRecord:
    """One instant (point) event on a track."""

    name: str
    track: Track
    cat: str
    time: float
    args: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class NodeInfo:
    """Static facts about one node, as the exporters/checker need them."""

    name: str
    spec: str
    n_cores: int
    failed_at: Optional[float] = None


@dataclass
class JobTrace:
    """Everything one traced job run leaves behind.

    Deposited on the tracer by
    :meth:`repro.mapreduce.driver.HadoopJobRunner.run`; a pure snapshot —
    building it never perturbs the simulation it describes.
    """

    workload: str
    machine: str
    makespan: float
    intervals: List[Interval]
    marks: List[Tuple[float, str]]
    nodes: List[NodeInfo]
    node_power: Dict[str, "NodePower"]
    stages: List["StageTiming"]
    counters: "RunCounters"
    energy: Optional["EnergyBreakdown"] = None
    engine: Dict[str, float] = field(default_factory=dict)

    @property
    def node_names(self) -> List[str]:
        return [n.name for n in self.nodes]

    def node_info(self, name: str) -> NodeInfo:
        for n in self.nodes:
            if n.name == name:
                return n
        raise KeyError(f"no node named {name!r} in trace")


class Tracer:
    """Collects spans, events and counters from one run.

    Near-zero cost when *not* installed: instrumented code holds no
    tracer reference and skips every call site with a single ``is not
    None`` test.  When installed, recording is append-only — no I/O, no
    wall-clock reads (under :meth:`attach`), no event scheduling — so a
    traced simulation takes the exact same event path as an untraced
    one.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        #: Timestamp source; ``attach`` rebinds it to simulated time.
        self.clock: Callable[[], float] = (
            clock if clock is not None else time.perf_counter)
        self.spans: List[SpanRecord] = []
        self.events: List[EventRecord] = []
        #: Step-function series by name, created on first use.
        self.counters: Dict[str, Counter] = {}
        #: Scalar tallies without a time axis (engine wakes, HDFS bytes).
        self.meta: Dict[str, float] = {}
        #: Filled in by the job driver when the traced run completes.
        self.job: Optional[JobTrace] = None

    # -- installation ----------------------------------------------------
    def attach(self, sim: "Simulator") -> "Tracer":
        """Install this tracer on *sim* and adopt simulated time."""
        sim.obs = self
        self.clock = lambda: sim.now
        return self

    # -- spans -----------------------------------------------------------
    def begin(self, name: str, track: Track, cat: str = "",
              **args: Any) -> SpanRecord:
        """Open a span at the current clock; close it with :meth:`end`."""
        span = SpanRecord(name=name, track=track, cat=cat,
                          start=self.clock(), args=args)
        self.spans.append(span)
        return span

    def end(self, span: SpanRecord, **args: Any) -> SpanRecord:
        """Close *span* at the current clock, merging any extra args."""
        span.end = self.clock()
        if args:
            span.args.update(args)
        return span

    @contextmanager
    def span(self, name: str, track: Track, cat: str = "", **args: Any):
        """Context-manager form of :meth:`begin`/:meth:`end`."""
        record = self.begin(name, track, cat, **args)
        try:
            yield record
        finally:
            self.end(record)

    # -- instants --------------------------------------------------------
    def instant(self, name: str, track: Track, cat: str = "",
                **args: Any) -> EventRecord:
        event = EventRecord(name=name, track=track, cat=cat,
                            time=self.clock(), args=args)
        self.events.append(event)
        return event

    # -- counters --------------------------------------------------------
    def counter(self, name: str, unit: str = "") -> Counter:
        """Time-series counter (created on first use)."""
        counter = self.counters.get(name)
        if counter is None:
            counter = self.counters[name] = Counter(name, unit)
        return counter

    def count(self, name: str, n: float = 1) -> None:
        """Bump a scalar meta counter (no time axis)."""
        self.meta[name] = self.meta.get(name, 0) + n

    # -- introspection ---------------------------------------------------
    def spans_on(self, group: str, lane: Optional[str] = None
                 ) -> List[SpanRecord]:
        """Spans whose track group (and optionally lane) matches."""
        return [s for s in self.spans
                if s.track[0] == group
                and (lane is None or s.track[1] == lane)]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Tracer {len(self.spans)} spans, {len(self.events)} "
                f"events, {len(self.counters)} counters>")
