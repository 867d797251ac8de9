"""Interval trace recorder.

The cluster simulation's timing code never computes power; instead every
activity (a core computing, a core stalled on memory, a disk transfer, a
network transfer, a framework overhead) is recorded as a timestamped
interval.  The power model folds a power level over the recorded
activity, and the phase accountant derives map/reduce/other breakdowns
from the same data.  Keeping timing and power strictly separated makes
both independently testable.

A recorder either keeps its rows or folds them.  A recorder built with
an *uplift* callable keeps no rows: :meth:`TraceRecorder.add` folds each
one into dynamic joules, split by phase, device and node, as it arrives.
A cluster records this way unless a tracer is attached to its
simulator: then nothing reads its rows but the energy integrator
(:func:`repro.arch.power.integrate_energy`), which reads the finished
fold.  The integrator replays a kept trace's rows through the same
fold, so both kinds of recorder give bit-identical breakdowns.
Every record goes through a :class:`Fold` handle (see
:class:`TraceRecorder`).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from typing import (Callable, Dict, Iterable, Iterator, List, Optional,
                    Tuple)

__all__ = ["Interval", "Fold", "TraceRecorder", "merge_intervals",
           "total_overlap", "complement"]


@dataclass(frozen=True)
class Interval:
    """A half-open activity interval ``[start, end)``.

    Attributes:
        start: interval start, simulated seconds.
        end: interval end, simulated seconds.
        node: name of the server node the activity ran on.
        device: device class — ``"core"``, ``"disk"``, ``"nic"``, ``"fw"``.
        kind: free-form activity label (``"map.compute"``, ``"shuffle"``...).
        activity: 0..1 duty factor used by the power model (a core stalled
            on DRAM burns less dynamic power than one retiring at full IPC).
        task_id: owning task identifier, if any.
        phase: MapReduce phase the activity belongs to
            (``"map"``, ``"reduce"``, ``"other"``).
    """

    start: float
    end: float
    node: str
    device: str
    kind: str
    activity: float = 1.0
    task_id: Optional[str] = None
    phase: str = "other"

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __post_init__(self):
        # One chained comparison on the duration also refuses NaN and
        # infinite ends, which would turn every energy sum into NaN.
        if not 0.0 <= self.end - self.start < inf:
            raise ValueError(f"interval ends before it starts, or is not "
                             f"finite: {self}")
        if not 0.0 <= self.activity <= 1.0:
            raise ValueError(f"activity must be within [0, 1]: {self}")


class Fold:
    """A fold handle: where the records of one ``(node, device, activity,
    phase)`` combination go (see :class:`TraceRecorder`).

    Built by :meth:`TraceRecorder.fold_handles` and resolved at its first
    record, never before: a node, device or phase gets its sum in the
    recorder's splits at its first record, so the splits come out in
    first-recorded order.  :meth:`add` is the one place a record is
    kept as a row or folded: one multiply, then four float additions,
    in record order.
    """

    __slots__ = ("node", "device", "activity", "phase", "rows", "fold",
                 "sums")

    def __init__(self, node: str, device: str, activity: float, phase: str,
                 rows: Optional[List[tuple]], fold: Optional[tuple]):
        self.node = node
        self.device = device
        self.activity = activity
        self.phase = phase
        #: The recorder's row list if it keeps rows, else None.
        self.rows = rows
        #: The recorder's ``(uplift, joules, by_phase, by_device,
        #: by_node)`` if it folds, else None.
        self.fold = fold
        #: ``(uplift, total, phase sum, device sum, node sum)`` once
        #: resolved; each sum is a one-element list.
        self.sums = None

    def add(self, start: float, end: float, kind: str,
            task_id: Optional[str]) -> None:
        """Record one interval of this combination."""
        if not 0.0 <= end - start < inf:
            # Build the Interval so the caller gets the canonical
            # validation error with the full record in it.
            Interval(start, end, self.node, self.device, kind,
                     self.activity, task_id, self.phase)
        sums = self.sums
        if sums is None:
            rows = self.rows
            if rows is not None:
                rows.append((start, end, self.node, self.device, kind,
                             self.activity, task_id, self.phase))
                return
            uplift, joules, by_phase, by_device, by_node = self.fold
            sums = self.sums = (
                uplift(self.node, self.device, self.activity), joules,
                by_phase.setdefault(self.phase, [0.0]),
                by_device.setdefault(self.device, [0.0]),
                by_node.setdefault(self.node, [0.0]))
        uplift, total, by_phase, by_device, by_node = sums
        joules = uplift * (end - start)
        total[0] += joules
        by_phase[0] += joules
        by_device[0] += joules
        by_node[0] += joules


class _FoldTable(dict):
    """One node's device in one phase: its fold handles by activity, each
    built at its first lookup."""

    __slots__ = ("node", "device", "phase", "rows", "fold")

    def __missing__(self, activity: float) -> Fold:
        if not 0.0 <= activity <= 1.0:
            raise ValueError(f"activity must be within [0, 1]: {activity!r} "
                             f"({self.node}, {self.device}, {self.phase})")
        handle = self[activity] = Fold(self.node, self.device, activity,
                                       self.phase, self.rows, self.fold)
        return handle


class TraceRecorder:
    """Collects activity intervals and answers aggregate queries.

    Recording is on the hot path of every characterized run (each task,
    transfer and framework overhead lands here), so intervals are stored
    as plain tuples in :class:`Interval` field order rather than as
    dataclass instances — one tuple allocation per record instead of an
    object plus ``__post_init__`` dispatch.  The :class:`Interval` view
    is materialized lazily (and cached) the first time a query needs it;
    aggregate queries (:meth:`busy_time`, :meth:`span`, ...) and the
    power integrator read the raw rows directly and never materialize.
    Marks are kept either way.

    With *uplift* — ``uplift(node, device, activity)`` → watts over the
    idle floor — the recorder folds instead: each record adds
    ``uplift × duration`` joules to :meth:`energy_fold`'s totals and
    keeps no row, so ``len()`` stays 0 and every row query raises.

    Fold handles.  A trace repeats a handful of ``(node, device,
    activity, phase)`` combinations thousands of times, so each
    combination gets one :class:`Fold` handle: its uplift and the four
    running sums it adds to, found at its first record.  Recording
    code that knows its node, device and phase holds that combination's
    table (:meth:`fold_handles`) and finds a handle by activity alone:
    an HDFS path looks its steps' handles up once, and a task attempt
    holds its node's core table for the ``core`` records of every
    chunk.  No record builds or hashes a key of all four.  :meth:`add`
    takes the same route through the tables, and a recorder that keeps
    rows gets every row through :meth:`Fold.add` too.
    """

    __slots__ = ("_rows", "_cache", "marks", "_uplift", "_tables",
                 "_joules", "_by_phase", "_by_device", "_by_node")

    def __init__(self, uplift: Optional[Callable[[str, str, float], float]]
                 = None):
        #: Raw rows in Interval field order:
        #: ``(start, end, node, device, kind, activity, task_id, phase)``.
        self._rows: List[tuple] = []
        self._cache: List[Interval] = []
        self.marks: List[Tuple[float, str]] = []
        self._uplift = uplift
        #: (node, device, phase) -> that combination's fold handles.
        self._tables: Dict[tuple, _FoldTable] = {}
        self._joules = [0.0]
        self._by_phase: Dict[str, List[float]] = {}
        self._by_device: Dict[str, List[float]] = {}
        self._by_node: Dict[str, List[float]] = {}

    # -- recording -------------------------------------------------------
    def record(self, interval: Interval) -> None:
        """Record an already-built (hence already-validated) interval."""
        cached = len(self._cache) == len(self._rows)
        self.add(interval.start, interval.end, interval.node,
                 interval.device, interval.kind, interval.activity,
                 interval.task_id, interval.phase)
        if cached and self._uplift is None:
            self._cache.append(interval)

    def add(self, start: float, end: float, node: str, device: str, kind: str,
            activity: float = 1.0, task_id: Optional[str] = None,
            phase: str = "other") -> None:
        """Record one interval without building an :class:`Interval`."""
        if not 0.0 <= end - start < inf or not 0.0 <= activity <= 1.0:
            # Invalid record: build the Interval so the caller gets the
            # canonical validation error with the full record in it.
            Interval(start, end, node, device, kind, activity, task_id, phase)
        self.fold_handles(node, device, phase)[activity].add(
            start, end, kind, task_id)

    def fold_handles(self, node: str, device: str, phase: str
                     ) -> Dict[float, Fold]:
        """The :class:`Fold` handles of *device* on *node* in *phase*,
        keyed by activity; a missing one is built at its first lookup
        (an activity outside [0, 1] raises ``ValueError``)."""
        key = (node, device, phase)
        table = self._tables.get(key)
        if table is None:
            table = self._tables[key] = _FoldTable()
            table.node = node
            table.device = device
            table.phase = phase
            if self._uplift is None:
                table.rows = self._rows
                table.fold = None
            else:
                table.rows = None
                table.fold = (self._uplift, self._joules, self._by_phase,
                              self._by_device, self._by_node)
        return table

    def mark(self, time: float, label: str) -> None:
        """Record a point event (job submitted, phase boundary...)."""
        self.marks.append((time, label))

    # -- the energy fold -------------------------------------------------
    @property
    def folds(self) -> bool:
        """True if this recorder folds energy instead of keeping rows."""
        return self._uplift is not None

    def energy_fold(self) -> Tuple[float, Dict[str, float], Dict[str, float],
                                   Dict[str, float]]:
        """``(joules, by_phase, by_device, by_node)`` folded so far.

        The dicts are copies, in first-recorded order.

        Raises:
            ValueError: if the recorder keeps rows instead.
        """
        if self._uplift is None:
            raise ValueError("this trace keeps rows; it has no energy fold")
        return (self._joules[0],
                {phase: sum_[0] for phase, sum_ in self._by_phase.items()},
                {device: sum_[0] for device, sum_ in self._by_device.items()},
                {node: sum_[0] for node, sum_ in self._by_node.items()})

    # -- queries ---------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Interval]:
        return iter(self._materialize())

    @property
    def rows(self) -> List[tuple]:
        """The raw rows, in record order — read-only; do not mutate.

        Raises:
            ValueError: if the recorder folds energy and keeps no rows.
        """
        if self._uplift is not None:
            raise ValueError("this trace folds energy and keeps no rows")
        return self._rows

    def _materialize(self) -> List[Interval]:
        """The cached :class:`Interval` view, extended to cover new rows."""
        cache, rows = self._cache, self.rows
        if len(cache) != len(rows):
            cache.extend(Interval(*row) for row in rows[len(cache):])
        return cache

    def _matching_rows(self, node: Optional[str] = None,
                       device: Optional[str] = None,
                       kind: Optional[str] = None,
                       phase: Optional[str] = None) -> Iterator[tuple]:
        for row in self.rows:
            if node is not None and row[2] != node:
                continue
            if device is not None and row[3] != device:
                continue
            if kind is not None and not row[4].startswith(kind):
                continue
            if phase is not None and row[7] != phase:
                continue
            yield row

    @property
    def intervals(self) -> List[Interval]:
        return list(self._materialize())

    def filter(self, node: Optional[str] = None, device: Optional[str] = None,
               kind: Optional[str] = None, phase: Optional[str] = None
               ) -> List[Interval]:
        """All intervals matching every provided criterion."""
        out = []
        for iv in self._materialize():
            if node is not None and iv.node != node:
                continue
            if device is not None and iv.device != device:
                continue
            if kind is not None and not iv.kind.startswith(kind):
                continue
            if phase is not None and iv.phase != phase:
                continue
            out.append(iv)
        return out

    def span(self) -> Tuple[float, float]:
        """(earliest start, latest end) over all intervals; (0, 0) if empty."""
        rows = self.rows
        if not rows:
            return (0.0, 0.0)
        return (min(row[0] for row in rows), max(row[1] for row in rows))

    def busy_time(self, **criteria) -> float:
        """Sum of durations of matching intervals (double-counts overlap)."""
        return sum(row[1] - row[0] for row in self._matching_rows(**criteria))

    def phase_window(self, phase: str) -> Tuple[float, float]:
        """Wall-clock window ``[first start, last end]`` of a phase."""
        lo = hi = None
        for row in self.rows:
            if row[7] != phase:
                continue
            if lo is None:
                lo, hi = row[0], row[1]
            else:
                if row[0] < lo:
                    lo = row[0]
                if row[1] > hi:
                    hi = row[1]
        if lo is None:
            return (0.0, 0.0)
        return (lo, hi)


def merge_intervals(spans: Iterable[Tuple[float, float]]
                    ) -> List[Tuple[float, float]]:
    """Coalesce possibly-overlapping ``(start, end)`` spans.

    Returns disjoint spans sorted by start.  Zero-length spans carry no
    time and are dropped; touching spans (``a.end == b.start``) coalesce
    into one, matching the half-open ``[start, end)`` convention used
    everywhere else.  A backwards span (``end < start``) is always a
    caller bug — it used to be silently discarded, which is exactly how
    an accounting error hides — so it now raises.

    Raises:
        ValueError: if any span ends before it starts.
    """
    cleaned = []
    for s, e in spans:
        if e < s:
            raise ValueError(f"backwards span: ({s!r}, {e!r})")
        if e > s:
            cleaned.append((s, e))
    cleaned.sort()
    merged: List[Tuple[float, float]] = []
    for start, end in cleaned:
        if merged and start <= merged[-1][1]:
            prev_start, prev_end = merged[-1]
            merged[-1] = (prev_start, max(prev_end, end))
        else:
            merged.append((start, end))
    return merged


def total_overlap(spans: Iterable[Tuple[float, float]]) -> float:
    """Total wall-clock time covered by at least one span."""
    return sum(e - s for s, e in merge_intervals(spans))


def complement(spans: Iterable[Tuple[float, float]], lo: float, hi: float
               ) -> List[Tuple[float, float]]:
    """Gaps of ``[lo, hi]`` not covered by any span.

    The returned gaps plus ``merge_intervals(spans)`` clipped to
    ``[lo, hi]`` partition the window exactly — the property the uncore
    accountant and the trace invariant checker both rely on.

    Raises:
        ValueError: if any span ends before it starts, or ``hi < lo``.
    """
    if hi < lo:
        raise ValueError(f"empty window: [{lo!r}, {hi!r}]")
    gaps: List[Tuple[float, float]] = []
    cursor = lo
    for start, end in merge_intervals(spans):
        if start > cursor:
            gaps.append((cursor, min(start, hi)))
        cursor = max(cursor, end)
        if cursor >= hi:
            break
    if cursor < hi:
        gaps.append((cursor, hi))
    return gaps
