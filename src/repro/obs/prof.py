"""Wall-clock phase profiler for the simulator's own host cost.

Where :class:`~repro.obs.spans.Tracer` observes *simulated* time (what
the modeled cluster did), this module observes *wall* time (what running
the reproduction costs the host): how many seconds of real CPU the
engine loop, the driver stages, HDFS placement and the sweep executor
burn, with call counts and p50/p95/p99 latencies per phase.  Each phase
is one :class:`~repro.obs.metrics.LogHistogram`: its ``total`` is the
phase's call count and its ``sum`` the phase's total seconds.

Profiling follows the same opt-in handle pattern as the tracer: the
module-level :data:`ACTIVE` handle defaults to ``None`` and every
instrumentation site guards on it, so an unprofiled run pays one module
attribute load per site and records nothing — simulation outputs are
byte-identical with profiling on or off, because the profiler only ever
*reads* the wall clock and never schedules, delays or reorders anything.

Usage::

    from repro.obs import prof

    with prof.profiled() as profiler:          # install + auto-uninstall
        simulate_job("atom", "wordcount")
        with profiler.phase("my.block"):       # ad-hoc block timing
            ...
    print(profiler.render())

Instrumented sites (all guarded, all coarse — never per-chunk):

* ``sim/engine.py`` — the unified dispatch loop checks ``prof.ACTIVE``
  once per call and, when on, batches ``perf_counter`` reads over
  :data:`DISPATCH_BATCH` events, recording per-event dispatch latency
  and queue-op counts at < 1% overhead (there is no separate profiled
  loop body to drift out of sync).
* ``mapreduce/driver.py`` — per-stage setup/map/reduce/cleanup wall
  windows plus whole-job run, uncore accounting and energy folding.
* ``hdfs/`` — input loading and per-block replica placement.
* ``analysis/executor.py`` — cache get/put, serial cell simulation,
  pool submit and drain.

Thread safety: recording takes a single lock per (phase, record) —
coarse phases make this cheap — so worker threads and the main thread
can share one profiler.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Optional

from .metrics import LogHistogram

__all__ = ["ACTIVE", "Profiler", "install", "uninstall", "profiled"]

#: Events per ``perf_counter`` read in the engine's profiled dispatch
#: loop: large enough that timing cost vanishes, small enough that the
#: dispatch-latency histogram still sees scheduling texture.
DISPATCH_BATCH = 256

#: The installed profiler, or ``None`` (the default — profiling off).
#: Instrumented code reads this through the module (``prof.ACTIVE``) so
#: installation is visible everywhere without threading a handle.
ACTIVE: Optional["Profiler"] = None


class Profiler:
    """Collects one :class:`LogHistogram` per instrumented phase.

    Like the tracer, a profiler is inert until installed (see
    :func:`install` / :func:`profiled`); unlike the tracer it reads the
    *wall* clock, so its numbers are host-specific and never feed back
    into any simulation output.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._lock = threading.Lock()
        self._phases: Dict[str, LogHistogram] = {}
        #: Scalar tallies with no duration (events, buckets, calendar
        #: entries scheduled, cancel skips).
        self.meta: Dict[str, float] = {}

    # -- recording -------------------------------------------------------
    def record(self, name: str, seconds: float, calls: int = 1) -> None:
        """Record *seconds* of wall time covering *calls* of phase *name*.

        Batched recording (``calls > 1``) attributes the *mean* per-call
        latency to the histogram with weight ``calls`` and the exact
        *seconds* to its sum — how the engine loop reports per-event
        dispatch cost without a clock read per event.
        """
        with self._lock:
            hist = self._phases.get(name)
            if hist is None:
                hist = self._phases[name] = LogHistogram()
            hist.record(seconds / calls if calls > 1 else seconds, calls,
                        total=seconds)

    def count(self, name: str, n: float = 1) -> None:
        """Bump a scalar meta counter (no time dimension)."""
        with self._lock:
            self.meta[name] = self.meta.get(name, 0) + n

    @contextmanager
    def phase(self, name: str):
        """Time a block as one call of phase *name*."""
        t0 = self.clock()
        try:
            yield self
        finally:
            self.record(name, self.clock() - t0)

    # -- introspection ---------------------------------------------------
    @property
    def phases(self) -> Dict[str, LogHistogram]:
        """Name → histogram, insertion-ordered (first-recorded first)."""
        return self._phases

    def get(self, name: str) -> Optional[LogHistogram]:
        return self._phases.get(name)

    def merge(self, other: "Profiler") -> None:
        """Fold *other*'s phases and meta counters into this profiler."""
        with self._lock:
            for name, hist in other._phases.items():
                mine = self._phases.get(name)
                if mine is None:
                    mine = self._phases[name] = LogHistogram()
                mine.merge(hist)
            for name, n in other.meta.items():
                self.meta[name] = self.meta.get(name, 0) + n

    def _hottest_first(self):
        return sorted(self._phases.items(),
                      key=lambda item: (-item[1].sum, item[0]))

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly snapshot, phases sorted by total time desc."""
        return {
            "phases": {name: {
                "calls": hist.total,
                "total_s": hist.sum,
                "mean_s": _mean(hist),
                "min_s": hist.min,
                "max_s": hist.max,
                "p50_s": hist.percentile(50.0),
                "p95_s": hist.percentile(95.0),
                "p99_s": hist.percentile(99.0),
            } for name, hist in self._hottest_first()},
            "meta": dict(sorted(self.meta.items())),
        }

    def render(self) -> str:
        """Terminal table: one row per phase, hottest first."""
        lines = [f"{'phase':<28s} {'calls':>9s} {'total':>10s} "
                 f"{'mean':>10s} {'p50':>10s} {'p95':>10s} {'p99':>10s}"]
        for name, hist in self._hottest_first():
            lines.append(
                f"{name:<28s} {hist.total:>9d} "
                f"{hist.sum:>9.4f}s {_si(_mean(hist)):>10s} "
                f"{_si(hist.percentile(50.0)):>10s} "
                f"{_si(hist.percentile(95.0)):>10s} "
                f"{_si(hist.percentile(99.0)):>10s}")
        if self.meta:
            lines.append("")
            for name in sorted(self.meta):
                lines.append(f"{name:<28s} {self.meta[name]:>9.0f}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Profiler {len(self._phases)} phases>"


def _mean(hist: LogHistogram) -> float:
    return hist.sum / hist.total if hist.total else 0.0


def _si(seconds: float) -> str:
    """Human duration: 1.23s / 45.6ms / 789us / 12ns."""
    if seconds >= 1.0:
        return f"{seconds:.3f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.1f}ms"
    if seconds >= 1e-6:
        return f"{seconds * 1e6:.1f}us"
    return f"{seconds * 1e9:.0f}ns"


# -- installation --------------------------------------------------------
def install(profiler: Optional[Profiler] = None) -> Profiler:
    """Make *profiler* (or a fresh one) the active profiler; returns it."""
    global ACTIVE
    if profiler is None:
        profiler = Profiler()
    ACTIVE = profiler
    return profiler


def uninstall() -> Optional[Profiler]:
    """Deactivate profiling; returns the profiler that was active."""
    global ACTIVE
    previous, ACTIVE = ACTIVE, None
    return previous


@contextmanager
def profiled(profiler: Optional[Profiler] = None):
    """Context manager: install on entry, restore the previous on exit."""
    global ACTIVE
    previous = ACTIVE
    active = install(profiler)
    try:
        yield active
    finally:
        ACTIVE = previous
