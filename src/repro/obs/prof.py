"""Exact work counters for the simulator's own hot paths.

Where :class:`~repro.obs.spans.Tracer` observes *simulated* time (what
the modeled cluster did), this module counts the *work* running the
reproduction does: engine events, calendar buckets and entries, driver
stage windows, HDFS loads and block placements.  Every tally is an
exact integer, the same on any host, so a change in a count is a change
in the work — never host noise.  Wall time is measured from outside the
code under test (the bench runner's timer, perfbench's wrappers).

Counting follows the same opt-in handle pattern as the tracer: the
module-level :data:`ACTIVE` handle defaults to ``None`` and every
counting site guards on it, so an uncounted run pays one module
attribute load per site and records nothing — simulation outputs are
byte-identical with counting on or off, because a counter never
schedules, delays or reorders anything.

Usage::

    from repro.obs import prof

    with prof.profiled() as profiler:          # install + auto-uninstall
        simulate_job("atom", "wordcount")
    print(profiler.counts["engine.events"])

Counting sites (all guarded, all coarse — never per event):

* ``sim/engine.py`` — once per ``Simulator.run`` call: events, buckets,
  calendar entries scheduled and cancel skips.
* ``mapreduce/driver.py`` — one per finished stage window and per job.
* ``hdfs/`` — input loads and per-block replica placements.
* ``cluster/datacenter.py`` — one per datacenter run.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Optional

__all__ = ["ACTIVE", "Profiler", "install", "uninstall", "profiled"]

#: The installed profiler, or ``None`` (the default — counting off).
#: Instrumented code reads this through the module (``prof.ACTIVE``) so
#: installation is visible everywhere without threading a handle.
ACTIVE: Optional["Profiler"] = None


class Profiler:
    """One dict of exact work tallies, inert until installed."""

    def __init__(self):
        #: Counter name → tally, insertion-ordered (first-bumped first).
        self.counts: Dict[str, int] = {}

    def count(self, name: str, n: int = 1) -> None:
        """Add *n* to counter *name*."""
        self.counts[name] = self.counts.get(name, 0) + n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Profiler {len(self.counts)} counters>"


def install(profiler: Optional[Profiler] = None) -> Profiler:
    """Make *profiler* (or a fresh one) the active profiler; returns it."""
    global ACTIVE
    if profiler is None:
        profiler = Profiler()
    ACTIVE = profiler
    return profiler


def uninstall() -> Optional[Profiler]:
    """Deactivate counting; returns the profiler that was active."""
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
