"""Discrete-event simulation kernel.

This module implements a small, deterministic, generator-based
discrete-event engine in the style of SimPy, purpose-built for the Hadoop
cluster simulator.  Processes are plain Python generators that ``yield``
:class:`Event` objects; the engine resumes a process when the event it is
waiting on fires.

Design goals:

* **Determinism** — events scheduled for the same timestamp fire in FIFO
  order of scheduling, so simulations are exactly reproducible.
* **No global state** — every entity hangs off a :class:`Simulator`
  instance; multiple simulations can run side by side.
* **Introspection** — the engine counts events and exposes the current
  simulated time, which the power model and the trace recorder build on.
* **Throughput** — dispatch is the hot path under every experiment, so
  the queue and the per-event footprint are built for speed (see below).

Queue layout
------------
The ready queue is a *calendar* of buckets: a dict mapping each distinct
timestamp to the list of events scheduled at it (in scheduling order),
plus a heap of the distinct timestamps.  The dict opens its own buckets
(:class:`Calendar`), so scheduling at time ``t`` is the one line
``sim.calendar[t].append(x)``: a dict lookup and a list append, with the
heap touched only when a timestamp is first seen.  Dispatch pops the
earliest timestamp and drains
its bucket in append order; the bucket stays in the dict while it drains,
so an event scheduled at the current time from a callback joins the list
being drained instead of opening a new bucket.  That is exactly the
FIFO-per-timestamp order the old ``(time, seq, event)`` tuple heap
produced, without allocating a triple per event or paying tuple
comparisons that fall through to the sequence number whenever
timestamps collide (the common case in a heartbeat-driven simulation,
and precisely where a tuple heap is slowest).

Most calendar traffic is data-path scaffolding that nothing waits on
(device grants and completions, HDFS legs and fan-outs, the steps of
a task attempt).  Such a step is an :class:`Entry` its owner
re-posts, into exactly the bucket
position an event would have taken, so it allocates nothing and moves
nothing.  :meth:`Simulator.post` checks the entry and its delay; the
data path's hot sites post in place (set ``entry.callbacks``, then
append), their values checked where they enter the model.  Events
remain where a process waits, a value travels or a cancel can happen.

Cancelled events are *lazily deleted*: they stay in their bucket and are
skipped at dispatch.  The model keeps that dead weight small: a
cancelled speculation poll leaves the calendar within one poll period,
and crash watchers number at most the planned crashes.

:meth:`Simulator.run` is the one loop body and the one way through the
calendar: it drains it to empty.  With a work counter installed
(:mod:`repro.obs.prof`) it tallies its events, buckets and calendar
entries once per call, never per event.

Example
-------
>>> sim = Simulator()
>>> log = []
>>> def worker(sim, name, delay):
...     yield sim.timeout(delay)
...     log.append((sim.now, name))
>>> _ = sim.process(worker(sim, "a", 2.0))
>>> _ = sim.process(worker(sim, "b", 1.0))
>>> _ = sim.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import islice
from math import inf
from operator import length_hint
from typing import Any, Callable, Generator, Iterable, List, Optional

from ..obs import prof

__all__ = [
    "Calendar",
    "Entry",
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AnyOf",
    "Simulator",
    "SimulationError",
]

class SimulationError(RuntimeError):
    """Raised for violations of engine invariants (e.g. a negative delay)."""


class Calendar(dict):
    """time -> bucket of calendar entries, in scheduling order.

    A subscript on a time with no bucket opens one: the time goes onto
    the :attr:`times` heap and a fresh list is returned, so
    ``calendar[t].append(x)`` schedules *x* at *t*.  That line is the one
    way to read it by subscript outside :meth:`Simulator.run`'s bucket
    adoption (a read for any other purpose would open a bucket).
    """

    __slots__ = ("times",)

    def __init__(self) -> None:
        super().__init__()
        #: Min-heap of distinct bucket times, one entry per bucket.
        self.times: List[float] = []

    def __missing__(self, when: float) -> list:
        heappush(self.times, when)
        bucket = self[when] = []
        return bucket


class Entry:
    """A calendar entry its owner posts again for each step it takes.

    Not an :class:`Event`: no value, exception, triggered or cancelled
    state, and nothing waits on it.  :meth:`Simulator.post` runs the
    given callback once, with the entry as its argument.  An entry is
    in the calendar at most once at a time, so its owner re-posts it
    from that callback or later.  Subclasses add ``__slots__``.
    """

    __slots__ = ("callbacks", "_processed")

    #: Read by dispatch's cancel check; an entry is never cancelled.
    _cancelled = False

    def __init__(self) -> None:
        self.callbacks: Optional[Callable[[Any], None]] = None


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *untriggered*; calling :meth:`succeed` (or
    :meth:`fail`) schedules it to fire immediately.  Firing invokes every
    registered callback exactly once, in registration order.

    The ``callbacks`` slot is protocol-compressed to keep the per-event
    footprint small: ``None`` means no callbacks registered yet, a bare
    callable means exactly one, and a list means several.  The waiting
    pattern is overwhelmingly one-callback-per-event (a process resuming
    on a timeout), so the common case allocates nothing.  "Already
    processed" is tracked by the ``_processed`` flag, not by the
    callbacks slot.
    """

    __slots__ = ("sim", "callbacks", "_triggered", "_processed", "value",
                 "_exc", "_cancelled")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.callbacks: Any = None
        self._triggered = False
        self._processed = False
        self.value: Any = None
        self._exc: Optional[BaseException] = None
        self._cancelled = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been scheduled to fire."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once callbacks have run."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event fired successfully (no exception)."""
        return self._triggered and self._exc is None

    @property
    def exception(self) -> Optional[BaseException]:
        """The exception the event failed with, if any."""
        return self._exc

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` has been called."""
        return self._cancelled

    # -- cancellation --------------------------------------------------
    def cancel(self) -> None:
        """Discard a scheduled-but-unfired event without running it.

        The engine skips cancelled events entirely: callbacks never run
        and — crucially for :class:`Timeout` — the simulation clock does
        **not** advance to the event's scheduled time.  This is how the
        fault machinery retires pending crash watchers once a job
        finishes, so recovery scaffolding can never inflate a makespan.
        Cancelling an already-processed event is a no-op.

        Cancelled events are lazily deleted: they stay in their calendar
        bucket until dispatch skips over them.
        """
        if self._processed:
            return
        sim = self.sim
        if not self._cancelled:
            self._cancelled = True
            if self._triggered:
                # Scheduled and now dead weight in its bucket.
                sim._cancelled_pending += 1
        if sim.obs is not None:
            sim.obs.count("engine.cancels")

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Schedule this event to fire at the current simulation time."""
        if self._triggered:
            raise SimulationError("event already triggered")
        if self._cancelled:
            raise SimulationError(
                "cannot succeed a cancelled event: the engine would "
                "silently skip it and strand every waiter")
        self._triggered = True
        self.value = value
        sim = self.sim
        sim.calendar[sim.now].append(self)
        return self

    def fail(self, exc: BaseException) -> "Event":
        """Schedule this event to fire with an exception.

        The exception is re-raised inside every waiting process.
        """
        if self._triggered:
            raise SimulationError("event already triggered")
        if self._cancelled:
            raise SimulationError(
                "cannot fail a cancelled event: the engine would "
                "silently skip it and strand every waiter")
        self._triggered = True
        self._exc = exc
        sim = self.sim
        sim.calendar[sim.now].append(self)
        return self

    def fire(self, exc: Optional[BaseException] = None) -> None:
        """Trigger the event and run its callbacks now, in this frame.

        Nothing enters the calendar: a waiting process resumes (with
        *exc* thrown into it, if given) before ``fire`` returns.
        """
        if self._triggered:
            raise SimulationError("event already triggered")
        if self._cancelled:
            raise SimulationError(
                "cannot fire a cancelled event: the engine would "
                "silently skip it and strand every waiter")
        self._triggered = True
        self._exc = exc
        self._processed = True
        cbs = self.callbacks
        if cbs is not None:
            self.callbacks = None
            if cbs.__class__ is list:
                for cb in cbs:
                    cb(self)
            else:
                cbs(self)

    # -- engine hooks ----------------------------------------------------
    def add_callback(self, cb: Callable[["Event"], None]) -> None:
        """Register *cb* to run when the event fires.

        If the event has already been processed the callback runs
        immediately (synchronously), preserving exactly-once semantics.
        """
        if self._processed:
            cb(self)
            return
        cbs = self.callbacks
        if cbs is None:
            self.callbacks = cb
        elif cbs.__class__ is list:
            cbs.append(cb)
        else:
            self.callbacks = [cbs, cb]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "processed" if self._processed else (
            "triggered" if self._triggered else "pending")
        return f"<{type(self).__name__} {state} at t={self.sim.now}>"


class Timeout(Event):
    """An event that fires after a fixed simulated delay.

    Created only by :meth:`Simulator.timeout`, which builds it in place.
    """

    __slots__ = ()

    # Class-level constants shadowing Event's slot descriptors: a Timeout
    # is born triggered and cannot fail before firing (``fail`` raises on
    # triggered events first), so reads resolve on the class and
    # the factory skips two per-instance stores.  Writing either through
    # an instance would now raise — nothing does.
    _triggered = True
    _exc = None

    def __init__(self, *_args, **_kwargs):
        raise TypeError("create a Timeout with Simulator.timeout()")


class Process(Event):
    """A running generator; also an event that fires when it finishes.

    The wrapped generator yields :class:`Event` instances.  When a yielded
    event fires, the generator is resumed with the event's ``value`` (or
    the event's exception is thrown into it).  The return value of the
    generator becomes the value of the process-completion event.
    Created only by :meth:`Simulator.process`, which builds it in place.
    """

    #: ``target`` is the event the process waits on (after an
    #: interrupt, the interrupt's own event), or None before its first
    #: resume and once it has finished.  A plain slot, read by callback
    #: code on its hot path; only the engine writes it.
    __slots__ = ("generator", "target", "_resume_cb", "_send", "_throw")

    def __init__(self, *_args, **_kwargs):
        raise TypeError("create a Process with Simulator.process()")

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    def _resume(self, event: Event) -> None:
        if self._triggered:
            return  # process already finished (e.g. interrupted earlier)
        waiting = self.target
        if waiting is not None and event is not waiting:
            return  # stale wakeup from an event we stopped waiting on
        # (target is left pointing at *event* — it fired, so the
        # stale guard never matches it again; clearing it here would be
        # a pure hot-path store.)
        sim = self.sim
        if sim.obs is not None:
            sim.obs.count("engine.process_wakes")
        sim.active_process = self
        try:
            exc = event._exc
            if exc is not None:
                target = self._throw(exc)
            else:
                target = self._send(event.value)
        except StopIteration as stop:
            sim.active_process = None
            # Inlined ``self.succeed(stop.value)`` — the generator
            # finished.  ``_triggered`` is invariantly False here (the
            # guard at the top returned otherwise), so only the
            # cancelled check survives from succeed().
            if self._cancelled:
                raise SimulationError(
                    "cannot succeed a cancelled event: the engine would "
                    "silently skip it and strand every waiter") from None
            self._triggered = True
            self.value = stop.value
            # A finished process waits on nothing.  Its last target may
            # be a delivered interrupt, whose traceback holds the frame
            # that refers back to the process: a reference cycle.  The
            # stale-wakeup guard above returns on ``_triggered`` first,
            # so it never reads the cleared slot.
            self.target = None
            sim.calendar[sim.now].append(self)
            return
        except BaseException as exc:
            sim.active_process = None
            # Propagate crash to anyone waiting on this process; if nobody
            # is waiting, re-raise so bugs do not pass silently.
            if self.callbacks:
                self.fail(exc)
                self.target = None
                return
            raise
        sim.active_process = None
        # Duck-typed yield validation: reading ``.sim`` doubles as the
        # is-it-an-Event check, so the fast path pays one attribute load
        # instead of an isinstance call per yield.
        try:
            foreign = target.sim is not sim
        except AttributeError:
            raise SimulationError(
                f"process yielded {type(target).__name__}, "
                f"expected an Event") from None
        if foreign:
            raise SimulationError(
                "process yielded an event from another simulator")
        self.target = target
        # Inlined Event.add_callback (the per-yield hot path).
        if target._processed:
            self._resume(target)
            return
        cbs = target.callbacks
        if cbs is None:
            target.callbacks = self._resume_cb
        elif cbs.__class__ is list:
            cbs.append(self._resume_cb)
        else:
            target.callbacks = [cbs, self._resume_cb]

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The event the process was waiting on is abandoned; its eventual
        firing is ignored by the stale-wakeup guard in :meth:`_resume`.
        """
        if not self.is_alive:
            return
        if self.sim.obs is not None:
            self.sim.obs.count("engine.interrupts")
            self.sim.obs.instant("interrupt", ("engine", "process"),
                                 cat="engine", cause=str(cause))
        intr = Event(self.sim)
        self.target = intr
        intr.callbacks = self._resume_cb
        intr.fail(Interrupt(cause))


class Interrupt(Exception):
    """Raised inside a process that was interrupted."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class AnyOf(Event):
    """Fires as soon as one child event fires; value is ``(index, value)``."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        events = list(events)
        if not events:
            raise SimulationError("AnyOf requires at least one event")
        for index, event in enumerate(events):
            event.add_callback(self._make_callback(index))

    def _make_callback(self, index: int) -> Callable[[Event], None]:
        def _cb(event: Event) -> None:
            if self._triggered:
                return
            if event._exc is not None:
                self.fail(event._exc)
            else:
                self.succeed((index, event.value))
        return _cb


class Simulator:
    """The event loop over a calendar queue of per-timestamp buckets.

    ``now`` is a plain attribute (it is read on essentially every line of
    model code, and a property costs a descriptor call per read); treat
    it as read-only outside the engine.  Counters:

    * ``event_count`` — events dispatched (flushed per call, exact
      whenever :meth:`run` is not mid-dispatch),
    * ``pending`` — *live* scheduled-but-unfired events and entry
      posts: lazily-deleted cancelled events are excluded, so backlog
      metrics do not over-report after fault recovery.

    ``active_process`` is the :class:`Process` whose generator is
    running, or None: code called from a process step finds its process
    there.
    """

    __slots__ = ("now", "event_count", "obs", "active_process", "calendar",
                 "_cancelled_pending", "_draining", "_cursor")

    def __init__(self):
        #: Current simulated time in seconds.
        self.now = 0.0
        #: time -> [events scheduled at that time, in scheduling order]
        self.calendar = Calendar()
        self._cancelled_pending = 0   # cancelled events still in a bucket
        #: The bucket ``run()`` is draining (still in the calendar, so
        #: same-time events append to it), or None.  A callback that
        #: raises leaves it set, which stops any later ``run()``.
        self._draining = None
        #: The iterator draining it: its remaining length is the
        #: bucket's unconsumed rest (see :attr:`pending`).
        self._cursor = None
        self.active_process: Optional[Process] = None
        self.event_count = 0
        #: Optional :class:`repro.obs.Tracer`; every instrumentation site
        #: in the simulator guards on ``obs is not None``, so an untraced
        #: run pays one attribute load per site and records nothing.
        self.obs = None

    # -- factories -------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` seconds from now.

        The event is built in place (via ``__new__``), with no
        ``__init__`` frame: this is the single hottest allocation site
        in any run.  A negative, infinite or NaN *delay* raises
        :class:`SimulationError`.
        """
        # One chained comparison rejects negatives, infinities and NaN.
        if not 0.0 <= delay < inf:
            raise SimulationError(f"negative timeout delay, infinity or "
                                  f"NaN: {delay!r}")
        event = Timeout.__new__(Timeout)
        event.sim = self
        event.callbacks = None
        event._processed = False
        event.value = value
        event._cancelled = False
        self.calendar[self.now + delay].append(event)
        return event

    def process(self, generator: Generator) -> Process:
        """Launch *generator* as a process; returns its completion event.

        Built in place like :meth:`timeout`: task attempts, heartbeats and
        watchers all funnel through here, making it the second-hottest
        factory.  The process first resumes from a boot event at the
        current time.
        """
        event = Process.__new__(Process)
        event.sim = self
        event.callbacks = None
        event._triggered = False
        event._processed = False
        event.value = None
        event._exc = None
        event._cancelled = False
        event.generator = generator
        event.target = None
        # One bound method each, created once: every resume re-uses them
        # instead of allocating fresh bound methods per yield (and the
        # send/throw lookup doubles as the is-it-a-generator check).
        try:
            event._send = generator.send
            event._throw = generator.throw
        except AttributeError:
            raise SimulationError(
                f"process target must be a generator, "
                f"got {type(generator).__name__}") from None
        event._resume_cb = resume = event._resume
        boot = Event.__new__(Event)
        boot.sim = self
        boot.callbacks = resume
        boot._triggered = True
        boot._processed = False
        boot.value = None
        boot._exc = None
        boot._cancelled = False
        self.calendar[self.now].append(boot)
        return event

    def post(self, entry: Entry, callback: Callable[[Any], None],
             delay: Optional[float] = None) -> None:
        """Put *entry* in the calendar; ``callback(entry)`` runs when it fires.

        Without *delay* the entry lands where :meth:`Event.succeed`
        would, with one where ``timeout(delay)`` would, so callback code
        takes a process's calendar positions step for step.  A negative,
        infinite or NaN *delay*, or an entry already in the calendar,
        raises :class:`SimulationError`.
        """
        if entry.callbacks is not None:
            raise SimulationError("entry is already in the calendar")
        if delay is None:
            when = self.now
        elif 0.0 <= delay < inf:
            when = self.now + delay
        else:
            raise SimulationError(f"negative post delay, infinity or "
                                  f"NaN: {delay!r}")
        entry.callbacks = callback
        self.calendar[when].append(entry)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when the first of *events* fires."""
        return AnyOf(self, events)

    # -- the loop --------------------------------------------------------
    def run(self) -> float:
        """Fire every scheduled event, in order, until the calendar is empty.

        Drains calendar buckets in time order, firing each bucket's
        events in scheduling order — bit-for-bit the (time, seq) order of
        the engine's original tuple heap.  Cancelled events are skipped
        without moving the clock, so a calendar whose tail holds only
        cancelled events leaves ``now`` at the last fired event.
        Returns the final simulated time.  With a work counter installed
        (``repro.obs.prof``) the call also tallies its events, buckets,
        calendar entries and cancel skips; counting never changes the
        model.

        The bucket being drained stays in the calendar (see the module
        docstring).  An exception from a callback propagates out of
        ``run()`` with ``event_count`` and the tallies exact; the
        calendar keeps the unfired rest of the bucket, and any later
        ``run()`` raises :class:`SimulationError` instead of resuming.

        Hot-path notes: everything touched per event is a local; the
        fired count flushes to ``event_count`` per call (``finally``);
        ``pending`` is exact at any time, inside callbacks too.
        """
        if self._draining is not None:
            raise SimulationError(
                "run() cannot resume a calendar that a raising callback "
                "left mid-bucket, nor be re-entered from a callback")
        buckets = self.calendar
        times = buckets.times
        pop = heappop
        profiler = prof.ACTIVE
        fired = 0
        skipped = 0
        adopted = 0
        it = None
        bskip = 0
        if profiler is not None:
            entries0 = self._queue_entries()
        try:
            while times:
                # -- adopt the next bucket --------------------------------
                # (the calendar's one subscript read: the bucket exists)
                when = pop(times)
                bucket = buckets[when]
                adopted += 1
                if bucket[0]._cancelled:
                    # Strip leading cancelled events *before* committing
                    # the clock: a bucket holding only cancelled events
                    # must not advance ``now`` to its time.
                    pos, n = 0, len(bucket)
                    while pos < n and bucket[pos]._cancelled:
                        pos += 1
                    self._cancelled_pending -= pos
                    skipped += pos
                    if pos == n:
                        del buckets[when]
                        continue
                    bucket = buckets[when] = bucket[pos:]
                self.now = when
                self._draining = bucket
                bskip = 0
                it = self._cursor = iter(bucket)
                # -- drain it (the per-event hot path) --------------------
                for event in it:
                    if event._cancelled:
                        bskip += 1
                        continue
                    event._processed = True
                    cbs = event.callbacks
                    if cbs is not None:
                        event.callbacks = None
                        if cbs.__class__ is list:
                            for cb in cbs:
                                cb(event)
                        else:
                            cbs(event)
                it = None
                # Fired/skip counts are tallied per bucket, not per
                # event: the hot loop stays free of counter bumps.
                fired += len(bucket) - bskip
                if bskip:
                    self._cancelled_pending -= bskip
                    skipped += bskip
                del buckets[when]
            self._draining = None
        finally:
            if it is not None:
                # A callback raised mid-bucket: everything consumed from
                # the iterator fired or was skipped; the unfired rest,
                # events appended during the drain included, stays in
                # the calendar as the (still set) draining bucket.
                rest = list(it)
                fired += len(bucket) - bskip - len(rest)
                self._cancelled_pending -= bskip
                skipped += bskip
                buckets[when] = self._draining = rest
                self._cursor = iter(rest)   # nothing of it consumed
            self.event_count += fired
            if profiler is not None:
                count = profiler.count
                count("engine.run.calls")
                count("engine.events", fired)
                count("engine.buckets", adopted)
                # Calendar entries scheduled during this call,
                # reconstructed from conservation: every entry that
                # entered the calendar either fired, was skipped as
                # cancelled, or is still queued.  (The schedule sites
                # themselves stay free of counting bookkeeping.)
                count("engine.heap_pushes",
                      fired + skipped + self._queue_entries() - entries0)
                if skipped:
                    count("engine.cancel_skips", skipped)
        return self.now

    # -- introspection ---------------------------------------------------
    def _queue_entries(self) -> int:
        """Total events in the calendar, cancelled included (O(buckets))."""
        return sum(map(len, self.calendar.values()))

    @property
    def pending(self) -> int:
        """Number of *live* scheduled-but-unfired events and entry posts.

        Lazily-deleted cancelled events still sitting in the calendar are
        excluded, so backlog metrics cannot over-report after fault
        recovery retires its crash watchers.  Read from a callback, it
        counts the rest of the bucket being drained, as the draining
        iterator's remaining length, so an entry re-posted into it
        counts once.  O(number of distinct pending timestamps plus the
        draining bucket) — an introspection aid, not a hot path.
        """
        count = self._queue_entries() - self._cancelled_pending
        draining = self._draining
        if draining is not None:
            consumed = len(draining) - length_hint(self._cursor)
            # Cancelled events in the consumed prefix are still in
            # ``_cancelled_pending`` (run() settles it per bucket).
            count -= consumed - sum(
                event._cancelled for event in islice(draining, consumed))
        return count
