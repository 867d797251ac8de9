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
plus a heap of the distinct timestamps.  Scheduling an event is a dict
lookup and a list append — the heap is only touched when a timestamp is
seen for the first time.  Dispatch pops the earliest timestamp and drains
its bucket in append order; the bucket stays in the dict while it drains,
so an event scheduled at the current time from a callback joins the list
being drained instead of opening a new bucket.  That is exactly the
FIFO-per-timestamp order the old ``(time, seq, event)`` tuple heap
produced, without allocating a triple per event or paying tuple
comparisons that fall through to the sequence number whenever
timestamps collide (the common case in a heartbeat-driven simulation,
and precisely where a tuple heap is slowest).

Cancelled events are *lazily deleted*: they stay in their bucket and are
skipped at dispatch.  So that long datacenter runs cannot bloat the
calendar with retired crash watchers, :meth:`Event.cancel` triggers an
in-place compaction sweep once cancelled entries both exceed a fixed
threshold and outnumber live ones.

:meth:`Simulator.run` is the one loop body; with a work counter
installed (:mod:`repro.obs.prof`) it tallies its events, buckets and
calendar entries once per call, never per event.

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

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Generator, Iterable, List, Optional

from ..obs import prof

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "AllOf",
    "AnyOf",
    "Simulator",
    "SimulationError",
]

_INF = float("inf")

#: Lazy-deleted (cancelled) events trigger a calendar compaction sweep
#: once they number at least this many *and* outnumber live events.
COMPACT_THRESHOLD = 256


class SimulationError(RuntimeError):
    """Raised for violations of engine invariants (e.g. time travel)."""


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
        bucket until dispatch skips over them, or until enough accumulate
        (at least :data:`COMPACT_THRESHOLD`, and more than the live count
        seen by the previous sweep) to trigger an in-place compaction.
        """
        if self._processed:
            return
        sim = self.sim
        if not self._cancelled:
            self._cancelled = True
            if self._triggered:
                # Scheduled and now dead weight in its bucket.
                n = sim._cancelled_pending + 1
                sim._cancelled_pending = n
                if n >= sim._compact_at:
                    sim._compact()
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
        when = sim.now
        try:
            sim._buckets[when].append(self)
        except KeyError:
            sim._buckets[when] = [self]
            heappush(sim._times, when)
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
        when = sim.now
        try:
            sim._buckets[when].append(self)
        except KeyError:
            sim._buckets[when] = [self]
            heappush(sim._times, when)
        return self

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

    ``__init__`` is the single biggest allocator in any run, so it is
    fully inlined: no ``super().__init__`` call, scheduling folded in.
    """

    __slots__ = ("delay",)

    # Class-level constants shadowing Event's slot descriptors: a Timeout
    # is born triggered and cannot fail before firing (``fail`` raises on
    # triggered events first), so reads resolve on the class and
    # ``__init__`` skips two per-instance stores.  Writing either through
    # an instance would now raise — nothing does.
    _triggered = True
    _exc = None

    def __init__(self, sim: "Simulator", delay: float, value: Any = None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        self.sim = sim
        self.callbacks = None
        self._processed = False
        self.value = value
        self._cancelled = False
        self.delay = delay
        when = sim.now + delay
        buckets = sim._buckets
        try:
            buckets[when].append(self)
        except KeyError:
            buckets[when] = [self]
            heappush(sim._times, when)


class Process(Event):
    """A running generator; also an event that fires when it finishes.

    The wrapped generator yields :class:`Event` instances.  When a yielded
    event fires, the generator is resumed with the event's ``value`` (or
    the event's exception is thrown into it).  The return value of the
    generator becomes the value of the process-completion event.
    """

    __slots__ = ("generator", "_waiting_on", "_resume_cb", "_send", "_throw")

    def __init__(self, sim: "Simulator", generator: Generator):
        self.sim = sim
        self.callbacks = None
        self._triggered = False
        self._processed = False
        self.value = None
        self._exc = None
        self._cancelled = False
        self.generator = generator
        self._waiting_on: Optional[Event] = None
        # One bound method each, created once: every resume re-uses them
        # instead of allocating fresh bound methods per yield (and the
        # send/throw lookup doubles as the is-it-a-generator check).
        try:
            self._send = generator.send
            self._throw = generator.throw
        except AttributeError:
            raise SimulationError(
                f"process target must be a generator, "
                f"got {type(generator).__name__}") from None
        self._resume_cb = resume = self._resume
        # Bootstrap: resume once the engine starts / at the current time.
        # (Inline Event construction + scheduling: one boot per process.)
        boot = Event.__new__(Event)
        boot.sim = sim
        boot.callbacks = resume
        boot._triggered = True
        boot._processed = False
        boot.value = None
        boot._exc = None
        boot._cancelled = False
        when = sim.now
        try:
            sim._buckets[when].append(boot)
        except KeyError:
            sim._buckets[when] = [boot]
            heappush(sim._times, when)

    @property
    def is_alive(self) -> bool:
        """True while the generator has not finished."""
        return not self._triggered

    def _resume(self, event: Event) -> None:
        if self._triggered:
            return  # process already finished (e.g. interrupted earlier)
        waiting = self._waiting_on
        if waiting is not None and event is not waiting:
            return  # stale wakeup from an event we stopped waiting on
        # (_waiting_on is left pointing at *event* — it fired, so the
        # stale guard never matches it again; clearing it here would be
        # a pure hot-path store.)
        sim = self.sim
        if sim.obs is not None:
            sim.obs.count("engine.process_wakes")
        try:
            exc = event._exc
            if exc is not None:
                target = self._throw(exc)
            else:
                target = self._send(event.value)
        except StopIteration as stop:
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
            when = sim.now
            try:
                sim._buckets[when].append(self)
            except KeyError:
                sim._buckets[when] = [self]
                heappush(sim._times, when)
            return
        except BaseException as exc:
            # Propagate crash to anyone waiting on this process; if nobody
            # is waiting, re-raise so bugs do not pass silently.
            if self.callbacks:
                self.fail(exc)
                return
            raise
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
        self._waiting_on = target
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
        self._waiting_on = intr
        intr.callbacks = self._resume_cb
        intr.fail(Interrupt(cause))


class Interrupt(Exception):
    """Raised inside a process that was interrupted."""

    def __init__(self, cause: Any = None):
        super().__init__(cause)
        self.cause = cause


class AllOf(Event):
    """Fires when every child event has fired; value is a list of values.

    One bound-method callback serves every child; the values are read
    from the children when the last one fires.
    """

    __slots__ = ("_pending", "_events")

    def __init__(self, sim: "Simulator", events: Iterable[Event]):
        super().__init__(sim)
        events = list(events)
        self._events = events
        self._pending = len(events)
        if not events:
            self.succeed([])
            return
        child_fired = self._child_fired
        for event in events:
            event.add_callback(child_fired)

    def _child_fired(self, event: Event) -> None:
        if self._triggered:
            return
        if event._exc is not None:
            self.fail(event._exc)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed([child.value for child in self._events])


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

    * ``event_count`` — events dispatched (flushed per bucket, exact
      whenever :meth:`run` is not mid-dispatch),
    * ``pending`` — *live* scheduled-but-unfired events: lazily-deleted
      cancelled events are excluded, so backlog metrics do not
      over-report after fault recovery.
    """

    __slots__ = ("now", "event_count", "obs", "_buckets", "_times",
                 "_cancelled_pending", "_retired", "_compact_at", "_front",
                 "_draining")

    def __init__(self):
        #: Current simulated time in seconds.
        self.now = 0.0
        #: time -> [events scheduled at that time, in scheduling order]
        self._buckets = {}
        #: Min-heap of distinct bucket times.  May hold stale entries
        #: (bucket emptied by compaction or drained); dispatch drops
        #: those on contact.
        self._times: List[float] = []
        self._cancelled_pending = 0   # cancelled events still in a bucket
        self._retired = 0             # cancelled events removed again
        self._compact_at = COMPACT_THRESHOLD
        #: Partially drained front bucket left by a callback exception:
        #: ``(time, [unfired events])`` or None.
        self._front = None
        #: The bucket ``run()`` is draining (still in ``_buckets``, so
        #: same-time events append to it), or None.
        self._draining = None
        self.event_count = 0
        #: Optional :class:`repro.obs.Tracer`; every instrumentation site
        #: in the simulator guards on ``obs is not None``, so an untraced
        #: run pays one attribute load per site and records nothing.
        self.obs = None

    # -- factories -------------------------------------------------------
    def event(self) -> Event:
        """Create a fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None,
                callback: Optional[Callable[[Event], None]] = None
                ) -> Timeout:
        """Create an event firing ``delay`` seconds from now.

        *callback*, if given, becomes the event's only callback.  Mirrors
        ``Timeout.__init__`` body-for-body (via ``__new__``) to shed one
        call frame: this is the single hottest allocation site in any
        run, and the frame was ~15% of bare dispatch throughput.
        """
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        event = Timeout.__new__(Timeout)
        event.sim = self
        event.callbacks = callback
        event._processed = False
        event.value = value
        event._cancelled = False
        event.delay = delay
        when = self.now + delay
        buckets = self._buckets
        try:
            buckets[when].append(event)
        except KeyError:
            buckets[when] = [event]
            heappush(self._times, when)
        return event

    def process(self, generator: Generator) -> Process:
        """Launch *generator* as a process; returns its completion event.

        Mirrors ``Process.__init__`` body-for-body (via ``__new__``) to
        shed one call frame — task attempts, heartbeats and watchers all
        funnel through here, making it the second-hottest factory after
        :meth:`timeout`.
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
        event._waiting_on = None
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
        when = self.now
        try:
            self._buckets[when].append(boot)
        except KeyError:
            self._buckets[when] = [boot]
            heappush(self._times, when)
        return event

    def schedule(self, callback: Callable[[Event], None],
                 value: Any = None) -> Event:
        """Run *callback* from an event of its own at the current time.

        The event carries *value* and lands at the back of the current
        timestamp's bucket — where a process's boot event or
        :meth:`Event.succeed` would land — so callback-driven code can
        take the place of a process step for step.
        """
        event = Event.__new__(Event)
        event.sim = self
        event.callbacks = callback
        event._triggered = True
        event._processed = False
        event.value = value
        event._exc = None
        event._cancelled = False
        when = self.now
        try:
            self._buckets[when].append(event)
        except KeyError:
            self._buckets[when] = [event]
            heappush(self._times, when)
        return event

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when all *events* have fired."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when the first of *events* fires."""
        return AnyOf(self, events)

    # -- the loop --------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Run until the queue drains or simulated time reaches *until*.

        Drains calendar buckets in time order, firing each bucket's
        events in scheduling order — bit-for-bit the (time, seq) order of
        the engine's original tuple heap.  *until* stops the clock there
        without firing later events.  Returns the final simulated time.
        With a work counter installed (``repro.obs.prof``) the call also
        tallies its events, buckets, calendar entries and cancel skips;
        counting never changes the model.

        The bucket being drained stays in ``_buckets`` (see the module
        docstring).

        Hot-path notes: everything touched per event is a local; the
        fired count flushes to ``event_count`` per call (``finally``);
        ``pending`` is exact at any time, inside callbacks too.  A
        bucket a raising callback left partially drained is parked in
        ``_front`` so the next call resumes mid-bucket.
        """
        bound = _INF if until is None else until
        buckets = self._buckets
        times = self._times
        pop = heappop
        profiler = prof.ACTIVE
        fired = 0
        skipped = 0
        adopted = 0
        it = None
        bskip = 0
        now = self.now
        if profiler is not None:
            retired0 = self._retired
            entries0 = self._queue_entries()
        front = self._front
        try:
            while True:
                # -- adopt the next bucket --------------------------------
                if front is not None:
                    when, bucket = front
                    front = self._front = None
                    if when > bound:
                        # The parked bucket lies beyond the bound: mirror
                        # the next-event-beyond-until behaviour below.
                        self._front = (when, bucket)
                        self.now = bound
                        break
                    # Events scheduled at ``when`` since it was parked
                    # queue behind it (their heap entry goes stale).
                    later = buckets.pop(when, None)
                    if later is not None:
                        bucket += later
                else:
                    if not times:
                        break
                    when = times[0]
                    if when > bound:
                        self.now = bound
                        break
                    pop(times)
                    bucket = buckets.pop(when, None)
                    if bucket is None:
                        continue  # stale heap entry (compaction/duplicate)
                adopted += 1
                if bucket[0]._cancelled:
                    # Strip leading cancelled events *before* committing
                    # the clock: a bucket holding only cancelled events
                    # must not advance ``now`` to its time.
                    pos, n = 0, len(bucket)
                    while pos < n and bucket[pos]._cancelled:
                        pos += 1
                        self._cancelled_pending -= 1
                        self._retired += 1
                        skipped += 1
                    if pos == n:
                        continue
                    bucket = bucket[pos:]
                if when < now:
                    raise SimulationError(
                        f"time travel: event at {when} < now {now}")
                self.now = now = when
                buckets[when] = self._draining = bucket
                bskip = 0
                it = iter(bucket)
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
                    self._retired += bskip
                    skipped += bskip
                del buckets[when]
        finally:
            if it is not None:
                # A callback raised mid-bucket: park the unfired
                # remainder, events appended during the drain included,
                # so the next call resumes in place, and reconstruct
                # this bucket's tallies (everything consumed from the
                # iterator either fired or was skipped).
                rest = list(it)
                fired += len(bucket) - bskip - len(rest)
                if bskip:
                    self._cancelled_pending -= bskip
                    self._retired += bskip
                    skipped += bskip
                del buckets[now]
                if rest:
                    self._front = (now, rest)
            self._draining = None
            self.event_count += fired
            if profiler is not None:
                count = profiler.count
                count("engine.run.calls")
                count("engine.events", fired)
                count("engine.buckets", adopted)
                # Calendar entries scheduled during this call,
                # reconstructed from conservation: every entry that
                # entered the calendar either fired, was retired as
                # cancelled, or is still queued.  (The schedule sites
                # themselves stay free of counting bookkeeping.)
                count("engine.heap_pushes",
                      fired + (self._retired - retired0)
                      + self._queue_entries() - entries0)
                if skipped:
                    count("engine.cancel_skips", skipped)
        return self.now

    def _compact(self) -> None:
        """Sweep lazily-deleted events out of the calendar, in place.

        Mutates ``_times`` and ``_buckets`` in place so a dispatch loop
        holding local bindings stays coherent.  The bucket being drained
        is left alone — the loop iterates that very list — and so is a
        parked front bucket, which is not in ``_buckets``; their
        cancelled entries are skip-counted at drain.
        """
        buckets = self._buckets
        draining = self._draining
        removed = 0
        kept = 0
        for when in list(buckets):
            old = buckets[when]
            if old is draining:
                continue
            live = [event for event in old if not event._cancelled]
            dead = len(old) - len(live)
            kept += len(live)
            if dead:
                removed += dead
                if live:
                    buckets[when] = live
                else:
                    del buckets[when]
        if removed:
            self._cancelled_pending -= removed
            self._retired += removed
        times = self._times
        times[:] = buckets
        heapify(times)
        # Re-arm once cancelled entries outnumber what this sweep kept
        # (amortized O(1) work per cancel), never below the fixed floor;
        # the leftover term covers cancelled events in the draining and
        # front buckets, which this sweep cannot reach — without it they
        # could re-trigger an empty sweep on the very next cancel.
        floor = kept if kept > COMPACT_THRESHOLD else COMPACT_THRESHOLD
        self._compact_at = floor + self._cancelled_pending

    # -- introspection ---------------------------------------------------
    def _queue_entries(self) -> int:
        """Total events in the calendar, cancelled included (O(buckets))."""
        count = sum(map(len, self._buckets.values()))
        front = self._front
        if front is not None:
            count += len(front[1])
        return count

    @property
    def pending(self) -> int:
        """Number of *live* scheduled-but-unfired events.

        Lazily-deleted cancelled events still sitting in the calendar are
        excluded, so backlog metrics cannot over-report after fault
        recovery retires its crash watchers.  Read from a callback, it
        counts the rest of the bucket being drained but not its fired
        prefix.  O(number of distinct pending timestamps plus the
        draining bucket) — an introspection aid, not a hot path.
        """
        count = self._queue_entries() - self._cancelled_pending
        draining = self._draining
        if draining is not None:
            count -= sum(event._processed for event in draining)
        return count
