"""Cross-implementation determinism fuzz for the rewritten engine.

The calendar-queue engine in ``repro.sim.engine`` claims bit-identical
firing order to the original ``(time, seq, event)`` tuple heap.  This
module keeps that claim honest: ``_RefSimulator`` below *is* that
original design, deliberately kept simple (tuple heap, list callbacks,
no slots, no lazy-delete compaction), and the fuzz runs randomly
generated process/timeout/interrupt/cancel programs over ~20 seeds
against both engines, asserting the full ``(time, order)`` log of
observable actions and a final-state digest match exactly.  Two ops
target the calendar's same-time path: zero-delay callback chains shaped
like the HDFS legs (they log ``pending`` at every link), and cancel
bursts large enough to compact the calendar while a bucket drains.
Every seed runs through one ``run()`` and through a series of bounded
``run(until=...)`` windows.

The programs are pre-generated op scripts (pure functions of the seed),
so any divergence is attributable to the engines, not to random draws
interleaving differently.
"""

from __future__ import annotations

import hashlib
import random
from functools import partial
from heapq import heappop, heappush
from itertools import count

import pytest

from repro.sim.engine import (COMPACT_THRESHOLD, Interrupt, SimulationError,
                              Simulator)

# -- the kept-simple reference engine ------------------------------------


class _RefEvent:
    def __init__(self, sim):
        self.sim = sim
        self.callbacks = []
        self.triggered = False
        self.processed = False
        self.value = None
        self.exc = None
        self.cancelled = False

    def succeed(self, value=None):
        if self.triggered:
            raise SimulationError("event already triggered")
        if self.cancelled:
            raise SimulationError("cannot succeed a cancelled event")
        self.triggered = True
        self.value = value
        self.sim._schedule(self, 0.0)
        return self

    def fail(self, exc):
        if self.triggered:
            raise SimulationError("event already triggered")
        if self.cancelled:
            raise SimulationError("cannot fail a cancelled event")
        self.triggered = True
        self.exc = exc
        self.sim._schedule(self, 0.0)
        return self

    def cancel(self):
        if self.processed:
            return
        self.cancelled = True

    def add_callback(self, cb):
        if self.processed:
            cb(self)
        else:
            self.callbacks.append(cb)


class _RefProcess(_RefEvent):
    def __init__(self, sim, gen):
        super().__init__(sim)
        self.gen = gen
        self.waiting = None
        boot = _RefEvent(sim)
        boot.triggered = True
        boot.callbacks.append(self._resume)
        sim._schedule(boot, 0.0)

    @property
    def is_alive(self):
        return not self.triggered

    def _resume(self, event):
        if self.triggered:
            return
        if self.waiting is not None and event is not self.waiting:
            return
        try:
            if event.exc is not None:
                target = self.gen.throw(event.exc)
            else:
                target = self.gen.send(event.value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            if self.callbacks:
                self.fail(exc)
                return
            raise
        self.waiting = target
        target.add_callback(self._resume)

    def interrupt(self, cause=None):
        if not self.is_alive:
            return
        intr = _RefEvent(self.sim)
        self.waiting = intr
        intr.callbacks.append(self._resume)
        intr.fail(Interrupt(cause))


class _RefSimulator:
    """The original engine design: one (time, seq, event) tuple per entry."""

    def __init__(self):
        self.now = 0.0
        self.event_count = 0
        self._heap = []
        self._seq = count()

    def _schedule(self, event, delay):
        heappush(self._heap, (self.now + delay, next(self._seq), event))

    def event(self):
        return _RefEvent(self)

    def timeout(self, delay, value=None):
        if delay < 0:
            raise SimulationError(f"negative timeout delay: {delay!r}")
        ev = _RefEvent(self)
        ev.triggered = True
        ev.value = value
        self._schedule(ev, delay)
        return ev

    def process(self, gen):
        return _RefProcess(self, gen)

    def schedule(self, callback, value=None):
        ev = _RefEvent(self)
        ev.triggered = True
        ev.value = value
        ev.callbacks.append(callback)
        self._schedule(ev, 0.0)
        return ev

    @property
    def pending(self):
        return sum(1 for _, _, ev in self._heap if not ev.cancelled)

    def any_of(self, events):
        events = list(events)
        out = _RefEvent(self)

        def make(index):
            def cb(ev):
                if out.triggered:
                    return
                if ev.exc is not None:
                    out.fail(ev.exc)
                else:
                    out.succeed((index, ev.value))
            return cb

        for index, ev in enumerate(events):
            ev.add_callback(make(index))
        return out

    def all_of(self, events):
        events = list(events)
        out = _RefEvent(self)
        state = {"pending": len(events), "values": [None] * len(events)}

        def make(index):
            def cb(ev):
                if out.triggered:
                    return
                if ev.exc is not None:
                    out.fail(ev.exc)
                    return
                state["values"][index] = ev.value
                state["pending"] -= 1
                if state["pending"] == 0:
                    out.succeed(list(state["values"]))
            return cb

        for index, ev in enumerate(events):
            ev.add_callback(make(index))
        return out

    def run(self, until=None):
        heap = self._heap
        while heap:
            when = heap[0][0]
            if until is not None and when > until:
                self.now = until
                return self.now
            _, _, ev = heappop(heap)
            if ev.cancelled:
                continue
            self.now = when
            ev.processed = True
            cbs = ev.callbacks
            ev.callbacks = []
            for cb in cbs:
                cb(ev)
            self.event_count += 1
        return self.now


# -- random program generation -------------------------------------------

_DELAYS = [0.0, 0.25, 0.25, 0.5, 0.75, 1.0, 1.0, 1.5, 2.0, 3.0]


def _random_script(rng: random.Random, n_procs: int):
    """One process's op list — a pure function of the rng state."""
    ops = []
    for _ in range(rng.randrange(2, 7)):
        roll = rng.random()
        if roll < 0.25:
            ops.append(("timeout", rng.choice(_DELAYS)))
        elif roll < 0.33:
            ops.append(("schedule", tuple(rng.randrange(0, 5)
                                          for _ in range(rng.randrange(1, 4)))))
        elif roll < 0.37:
            ops.append(("burst", tuple(
                rng.choice(_DELAYS)
                for _ in range(COMPACT_THRESHOLD + rng.randrange(40)))))
        elif roll < 0.50:
            ops.append(("cancel", rng.choice(_DELAYS), rng.choice(_DELAYS)))
        elif roll < 0.65:
            ops.append(("anyof", tuple(rng.choice(_DELAYS)
                                       for _ in range(rng.randrange(2, 4)))))
        elif roll < 0.75:
            ops.append(("allof", tuple(rng.choice(_DELAYS)
                                       for _ in range(rng.randrange(2, 4)))))
        elif roll < 0.90:
            ops.append(("interrupt", rng.choice(_DELAYS),
                        rng.randrange(n_procs)))
        else:
            ops.append(("succeed", rng.choice(_DELAYS), rng.randrange(100)))
    return ops


def _make_program(script, sim, pid, log, registry):
    """Instantiate one op script against either engine implementation."""
    def prog():
        for step, op in enumerate(script):
            kind = op[0]
            try:
                if kind == "timeout":
                    yield sim.timeout(op[1])
                    log.append((sim.now, pid, step, "timeout"))
                elif kind == "cancel":
                    victim = sim.timeout(op[1])
                    yield sim.timeout(op[2])
                    victim.cancel()
                    log.append((sim.now, pid, step, "cancel",
                                victim.processed))
                elif kind == "anyof":
                    got = yield sim.any_of(
                        [sim.timeout(d) for d in op[1]])
                    log.append((sim.now, pid, step, "anyof", got))
                elif kind == "allof":
                    got = yield sim.all_of(
                        [sim.timeout(d, value=i)
                         for i, d in enumerate(op[1])])
                    log.append((sim.now, pid, step, "allof", tuple(got)))
                elif kind == "interrupt":
                    yield sim.timeout(op[1])
                    target = registry[op[2] % len(registry)]
                    target.interrupt((pid, step))
                    log.append((sim.now, pid, step, "sent-interrupt",
                                target.is_alive))
                elif kind == "schedule":
                    # Like the HDFS legs of one operation: each chain boots
                    # from a zero-delay event, takes its steps as further
                    # zero-delay events, then counts itself off a join.
                    box = sim.event()
                    left = [len(op[1])]

                    def link(event, chain, k, length, box=box, left=left,
                             step=step):
                        log.append((sim.now, pid, step, "link", chain, k,
                                    sim.pending))
                        if k < length:
                            sim.schedule(partial(link, chain=chain, k=k + 1,
                                                 length=length))
                            return
                        left[0] -= 1
                        if not left[0]:
                            box.succeed(event.value)

                    for chain, length in enumerate(op[1]):
                        sim.schedule(partial(link, chain=chain, k=0,
                                             length=length), chain)
                    got = yield box
                    log.append((sim.now, pid, step, "schedule", got))
                elif kind == "burst":
                    # Schedule and cancel enough events from inside one
                    # callback to compact the calendar mid-bucket; some
                    # victims land in the bucket being drained.
                    box = sim.event()

                    def burst(_event, box=box, delays=op[1], step=step):
                        victims = [sim.timeout(d) for d in delays]
                        for victim in victims:
                            victim.cancel()
                        log.append((sim.now, pid, step, "burst",
                                    sim.pending))
                        sim.schedule(lambda _e: box.succeed(len(delays)))

                    sim.schedule(burst)
                    got = yield box
                    log.append((sim.now, pid, step, "burst-done", got))
                elif kind == "succeed":
                    box = sim.event()

                    def helper(box=box, delay=op[1], val=op[2]):
                        yield sim.timeout(delay)
                        if not box.triggered and not box.cancelled:
                            box.succeed(val)

                    sim.process(helper())
                    got = yield box
                    log.append((sim.now, pid, step, "succeed", got))
            except Interrupt as intr:
                log.append((sim.now, pid, step, "interrupted",
                            repr(intr.cause)))
    return prog()


#: Window ends for the stepped drive.  Every delay is a multiple of
#: 0.25 s, so these eighth-second bounds fall alternately on and between
#: event times, through the end of the longest program (~11 s).
_STEP_BOUNDS = tuple(i * 0.125 for i in range(1, 101))


def _digest(sim, log) -> str:
    state = (tuple(log), sim.now, sim.event_count)
    return hashlib.sha256(repr(state).encode()).hexdigest()


def _run_seed(seed: int, sim_factory, bounds=()):
    """Build and run one seeded random simulation.

    Returns ``(log, digest, final time)``.  *bounds* drives the engine
    through one bounded ``run(until=...)`` window per bound before the
    final unbounded ``run()``.
    """
    rng = random.Random(seed)
    n_procs = rng.randrange(3, 9)
    scripts = [_random_script(rng, n_procs) for _ in range(n_procs)]
    sim = sim_factory()
    log = []
    registry = []
    for pid, script in enumerate(scripts):
        registry.append(sim.process(
            _make_program(script, sim, pid, log, registry)))
    for bound in bounds:
        sim.run(until=bound)
    sim.run()
    return log, _digest(sim, log), sim.now


@pytest.mark.parametrize("seed", range(20))
def test_engine_matches_reference_loop(seed):
    """Full firing order and final-state digest match the tuple heap."""
    ref_log, ref_digest, _ = _run_seed(seed, _RefSimulator)
    new_log, new_digest, _ = _run_seed(seed, Simulator)
    assert new_log == ref_log
    assert new_digest == ref_digest


@pytest.mark.parametrize("seed", range(20))
def test_stepped_engine_matches_reference_loop(seed):
    """Bounded ``run(until=...)`` windows, resumed one after another,
    give the same log and digest as the heap in one go.

    The bounds stop short of the reference's final time: a bound past
    the last live event would leave the clock at the bound whenever a
    cancelled entry still lies beyond it.
    """
    ref_log, ref_digest, ref_end = _run_seed(seed, _RefSimulator)
    bounds = [b for b in _STEP_BOUNDS if b < ref_end]
    assert len(bounds) >= 8
    new_log, new_digest, _ = _run_seed(seed, Simulator, bounds=bounds)
    assert new_log == ref_log
    assert new_digest == ref_digest


def test_fuzz_programs_actually_exercise_the_engine(monkeypatch):
    """Sanity: the generated programs are not trivially empty, and the
    cancel bursts really compact the calendar while a bucket drains."""
    mid_bucket = []
    compact = Simulator._compact

    def spy(sim):
        mid_bucket.append(sim._draining is not None)
        compact(sim)

    monkeypatch.setattr(Simulator, "_compact", spy)
    total_entries = 0
    kinds = set()
    for seed in range(20):
        log, _, _ = _run_seed(seed, Simulator)
        total_entries += len(log)
        kinds.update(entry[3] for entry in log)
    assert total_entries > 100
    assert {"timeout", "cancel", "anyof", "allof", "sent-interrupt",
            "link", "schedule", "burst", "burst-done"} <= kinds
    assert any(mid_bucket)
