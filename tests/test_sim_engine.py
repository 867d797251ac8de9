"""Unit tests for the discrete-event simulation kernel."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.obs import prof
from repro.sim.engine import (Calendar, Entry, Interrupt, Process,
                              SimulationError, Simulator, Timeout)


def _post(sim, callback, delay=None):
    """Post a fresh entry that runs *callback*; returns the entry."""
    entry = Entry()
    sim.post(entry, callback, delay)
    return entry


class TestEvent:
    def test_starts_untriggered(self):
        sim = Simulator()
        ev = sim.event()
        assert not ev.triggered
        assert not ev.processed

    def test_succeed_delivers_value(self):
        sim = Simulator()
        ev = sim.event()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        ev.succeed(42)
        sim.run()
        assert seen == [42]

    def test_double_trigger_rejected(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed()
        with pytest.raises(SimulationError):
            ev.succeed()

    def test_callback_after_processing_runs_immediately(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed("x")
        sim.run()
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        assert seen == ["x"]

    def test_fail_carries_exception(self):
        sim = Simulator()
        ev = sim.event()
        err = RuntimeError("boom")
        ev.fail(err)
        sim.run()
        assert ev.triggered
        assert not ev.ok


class TestTimeout:
    def test_fires_at_delay(self):
        sim = Simulator()
        times = []

        def proc(sim):
            yield sim.timeout(2.5)
            times.append(sim.now)

        sim.process(proc(sim))
        sim.run()
        assert times == [2.5]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.timeout(-1.0)

    @pytest.mark.parametrize("delay", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_delay_rejected(self, delay):
        """A NaN delay used to fire first and set ``now`` to NaN, after
        which the clock ran backwards; an infinite one never fired."""
        sim = Simulator()
        with pytest.raises(SimulationError, match="infinity or NaN"):
            sim.timeout(delay)
        assert sim.pending == 0
        sim.timeout(1.0)
        sim.timeout(0.5)
        fired = []
        _post(sim, lambda _e: fired.append(sim.now), 0.75)
        assert sim.run() == 1.0
        assert fired == [0.75]

    def test_constructor_is_not_a_second_factory(self):
        # Simulator.timeout builds timeouts in place; the class does not.
        with pytest.raises(TypeError, match="Simulator.timeout"):
            Timeout(Simulator(), 1.0)

    def test_zero_delay_allowed(self):
        sim = Simulator()
        done = []

        def proc(sim):
            yield sim.timeout(0.0)
            done.append(sim.now)

        sim.process(proc(sim))
        sim.run()
        assert done == [0.0]

    def test_timeout_value_passed_through(self):
        sim = Simulator()
        got = []

        def proc(sim):
            value = yield sim.timeout(1.0, value="payload")
            got.append(value)

        sim.process(proc(sim))
        sim.run()
        assert got == ["payload"]


class TestProcess:
    def test_return_value_becomes_event_value(self):
        sim = Simulator()

        def child(sim):
            yield sim.timeout(1)
            return "done"

        def parent(sim, out):
            result = yield sim.process(child(sim))
            out.append(result)

        out = []
        sim.process(parent(sim, out))
        sim.run()
        assert out == ["done"]

    def test_sequential_timeouts_accumulate(self):
        sim = Simulator()

        def proc(sim):
            yield sim.timeout(1)
            yield sim.timeout(2)
            yield sim.timeout(3)

        sim.process(proc(sim))
        assert sim.run() == 6.0

    def test_constructor_is_not_a_second_factory(self):
        def proc(sim):
            yield sim.timeout(1.0)

        sim = Simulator()
        with pytest.raises(TypeError, match="Simulator.process"):
            Process(sim, proc(sim))
        assert sim.pending == 0

    def test_non_generator_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.process(lambda: None)

    def test_yielding_non_event_raises(self):
        sim = Simulator()

        def bad(sim):
            yield 42

        sim.process(bad(sim))
        with pytest.raises(SimulationError):
            sim.run()

    def test_cross_simulator_event_rejected(self):
        sim1, sim2 = Simulator(), Simulator()

        def proc(sim, other):
            yield other.timeout(1)

        sim1.process(proc(sim1, sim2))
        with pytest.raises(SimulationError):
            sim1.run()

    def test_crash_propagates_to_waiter(self):
        sim = Simulator()

        def child(sim):
            yield sim.timeout(1)
            raise ValueError("inner")

        def parent(sim, out):
            try:
                yield sim.process(child(sim))
            except ValueError as exc:
                out.append(str(exc))

        out = []
        sim.process(parent(sim, out))
        sim.run()
        assert out == ["inner"]

    def test_unwaited_crash_raises(self):
        sim = Simulator()

        def bad(sim):
            yield sim.timeout(1)
            raise ValueError("unobserved")

        sim.process(bad(sim))
        with pytest.raises(ValueError, match="unobserved"):
            sim.run()

    def test_interrupt_mid_wait(self):
        sim = Simulator()
        out = []

        def sleeper(sim):
            try:
                yield sim.timeout(100)
            except Interrupt as intr:
                out.append((sim.now, intr.cause))

        proc = sim.process(sleeper(sim))

        def interrupter(sim, target):
            yield sim.timeout(3)
            target.interrupt("wakeup")

        sim.process(interrupter(sim, proc))
        sim.run()
        assert out == [(3.0, "wakeup")]

    def test_target_and_active_process(self):
        """``target`` is what the process waits on; ``active_process`` is
        the process whose step is running, and None between steps."""
        sim = Simulator()
        seen = []

        def proc(sim):
            seen.append(sim.active_process)
            yield sim.timeout(1.0)
            seen.append(sim.active_process)

        p = sim.process(proc(sim))
        assert p.target is None
        _post(sim, lambda _e: seen.append(sim.active_process), 0.5)
        sim.run()
        assert seen == [p, None, p]
        assert sim.active_process is None

    def test_is_alive_lifecycle(self):
        sim = Simulator()

        def proc(sim):
            yield sim.timeout(5)

        p = sim.process(proc(sim))
        assert p.is_alive
        sim.run()
        assert not p.is_alive


class TestCombinators:
    def test_any_of_fires_on_first(self):
        sim = Simulator()
        out = []

        def proc(sim):
            index, value = yield sim.any_of([sim.timeout(4, value="slow"),
                                             sim.timeout(1, value="fast")])
            out.append((sim.now, index, value))

        sim.process(proc(sim))
        sim.run()
        assert out == [(1.0, 1, "fast")]

    def test_any_of_empty_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.any_of([])


class TestCancellation:
    def test_cancelled_timeout_does_not_advance_clock(self):
        sim = Simulator()
        t = sim.timeout(100.0)

        def proc(sim):
            yield sim.timeout(2.0)

        sim.process(proc(sim))
        t.cancel()
        assert sim.run() == 2.0  # the cancelled 100s never fired

    def test_cancel_after_processing_is_noop(self):
        sim = Simulator()
        t = sim.timeout(1.0)
        sim.run()
        t.cancel()
        assert t.processed
        assert not t.cancelled

    def test_cancelled_only_tail_keeps_the_clock(self):
        # A cancelled-only remainder is an empty queue: the clock stays
        # at the last fired event (see ``Event.cancel``).
        sim = Simulator()
        sim.timeout(1.0)
        sim.timeout(5.0).cancel()
        assert sim.run() == 1.0
        assert sim.event_count == 1
        assert sim.pending == 0


class TestFailurePaths:
    def test_interrupt_during_timeout_ignores_stale_firing(self):
        sim = Simulator()
        out = []

        def sleeper(sim):
            try:
                yield sim.timeout(100)
            except Interrupt:
                yield sim.timeout(1)
                out.append(sim.now)

        proc = sim.process(sleeper(sim))

        def interrupter(sim, target):
            yield sim.timeout(3)
            target.interrupt()

        sim.process(interrupter(sim, proc))
        sim.run()
        # Resumed exactly once after the interrupt; the abandoned 100s
        # timeout fires into the stale-wakeup guard and is dropped.
        assert out == [4.0]

    def test_any_of_with_failing_child_propagates(self):
        sim = Simulator()
        out = []

        def failing(sim):
            yield sim.timeout(1)
            raise ValueError("child died")

        def waiter(sim):
            try:
                yield sim.any_of([sim.process(failing(sim)),
                                  sim.timeout(50)])
            except ValueError as exc:
                out.append((sim.now, str(exc)))

        sim.process(waiter(sim))
        sim.run()
        assert out == [(1.0, "child died")]

    def test_crash_propagates_to_every_waiter(self):
        sim = Simulator()
        out = []

        def failing(sim):
            yield sim.timeout(1)
            raise ValueError("boom")

        def waiter(sim, tag, target):
            try:
                yield target
            except ValueError:
                out.append(tag)

        target = sim.process(failing(sim))
        sim.process(waiter(sim, "a", target))
        sim.process(waiter(sim, "b", target))
        sim.run()
        assert sorted(out) == ["a", "b"]

    def test_watched_process_stores_failure(self):
        sim = Simulator()

        def failing(sim):
            yield sim.timeout(1)
            raise ValueError("stored")

        proc = sim.process(failing(sim))
        proc.add_callback(lambda e: None)
        sim.run()  # does not raise: the failure is stored, not re-raised
        assert not proc.ok
        assert isinstance(proc.exception, ValueError)

    def test_interrupting_finished_process_is_noop(self):
        sim = Simulator()

        def proc(sim):
            yield sim.timeout(1)

        p = sim.process(proc(sim))
        sim.run()
        p.interrupt()  # must not schedule anything
        assert sim.pending == 0


class TestSimulator:
    def test_run_takes_no_bound(self):
        sim = Simulator()
        sim.timeout(2.0)
        with pytest.raises(TypeError):
            sim.run(until=1.0)
        assert sim.run() == 2.0

    def test_post_fires_callback_in_fifo_position(self):
        sim = Simulator()
        order = []

        def proc(sim):
            order.append(("process", sim.now))
            yield sim.timeout(0)

        sim.process(proc(sim))
        entry = _post(sim, lambda posted: order.append((posted, sim.now)))
        sim.run()
        assert order == [("process", 0.0), (entry, 0.0)]
        assert sim.event_count == 4  # boot, entry, timeout, completion

    def test_post_with_delay_lands_where_a_timeout_would(self):
        sim = Simulator()
        order = []
        sim.timeout(1.0).add_callback(lambda _e: order.append("first"))
        _post(sim, lambda _e: order.append("entry"), 1.0)
        sim.timeout(1.0).add_callback(lambda _e: order.append("last"))
        sim.run()
        assert order == ["first", "entry", "last"]
        assert sim.now == 1.0

    def test_entry_reposts_itself_step_by_step(self):
        """One object, posted again from its own callback, takes one
        calendar position per step and allocates nothing per step."""
        sim = Simulator()
        entry = Entry()
        steps = []

        def step(posted):
            assert posted is entry
            steps.append(sim.now)
            if len(steps) < 4:
                sim.post(entry, step, 0.5 if len(steps) % 2 else None)

        sim.post(entry, step)
        sim.run()
        assert steps == [0.0, 0.5, 0.5, 1.0]
        assert sim.event_count == 4

    @pytest.mark.parametrize("delay", [-1.0, float("nan"), float("inf")])
    def test_post_rejects_bad_delays(self, delay):
        sim = Simulator()
        entry = Entry()
        with pytest.raises(SimulationError, match="post delay"):
            sim.post(entry, lambda _e: None, delay)
        assert sim.pending == 0
        sim.post(entry, lambda _e: None, 1.0)   # still postable
        assert sim.run() == 1.0

    def test_entry_is_in_the_calendar_at_most_once(self):
        sim = Simulator()
        entry = _post(sim, lambda _e: None)
        with pytest.raises(SimulationError, match="already in the calendar"):
            sim.post(entry, lambda _e: None, 1.0)
        sim.run()
        assert sim.event_count == 1
        assert sim.now == 0.0

    def test_calendar_opens_a_bucket_on_first_use(self):
        """A subscript on a new time pushes that time onto the heap,
        once, and returns the bucket later subscripts append to."""
        cal = Calendar()
        cal[2.0].append("a")
        cal[1.0].append("b")
        cal[2.0].append("c")
        assert cal == {2.0: ["a", "c"], 1.0: ["b"]}
        assert sorted(cal.times) == [1.0, 2.0]

    def test_in_place_post_lands_where_post_would(self):
        sim = Simulator()
        order = []
        sim.timeout(1.0).add_callback(lambda _e: order.append("timeout"))
        entry = Entry()
        entry.callbacks = lambda _e: order.append("in place")
        sim.calendar[sim.now + 1.0].append(entry)
        _post(sim, lambda _e: order.append("posted"), 1.0)
        assert sim.pending == 3
        sim.run()
        assert order == ["timeout", "in place", "posted"]
        assert sim.event_count == 3

    def test_fire_resumes_the_waiter_in_the_callers_frame(self):
        sim = Simulator()
        order = []
        done = sim.event()

        def proc(sim):
            try:
                yield done
                order.append(("resumed", sim.now))
            except RuntimeError as exc:
                order.append(("thrown", str(exc), sim.now))

        def resolve(_entry):
            done.fire(RuntimeError("boom"))
            order.append("fire returned")

        sim.process(proc(sim))
        _post(sim, resolve, 2.0)
        sim.run()
        assert order == [("thrown", "boom", 2.0), "fire returned"]
        assert sim.event_count == 3   # boot, entry, completion
        with pytest.raises(SimulationError, match="already triggered"):
            done.fire()

    def test_same_time_event_from_callback_fires_after_its_bucket(self):
        sim = Simulator()
        order = []

        def first(_event):
            order.append("first")
            _post(sim, lambda _e: order.append("appended"))

        _post(sim, first)
        _post(sim, lambda _e: order.append("second"))
        _post(sim, lambda _e: order.append("later"), 1.0)
        sim.run()
        assert order == ["first", "second", "appended", "later"]
        assert sim.event_count == 4

    def test_raising_callback_propagates_and_stops_the_engine(self):
        sim = Simulator()
        order = []

        def boom(_event):
            _post(sim, lambda _e: order.append("appended"))
            raise RuntimeError("boom")

        _post(sim, lambda _e: order.append("before"))
        _post(sim, boom)
        _post(sim, lambda _e: order.append("rest"))
        _post(sim, lambda _e: order.append("later"), 1.0)
        with prof.profiled() as profiler:
            with pytest.raises(RuntimeError, match="boom"):
                sim.run()
        assert order == ["before"]
        assert sim.now == 0.0
        assert sim.event_count == 2   # "before" and the raising event
        assert sim.pending == 3       # rest, appended, later
        assert profiler.counts["engine.events"] == 2
        assert profiler.counts["engine.heap_pushes"] == 1   # appended
        # Nothing resumes: the rest neither fires nor is dropped silently.
        with pytest.raises(SimulationError, match="mid-bucket"):
            sim.run()
        assert order == ["before"]
        assert sim.event_count == 2
        assert sim.pending == 3

    def test_run_cannot_be_reentered_from_a_callback(self):
        sim = Simulator()
        _post(sim, lambda _e: sim.run())
        with pytest.raises(SimulationError, match="re-entered"):
            sim.run()

    def test_pending_is_exact_inside_a_same_time_cascade(self):
        sim = Simulator()
        seen = []

        def link(depth):
            def fire(_event):
                seen.append(sim.pending)
                if depth:
                    _post(sim, link(depth - 1))
            return fire

        _post(sim, link(2))
        _post(sim, lambda _e: (seen.append(sim.pending), doomed.cancel()))
        doomed = sim.timeout(0.0)
        sim.timeout(1.0)
        sim.run()
        # link(2) sees the reader, doomed and the t=1 timeout; the reader
        # sees doomed, the timeout and the appended link(1); after the
        # cancel, each later link sees only the timeout.
        assert seen == [3, 3, 1, 1]
        assert sim.pending == 0

    def test_pending_counts_an_entry_reposted_into_its_bucket_once(self):
        """Like an HDFS leg whose boot and device grant share a bucket:
        the fired first post must not count again once the entry is
        posted a second time into the bucket being drained."""
        sim = Simulator()
        entry = Entry()
        seen = []

        def boot(_entry):
            seen.append(sim.pending)          # the t=1 timeout
            sim.post(entry, grant)
            seen.append(sim.pending)          # + the grant

        def grant(_entry):
            seen.append(sim.pending)          # the timeout only
            sim.post(entry, lambda _e: seen.append(sim.pending), 0.5)

        sim.post(entry, boot)
        sim.timeout(1.0)
        assert sim.pending == 2
        sim.run()
        assert seen == [1, 2, 1, 1]
        assert sim.pending == 0

    def test_fifo_among_simultaneous_events(self):
        sim = Simulator()
        order = []

        def proc(sim, tag):
            yield sim.timeout(1.0)
            order.append(tag)

        for tag in ("first", "second", "third"):
            sim.process(proc(sim, tag))
        sim.run()
        assert order == ["first", "second", "third"]

    @given(st.lists(st.floats(min_value=0.001, max_value=1000.0),
                    min_size=1, max_size=30))
    def test_events_fire_in_time_order(self, delays):
        sim = Simulator()
        fired = []

        def proc(sim, d):
            yield sim.timeout(d)
            fired.append(sim.now)

        for d in delays:
            sim.process(proc(sim, d))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(st.lists(st.floats(min_value=0.01, max_value=100.0),
                    min_size=1, max_size=20))
    def test_determinism_across_runs(self, delays):
        def execute():
            sim = Simulator()
            log = []

            def proc(sim, i, d):
                yield sim.timeout(d)
                log.append((i, sim.now))

            for i, d in enumerate(delays):
                sim.process(proc(sim, i, d))
            sim.run()
            return log

        assert execute() == execute()


class TestEngineCampaignEdges:
    """Regression tests for the hot-path campaign's satellite bugfixes."""

    def test_succeed_after_cancel_raises(self):
        # The old engine scheduled the event and then silently skipped it
        # as cancelled, stranding every waiter; now it raises loudly.
        sim = Simulator()
        ev = sim.event()
        ev.cancel()
        with pytest.raises(SimulationError, match="cancelled"):
            ev.succeed(42)

    def test_fail_after_cancel_raises(self):
        sim = Simulator()
        ev = sim.event()
        ev.cancel()
        with pytest.raises(SimulationError, match="cancelled"):
            ev.fail(RuntimeError("boom"))

    def test_process_finishing_after_cancel_raises(self):
        # A Process is an event too: cancelling it and then letting the
        # generator finish hits the same inlined succeed path.
        sim = Simulator()

        def proc(sim):
            yield sim.timeout(1.0)

        p = sim.process(proc(sim))
        p.cancel()
        with pytest.raises(SimulationError, match="cancelled"):
            sim.run()

    def test_interrupt_during_anyof(self):
        sim = Simulator()
        log = []

        def waiter(sim):
            try:
                yield sim.any_of([sim.timeout(5.0), sim.timeout(9.0)])
                log.append(("fired", sim.now))
            except Interrupt as intr:
                log.append(("interrupted", intr.cause, sim.now))
            yield sim.timeout(1.0)
            log.append(("moved-on", sim.now))

        def bolt(sim, target):
            yield sim.timeout(2.0)
            target.interrupt("storm")

        target = sim.process(waiter(sim))
        sim.process(bolt(sim, target))
        sim.run()
        # The AnyOf children still fire at t=5/9 but the stale-wakeup
        # guard must ignore them; the waiter resumed exactly once.
        assert log == [("interrupted", "storm", 2.0), ("moved-on", 3.0)]

    def test_pending_excludes_lazily_deleted_cancellations(self):
        sim = Simulator()
        live = sim.timeout(1.0)
        doomed = [sim.timeout(2.0) for _ in range(10)]
        assert sim.pending == 11
        for t in doomed:
            t.cancel()
        # The cancelled events still sit in their calendar bucket, but
        # backlog metrics must see only the live one.
        assert sim.pending == 1
        assert not live.processed

    def test_run_tallies_cancel_skips(self):
        sim = Simulator()
        doomed = sim.timeout(1.0)
        sim.timeout(2.0)
        doomed.cancel()
        with prof.profiled() as profiler:
            assert sim.run() == 2.0
        assert profiler.counts.get("engine.cancel_skips") == 1
        assert profiler.counts.get("engine.events") == 1
