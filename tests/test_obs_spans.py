"""Tests for the tracing API: spans, counters, engine instrumentation."""

from __future__ import annotations

import pytest

from repro.mapreduce.driver import simulate_job
from repro.obs import Counter, Tracer
from repro.sim.engine import Interrupt, Simulator


class TestCounter:
    def test_set_and_value(self):
        c = Counter("x")
        c.set(1.0, 3.0)
        c.set(2.0, 5.0)
        assert c.value == 5.0
        assert c.samples == [(1.0, 3.0), (2.0, 5.0)]

    def test_add_steps(self):
        c = Counter("x")
        c.add(0.0, 2.0)
        c.add(1.0, -1.0)
        assert c.samples == [(0.0, 2.0), (1.0, 1.0)]

    def test_same_timestamp_keeps_latest(self):
        c = Counter("x")
        c.set(1.0, 3.0)
        c.set(1.0, 7.0)
        assert c.samples == [(1.0, 7.0)]

    def test_redundant_sample_dropped(self):
        c = Counter("x")
        c.set(1.0, 3.0)
        c.set(2.0, 3.0)
        assert c.samples == [(1.0, 3.0)]
        assert c.value == 3.0

    def test_value_at_and_max_in(self):
        c = Counter("x")
        c.set(1.0, 2.0)
        c.set(3.0, 8.0)
        c.set(5.0, 1.0)
        assert c.value_at(0.5) == 0.0
        assert c.value_at(2.0) == 2.0
        assert c.max_in(0.0, 10.0) == 8.0
        assert c.max_in(4.0, 10.0) == 8.0  # level 8 still holds at t=4


class TestTracer:
    def test_span_lifecycle(self):
        clock = [0.0]
        t = Tracer(clock=lambda: clock[0])
        span = t.begin("work", ("n", "lane"), cat="test", task="t1")
        clock[0] = 5.0
        t.end(span, status="ok")
        assert span.start == 0.0 and span.end == 5.0
        assert span.duration == 5.0
        assert span.args == {"task": "t1", "status": "ok"}
        assert [s for s in t.spans if s.end is None] == []

    def test_context_manager(self):
        clock = [1.0]
        t = Tracer(clock=lambda: clock[0])
        with t.span("w", ("a", "b")):
            clock[0] = 2.0
        assert t.spans[0].end == 2.0

    def test_spans_on_filters_by_track(self):
        t = Tracer(clock=lambda: 0.0)
        t.begin("a", ("g1", "l1"))
        t.begin("b", ("g1", "l2"))
        t.begin("c", ("g2", "l1"))
        assert len(t.spans_on("g1")) == 2
        assert len(t.spans_on("g1", "l2")) == 1

    def test_attach_binds_simulated_clock(self):
        sim = Simulator()
        t = Tracer().attach(sim)
        assert sim.obs is t

        def proc():
            yield sim.timeout(4.5)
            t.instant("ping", ("x", "y"))

        sim.process(proc())
        sim.run()
        assert t.events[0].time == 4.5

    def test_meta_counts(self):
        t = Tracer()
        t.count("hits")
        t.count("hits")
        t.count("bytes", 100)
        assert t.meta == {"hits": 2, "bytes": 100}


class TestEngineInstrumentation:
    def test_wake_interrupt_cancel_counted(self):
        sim = Simulator()
        t = Tracer().attach(sim)

        def sleeper():
            try:
                yield sim.timeout(100.0)
            except Interrupt:
                pass

        def killer(victim):
            yield sim.timeout(1.0)
            victim.interrupt("test")
            doomed = sim.timeout(50.0)
            doomed.cancel()

        victim = sim.process(sleeper())
        sim.process(killer(victim))
        sim.run()
        assert t.meta["engine.interrupts"] == 1
        assert t.meta["engine.cancels"] == 1
        assert t.meta["engine.process_wakes"] >= 2
        [ev] = [e for e in t.events if e.name == "interrupt"]
        assert ev.args["cause"] == "test"

    def test_untraced_simulator_records_nothing(self):
        sim = Simulator()
        assert sim.obs is None

        def proc():
            yield sim.timeout(1.0)

        sim.process(proc())
        sim.run()  # no tracer: must simply not crash on any guard


class TestJobTraceCapture:
    def test_job_trace_deposited(self):
        t = Tracer()
        result = simulate_job("atom", "wordcount", data_per_node_gb=0.0625,
                              obs=t)
        job = t.job
        assert job is not None
        assert job.workload == "wordcount" and job.machine == "atom"
        assert job.makespan == result.execution_time_s
        assert sorted(job.node_names) == ["atom0", "atom1", "atom2"]
        assert len(job.intervals) > 0
        assert job.energy.dynamic_joules == result.energy.dynamic_joules
        assert job.engine["events_dispatched"] > 0
        assert t.meta["hdfs.reads"] > 0
        # every attempt span closed, with a status
        slot_spans = [s for s in t.spans if s.track[1].startswith("slot")]
        assert slot_spans and all(s.end is not None for s in slot_spans)
        assert all("status" in s.args for s in slot_spans)

    def test_tracing_does_not_change_scalars(self):
        traced = simulate_job("atom", "wordcount", data_per_node_gb=0.0625,
                              obs=Tracer())
        plain = simulate_job("atom", "wordcount", data_per_node_gb=0.0625)
        assert traced.execution_time_s == plain.execution_time_s
        assert traced.energy.dynamic_joules == plain.energy.dynamic_joules
        assert traced.phase_seconds == plain.phase_seconds
        assert traced.counters.map_attempts == plain.counters.map_attempts

    def test_trace_is_deterministic(self):
        a, b = Tracer(), Tracer()
        simulate_job("atom", "terasort", data_per_node_gb=0.125, obs=a)
        simulate_job("atom", "terasort", data_per_node_gb=0.125, obs=b)
        assert [(s.name, s.track, s.start, s.end) for s in a.spans] == \
               [(s.name, s.track, s.start, s.end) for s in b.spans]
        assert a.meta == b.meta
        assert {k: c.samples for k, c in a.counters.items()} == \
               {k: c.samples for k, c in b.counters.items()}
