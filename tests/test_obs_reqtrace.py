"""`repro.obs.reqtrace` + `repro.obs.slog`: traces, ring, correlation.

The request-trace model is exercised with fake clocks so span windows
and ring eviction are exact; the context-propagation tests use real
asyncio tasks because following task switches is the property that
matters.  The structured logger is tested through a StringIO sink.
"""

from __future__ import annotations

import asyncio
import io
import json

import pytest

from repro.obs import reqtrace, slog
from repro.obs.export import request_json, request_trace
from repro.obs.reqtrace import RequestTelemetry
from repro.obs.slog import StructuredLog


class _FakeClock:
    def __init__(self, start=100.0):
        self.now = start

    def __call__(self):
        return self.now

    def tick(self, dt):
        self.now += dt
        return self.now


def _telemetry(ring=4):
    return RequestTelemetry(ring=ring, clock=_FakeClock(),
                            wall=lambda: 1700000000.0)


class TestRequestTrace:
    def test_ids_are_sequential_and_share_the_process_token(self):
        tel = _telemetry()
        a = tel.start("/simulate", "POST")
        b = tel.start("/compare", "POST")
        assert a.id != b.id
        assert a.id.split("-")[0] == b.id.split("-")[0] == tel.token
        assert a.id.endswith("-000001") and b.id.endswith("-000002")

    def test_spans_and_phase_totals(self):
        tel = _telemetry()
        trace = tel.start("/simulate")
        trace.add_span("queue.wait", 100.0, 100.25)
        trace.add_span("pool.execute", 100.25, 100.75, batch=3)
        trace.add_span("queue.wait", 101.0, 101.1)

        def phase_s(name):
            return sum(s.duration for s in trace.spans if s.name == name)

        assert phase_s("queue.wait") == pytest.approx(0.35)
        assert phase_s("pool.execute") == pytest.approx(0.5)
        assert phase_s("nope") == 0.0
        assert [s.args for s in trace.spans] == [{}, {"batch": 3}, {}]

    def test_to_dict_offsets_relative_to_start(self):
        tel = _telemetry()
        trace = tel.start("/simulate", "POST")
        trace.add_span("cache.get", 100.5, 100.6, hit=False)
        tel.clock.tick(2.0)
        tel.finish(trace, 200)
        doc = trace.to_dict()
        assert doc["status"] == 200
        assert doc["duration_s"] == pytest.approx(2.0)
        (span,) = doc["spans"]
        assert span["name"] == "cache.get"
        assert span["offset_s"] == pytest.approx(0.5)
        assert span["duration_s"] == pytest.approx(0.1)
        assert span["meta"] == {"hit": False}

    def test_span_context_manager_records_window(self):
        tel = RequestTelemetry(ring=4)
        trace = tel.start("/x")
        with trace.span("route", handler="simulate"):
            pass
        (rec,) = trace.spans
        assert rec.name == "route"
        assert rec.end >= rec.start
        assert rec.args == {"handler": "simulate"}


class TestRing:
    def test_eviction_is_fifo_and_counted(self):
        tel = _telemetry(ring=3)
        traces = [tel.start(f"/r{i}") for i in range(5)]
        for trace in traces:
            tel.finish(trace, 200)
        assert tel.completed == 5
        assert tel.evicted == 2
        kept = [t.id for t in tel.recent()]
        assert kept == [traces[4].id, traces[3].id, traces[2].id]

    def test_recent_limit_and_inflight_ordering(self):
        tel = _telemetry(ring=8)
        first = tel.start("/a")
        tel.clock.tick(1.0)
        second = tel.start("/b")
        assert [t.id for t in tel.inflight()] == [first.id, second.id]
        tel.finish(second, 200)
        tel.finish(first, 200)
        assert [t.id for t in tel.recent(1)] == [first.id]
        assert tel.inflight() == []

    def test_ring_must_hold_at_least_one(self):
        with pytest.raises(ValueError):
            RequestTelemetry(ring=0)


class TestContextPropagation:
    def test_push_pop_and_use(self):
        tel = _telemetry()
        trace = tel.start("/x")
        assert reqtrace.current() is None
        token = reqtrace.push(trace)
        assert reqtrace.current() is trace
        reqtrace.pop(token)
        assert reqtrace.current() is None
        with reqtrace.use(trace):
            assert reqtrace.current() is trace
        assert reqtrace.current() is None

    def test_follows_asyncio_tasks(self):
        tel = _telemetry()

        async def handler(route):
            trace = tel.start(route)
            with reqtrace.use(trace):
                await asyncio.sleep(0)        # force interleaving
                with trace.span("work"):
                    await asyncio.sleep(0)
                return reqtrace.current().id, trace.id

        async def main():
            return await asyncio.gather(*(handler(f"/r{i}")
                                          for i in range(8)))

        for seen_id, own_id in asyncio.run(main()):
            assert seen_id == own_id


class TestChromeExport:
    def _finished(self, tel, route, spans):
        trace = tel.start(route, "POST")
        for name, start, end in spans:
            trace.add_span(name, start, end)
        tel.clock.tick(1.0)
        tel.finish(trace, 200)
        return trace

    def test_export_shape_and_rebased_timestamps(self):
        tel = _telemetry()
        a = self._finished(tel, "/simulate",
                           [("queue.wait", 100.0, 100.5)])
        b = self._finished(tel, "/compare", [])
        doc = request_trace([a, b])
        events = doc["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        assert metas[0]["name"] == "process_name"
        assert len([e for e in metas if e["name"] == "thread_name"]) == 2
        xs = [e for e in events if e["ph"] == "X"]
        assert min(e["ts"] for e in xs) == 0.0
        request_events = [e for e in xs if e["cat"] == "request"]
        assert {e["name"] for e in request_events} == {
            "POST /simulate", "POST /compare"}
        (span_event,) = [e for e in xs if e["cat"] == "phase"]
        assert span_event["name"] == "queue.wait"
        assert span_event["dur"] == pytest.approx(0.5e6)

    def test_json_form_is_canonical_and_pure(self):
        tel = _telemetry()
        trace = self._finished(tel, "/simulate",
                               [("route", 100.0, 100.2)])
        one = request_json([trace])
        two = request_json([trace])
        assert one == two
        json.loads(one)

    def test_empty_batch_still_valid(self):
        doc = request_trace([])
        assert doc["traceEvents"][0]["name"] == "process_name"


class TestStructuredLog:
    def test_one_sorted_json_line_per_event(self):
        sink = io.StringIO()
        log = StructuredLog(sink, clock=lambda: 123.456)
        log.log("serve.start", port=8008, host="127.0.0.1")
        (line,) = sink.getvalue().splitlines()
        assert json.loads(line) == {"event": "serve.start", "ts": 123.456,
                                    "host": "127.0.0.1", "port": 8008}
        assert line.index('"event"') < line.index('"host"') \
            < line.index('"port"') < line.index('"ts"')
        assert log.lines == 1

    def test_injects_request_id_from_current_trace(self):
        tel = _telemetry()
        trace = tel.start("/simulate")
        sink = io.StringIO()
        log = StructuredLog(sink, clock=lambda: 1.0)
        with reqtrace.use(trace):
            log.log("request.shed", route="/simulate")
        log.log("loadtest.end")
        shed, end = [json.loads(l) for l in sink.getvalue().splitlines()]
        assert shed["request_id"] == trace.id
        assert "request_id" not in end

    def test_file_sink_appends_and_closes(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = StructuredLog(str(path), clock=lambda: 1.0)
        log.log("a")
        log.close()
        log2 = StructuredLog(str(path), clock=lambda: 2.0)
        log2.log("b")
        log2.close()
        events = [json.loads(l)["event"]
                  for l in path.read_text().splitlines()]
        assert events == ["a", "b"]

    def test_emit_is_noop_until_installed(self):
        assert slog.ACTIVE is None
        slog.emit("ignored", x=1)          # must not raise
        sink = io.StringIO()
        log = slog.install(sink=sink)
        try:
            slog.emit("seen")
        finally:
            assert slog.uninstall() is log
        assert json.loads(sink.getvalue())["event"] == "seen"
        slog.emit("ignored.again")
        assert sink.getvalue().count("\n") == 1
