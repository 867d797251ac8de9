"""Request telemetry through the live serve stack.

The acceptance surface of the third observability pillar: a scraped
``/metrics`` passes the strict exposition parser, a computed request's
trace carries coalesce-wait / queue-wait / pool-execution spans, the
pool worker returns its results in input order, shed and timeout produce
request-id-correlated structured log lines, and — the zero-cost rule —
simulate bodies are byte-identical with telemetry on and off.
"""

import asyncio
import dataclasses
import io
import json

import pytest

from repro.core.characterization import RunKey, simulate_cell
from repro.loadgen.client import _Connection, fetch_traces
from repro.mapreduce.config import DEFAULT_CONF
from repro.obs import reqtrace, slog
from repro.obs.registry import parse_exposition
from repro.serve.run import start_stack, stop_stack
from repro.serve.service import (RequestTimeout, ServiceConfig,
                                 SimulationService)
from repro.serve.work import simulate_batch

KEY = RunKey(machine="atom", workload="wordcount", freq_ghz=1.2,
             data_per_node_gb=0.05, n_nodes=2)
BODY = json.dumps({"machine": "atom", "workload": "wordcount",
                   "freq_ghz": 1.2, "data_per_node_gb": 0.05,
                   "n_nodes": 2})


def _config(tmp_path, **overrides):
    base = dict(workers=1, queue_limit=32, shards=2,
                cache_dir=str(tmp_path / "cache"))
    base.update(overrides)
    return ServiceConfig(**base)


async def _with_stack(config, fn):
    handle = await start_stack(config)
    conn = _Connection(handle.host, handle.port)
    try:
        return await fn(handle, conn)
    finally:
        conn.close()
        await stop_stack(handle, graceful=False)


def _span_names(trace_doc):
    return {s["name"] for s in trace_doc["spans"]}


def _spans(trace_doc, name):
    return [s for s in trace_doc["spans"] if s["name"] == name]


# -- /metrics conformance ---------------------------------------------------

def test_metrics_pass_the_conformance_parser_after_traffic(tmp_path):
    async def scenario(handle, conn):
        await conn.request("POST", "/simulate", BODY)
        await conn.request("POST", "/simulate", BODY)       # cache hit
        await conn.request("GET", "/healthz")
        await conn.request("GET", "/nope")                  # 404 counted
        return await conn.request("GET", "/metrics")

    status, body = asyncio.run(_with_stack(_config(tmp_path), scenario))
    assert status == 200
    families = parse_exposition(body.decode("utf-8"))
    assert families["repro_requests_total"]["type"] == "counter"
    assert families["repro_request_latency_seconds"]["type"] == "histogram"
    assert families["repro_cache_hits_total"]["samples"][0][2] >= 1
    names = {s[0] for s in
             families["repro_request_latency_seconds"]["samples"]}
    assert "repro_request_latency_seconds_sum" in names
    assert "repro_request_latency_seconds_count" in names
    assert b"quantile=" not in body


# -- the trace of one computed request --------------------------------------

def test_computed_request_has_the_full_span_chain(tmp_path):
    async def scenario(handle, conn):
        status, _body = await conn.request("POST", "/simulate", BODY)
        request_id = conn.last_headers.get("x-repro-request-id")
        d_status, d_body = await conn.request("GET", "/debug/requests")
        return status, request_id, d_status, json.loads(d_body)

    status, request_id, d_status, doc = asyncio.run(
        _with_stack(_config(tmp_path), scenario))
    assert status == 200 and d_status == 200
    assert request_id
    (trace,) = [t for t in doc["traces"] if t["id"] == request_id]
    assert trace["route"] == "/simulate"
    assert trace["status"] == 200
    assert {"http.parse", "route", "cache.get", "coalesce.wait",
            "queue.wait", "pool.execute", "cache.store"} \
        <= _span_names(trace)
    # The admitting request's coalesce.wait is the joined=False side.
    (wait,) = _spans(trace, "coalesce.wait")
    assert wait["meta"] == {"joined": False}
    (pool,) = _spans(trace, "pool.execute")
    assert pool["meta"] == {"batch": 1}
    (route,) = _spans(trace, "route")
    assert route["meta"] == {"handler": "simulate"}


def test_simulate_batch_returns_pairs_in_input_order():
    # The service fans results out by position, so the worker must keep
    # the input order (duplicates included) and compute each cell
    # exactly as the in-process path does.
    keys = [KEY, dataclasses.replace(KEY, machine="xeon"), KEY]
    pairs = simulate_batch(keys, DEFAULT_CONF)
    assert [key for key, _result in pairs] == keys
    assert [repr(result) for _key, result in pairs] == \
        [repr(simulate_cell(key, DEFAULT_CONF)) for key in keys]


def test_coalesced_requests_get_their_own_traces(tmp_path):
    async def run():
        service = SimulationService(_config(tmp_path))
        await service.start()
        try:
            tel = service.telemetry

            async def one():
                trace = tel.start("/simulate", "POST")
                with reqtrace.use(trace):
                    await service.submit([KEY])
                tel.finish(trace, 200)

            await asyncio.gather(*(one() for _ in range(4)))
            return [t.to_dict() for t in tel.recent()]
        finally:
            await service.stop()

    docs = asyncio.run(run())
    assert len(docs) == 4

    def joined_flags(doc):
        return [s["meta"]["joined"] for s in _spans(doc, "coalesce.wait")]

    owners = [d for d in docs if joined_flags(d) == [False]]
    riders = [d for d in docs if joined_flags(d) == [True]]
    assert len(owners) == 1 and len(riders) == 3
    # Only the owning request carries the pool-execution window; the
    # riders spent their whole service time in coalesce.wait.
    assert _spans(owners[0], "pool.execute")
    assert all(not _spans(d, "pool.execute") for d in riders)
    assert all(not _spans(d, "cache.get") for d in riders)


# -- debug endpoints --------------------------------------------------------

def test_debug_requests_chrome_download_and_limits(tmp_path):
    async def scenario(handle, conn):
        for _ in range(3):
            await conn.request("POST", "/simulate", BODY)
        chrome = await conn.request("GET", "/debug/requests?format=chrome")
        disposition = conn.last_headers.get("content-disposition", "")
        limited = await conn.request("GET", "/debug/requests?limit=1")
        bad = await conn.request("GET", "/debug/requests?limit=zero")
        fetched = await fetch_traces(handle.host, handle.port)
        return chrome, disposition, limited, bad, fetched

    chrome, disposition, limited, bad, fetched = asyncio.run(
        _with_stack(_config(tmp_path), scenario))
    assert chrome[0] == 200
    assert "attachment" in disposition
    doc = json.loads(chrome[1])
    assert any(e.get("cat") == "request" for e in doc["traceEvents"])
    assert len(json.loads(limited[1])["traces"]) == 1
    assert bad[0] == 400
    assert fetched is not None and json.loads(fetched)["traceEvents"]


def test_debug_inflight_shows_the_probing_request(tmp_path):
    async def scenario(handle, conn):
        return await conn.request("GET", "/debug/inflight")

    status, body = asyncio.run(_with_stack(_config(tmp_path), scenario))
    assert status == 200
    doc = json.loads(body)
    # The probing GET itself is the one open trace at snapshot time.
    assert doc["inflight"] == 1
    assert doc["traces"][0]["route"] == "/debug/inflight"
    assert doc["traces"][0]["status"] is None


def test_ring_bounds_completed_traces_under_load(tmp_path):
    async def scenario(handle, conn):
        for _ in range(9):
            await conn.request("GET", "/healthz")
        status, body = await conn.request("GET", "/debug/requests")
        return status, json.loads(body)

    status, doc = asyncio.run(
        _with_stack(_config(tmp_path, trace_ring=4), scenario))
    assert status == 200
    assert doc["ring_size"] == 4
    assert len(doc["traces"]) == 4
    assert doc["completed"] == 9
    assert doc["evicted"] == 5
    # Newest first: the ring kept only the most recent sequence numbers.
    seqs = [int(t["id"].rsplit("-", 1)[1]) for t in doc["traces"]]
    assert seqs == sorted(seqs, reverse=True)


# -- telemetry off: 404s, no header, byte-identical bodies ------------------

def test_telemetry_off_disables_debug_endpoints_and_header(tmp_path):
    async def scenario(handle, conn):
        sim = await conn.request("POST", "/simulate", BODY)
        header = conn.last_headers.get("x-repro-request-id")
        debug = await conn.request("GET", "/debug/requests")
        inflight = await conn.request("GET", "/debug/inflight")
        return sim, header, debug, inflight

    sim, header, debug, inflight = asyncio.run(
        _with_stack(_config(tmp_path, telemetry=False), scenario))
    assert sim[0] == 200
    assert header is None
    assert debug[0] == 404 and inflight[0] == 404


def test_simulate_bodies_byte_identical_with_telemetry_on_and_off(tmp_path):
    compare_body = json.dumps({"workload": "wordcount", "freq_ghz": 1.2,
                               "data_per_node_gb": 0.05, "n_nodes": 2})

    def bodies(telemetry, cache_dir):
        async def scenario(handle, conn):
            out = []
            for path, body in (("/simulate", BODY),
                               ("/simulate", BODY),    # cache-hit path
                               ("/compare", compare_body)):
                status, data = await conn.request("POST", path, body)
                assert status == 200
                out.append(data)
            return out

        config = ServiceConfig(workers=1, queue_limit=32, shards=2,
                               cache_dir=cache_dir, telemetry=telemetry)
        return asyncio.run(_with_stack(config, scenario))

    assert bodies(True, str(tmp_path / "cache-on")) \
        == bodies(False, str(tmp_path / "cache-off"))


# -- structured logging of shed / timeout -----------------------------------

def test_shed_emits_log_line_with_request_id(tmp_path, monkeypatch):
    sink = io.StringIO()
    slog.install(sink=sink)
    try:
        async def scenario(handle, conn):
            # Pretend the admission queue is at its limit.
            monkeypatch.setattr(handle.service, "_admitted",
                                handle.service.config.queue_limit)
            status, _ = await conn.request("POST", "/simulate", BODY)
            return status, conn.last_headers.get("x-repro-request-id")

        status, request_id = asyncio.run(
            _with_stack(_config(tmp_path), scenario))
    finally:
        slog.uninstall()

    assert status == 429
    assert request_id
    events = [json.loads(line) for line in sink.getvalue().splitlines()]
    (shed,) = [e for e in events if e["event"] == "request.shed"]
    assert shed["request_id"] == request_id
    assert shed["route"] == "/simulate"
    assert shed["queue_limit"] == 32


def test_timeout_emits_log_line_with_request_id(tmp_path):
    sink = io.StringIO()
    slog.install(sink=sink)
    try:
        async def scenario(handle, conn):
            async def deadline_blown(keys):
                raise RequestTimeout("no result within 0.05s")

            handle.service.submit = deadline_blown
            status, _ = await conn.request("POST", "/simulate", BODY)
            return status, conn.last_headers.get("x-repro-request-id")

        status, request_id = asyncio.run(
            _with_stack(_config(tmp_path), scenario))
    finally:
        slog.uninstall()

    assert status == 504
    assert request_id
    events = [json.loads(line) for line in sink.getvalue().splitlines()]
    (timeout,) = [e for e in events if e["event"] == "request.timeout"]
    assert timeout["request_id"] == request_id
    assert timeout["route"] == "/simulate"
    assert timeout["timeout_s"] == pytest.approx(30.0)
