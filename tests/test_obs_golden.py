"""Byte-pinned observability outputs, built with injected fake clocks.

Each test renders one observability document from a fixed set of
observations and compares it byte for byte with a checked-in file under
``tests/data/obs/``:

* the ``/metrics`` registry render, text exposition and JSON;
* :meth:`RequestTrace.to_dict` for a finished and an in-flight trace;
* the ``/debug/requests`` JSON body and its ``?format=chrome`` download
  (served by the real app over a service whose telemetry runs on a fake
  clock, so the test is independent of how the export is wired);
* :meth:`Profiler.to_dict` and :meth:`Profiler.render`.

Regenerate after an intentional format change with
``PYTHONPATH=src python tests/test_obs_golden.py`` and commit the
refreshed files together with the change that moved them.
"""

from __future__ import annotations

import asyncio
import json
import sys
from pathlib import Path
from typing import Callable, Dict

from repro.obs.prof import Profiler
from repro.obs.registry import MetricsRegistry
from repro.obs.reqtrace import RequestTelemetry
from repro.serve.app import SimulationApp
from repro.serve.http import Request
from repro.serve.service import ServiceConfig, SimulationService

DATA = Path(__file__).parent / "data" / "obs"


class _FakeClock:
    def __init__(self, start: float = 500.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def tick(self, dt: float) -> float:
        self.now += dt
        return self.now


def _canonical(doc) -> bytes:
    return (json.dumps(doc, sort_keys=True, separators=(",", ":"))
            + "\n").encode("utf-8")


# -- builders -----------------------------------------------------------------

def _registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    requests = reg.counter("requests_total", "Requests, by route and status.",
                           labels=("route", "status"))
    requests.labels("/simulate", "200").inc(3)
    requests.labels(route="/compare", status="429").inc()
    requests.labels("/odd \"path\"\n", "404").inc()
    reg.counter("shed_total", "Shed requests.").inc(2)
    reg.counter("cache_hits_total", "Cache hits.").sync(17)
    gauge = reg.gauge("inflight_cells", "Cells in flight.")
    gauge.set(7)
    gauge.add(-2.5)
    reg.gauge("never_set", "A gauge nobody touched.")
    latency = reg.histogram("request_latency_seconds",
                            "Latency, by route.", labels=("route",))
    for value in (0.001, 0.0125, 0.0125, 0.25, 3.0, 1e-9, 5000.0):
        latency.labels("/simulate").observe(value)
    latency.labels("/compare").observe(0.04)
    reg.histogram("solo_seconds", "An unlabelled histogram.").observe(0.3)
    return reg


def _telemetry(clock: _FakeClock) -> RequestTelemetry:
    tel = RequestTelemetry(ring=8, clock=clock, wall=lambda: 1700000000.25)
    tel.token = "0badcafe"
    return tel


def _fill(tel: RequestTelemetry, clock: _FakeClock):
    """Three finished traces plus one still in flight."""
    first = tel.start("/simulate", "POST", t0=499.75)
    first.add_span("http.parse", 499.75, 499.7501, body_bytes=96)
    first.add_span("pool.execute", 500.2, 500.9, batch=3, tag=first.id)
    first.add_span("queue.wait", 500.05, 500.2)
    first.add_span("coalesce.wait", 500.01, 500.95, joined=False)
    first.add_span("cache.store", 500.9, 500.93)
    clock.tick(1.0)
    tel.finish(first, 200)

    second = tel.start("/compare", "POST")
    second.add_span("coalesce.wait", 501.0, 501.5, joined=True)
    second.add_span("cache.get", 500.99, 501.0, hit=False)
    clock.tick(0.5)
    tel.finish(second, 200)

    third = tel.start("/simulate", "POST")
    clock.tick(0.125)
    tel.finish(third, 429)

    inflight = tel.start("/sweep", "POST")
    inflight.add_span("route", 501.7, 501.8, handler="sweep")
    return first, second, third, inflight


def _request_traces() -> bytes:
    clock = _FakeClock()
    tel = _telemetry(clock)
    traces = _fill(tel, clock)
    return _canonical([trace.to_dict() for trace in traces])


def _debug_body(query: Dict[str, str], fill: bool = True) -> bytes:
    async def main() -> bytes:
        service = SimulationService(ServiceConfig(no_cache=True,
                                                  trace_ring=8))
        clock = _FakeClock()
        service.telemetry = _telemetry(clock)
        if fill:
            _fill(service.telemetry, clock)
        app = SimulationApp(service)
        response = await app.handle(Request(
            method="GET", path="/debug/requests", query=query,
            headers={}, body=b""))
        assert response.status == 200, response.body
        return response.body

    return asyncio.run(main())


def _profiler() -> Profiler:
    clock = _FakeClock(0.0)
    p = Profiler(clock=clock)
    with p.phase("driver.stage"):
        clock.tick(0.75)
    with p.phase("driver.stage"):
        clock.tick(0.125)
    p.record("engine.dispatch", 0.3, calls=3)
    p.record("engine.dispatch", 0.1, calls=7)
    p.record("hdfs.place_block", 2e-6)
    p.count("engine.heap_pushes", 41)
    p.count("engine.cancel_skips")
    other = Profiler(clock=clock)
    other.record("hdfs.place_block", 5e-6)
    other.record("cache.get", 1e-3)
    other.count("engine.heap_pushes", 1)
    p.merge(other)
    return p


GOLDENS: Dict[str, Callable[[], bytes]] = {
    "metrics.prom": lambda: _registry().render_prometheus().encode("utf-8"),
    "metrics.json": lambda: _canonical(_registry().render_json()),
    "request_traces.json": _request_traces,
    "debug_requests.json": lambda: _debug_body({"limit": "2"}) + b"\n",
    "requests_chrome.json":
        lambda: _debug_body({"format": "chrome"}) + b"\n",
    "requests_chrome_empty.json":
        lambda: _debug_body({"format": "chrome"}, fill=False) + b"\n",
    "profile.json": lambda: _canonical(_profiler().to_dict()),
    "profile.txt": lambda: (_profiler().render() + "\n").encode("utf-8"),
}


def _check(name: str) -> None:
    expected = (DATA / name).read_bytes()
    actual = GOLDENS[name]()
    assert actual == expected, (
        f"{name} drifted from its golden file; if the change is "
        f"intentional, regenerate with "
        f"`PYTHONPATH=src python tests/test_obs_golden.py`")


def test_metrics_prometheus_text_is_pinned():
    _check("metrics.prom")


def test_metrics_json_is_pinned():
    _check("metrics.json")


def test_request_trace_to_dict_is_pinned():
    _check("request_traces.json")


def test_debug_requests_json_body_is_pinned():
    _check("debug_requests.json")


def test_request_chrome_export_is_pinned():
    _check("requests_chrome.json")


def test_empty_request_chrome_export_is_pinned():
    _check("requests_chrome_empty.json")


def test_profiler_to_dict_is_pinned():
    _check("profile.json")


def test_profiler_render_is_pinned():
    _check("profile.txt")


if __name__ == "__main__":
    DATA.mkdir(parents=True, exist_ok=True)
    for name, build in GOLDENS.items():
        (DATA / name).write_bytes(build())
        print(f"wrote {DATA / name}", file=sys.stderr)
