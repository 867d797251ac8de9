"""Routes and payload schemas for the what-if API.

Seven endpoints (see ``docs/SERVICE.md`` for the full reference):

* ``POST /simulate`` — one grid cell; body is RunKey fields.
* ``POST /sweep``    — a grid; each RunKey field may be a list (axes).
* ``POST /compare``  — "which machine should run this workload?";
  simulates the described job on both machines and recommends by the
  requested cost goal (EDP / ED2P / ED3P).
* ``GET /healthz``   — liveness; 503 while draining.
* ``GET /metrics``   — valid Prometheus text exposition (or
  ``?format=json``), rendered by the typed registry.
* ``GET /debug/requests`` — recently completed request traces
  (``?format=chrome`` downloads a Perfetto-loadable trace).
* ``GET /debug/inflight`` — requests currently being served.

Every 200 body from the simulate family is canonical JSON (sorted keys,
compact separators) and a pure function of the request body, so
identical requests get byte-identical bodies whether they were
computed, coalesced, or served from cache — the serving path is
reported in the ``X-Repro-Source`` header instead, and the request's
trace id (when telemetry is on) in ``X-Repro-Request-Id``.  Bodies are
spliced from each cell's canonical encoding, which the app keeps (see
:meth:`SimulationApp._encode`), so a cell served again is not encoded
again.
"""

from __future__ import annotations

import functools
import math
import time
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.executor import MEMORY_ENTRIES
from ..analysis.experiments import ALL_EXPERIMENTS
from ..arch.dvfs import GHZ
from ..arch.presets import MACHINES
from ..core.characterization import Characterizer, RunKey
from ..core.metrics import edxp
from ..mapreduce.driver import JobResult
from ..obs import reqtrace, slog
from ..obs.export import request_json
from ..obs.reqtrace import RequestTrace
from ..workloads.base import all_workloads, workload
from .http import BadRequest, Request, Response, canonical_json
from .service import (ComputeError, Draining, Overloaded, RequestTimeout,
                      SimulationService)

__all__ = ["SimulationApp", "parse_run_key", "plan_limits",
           "result_payload"]

#: RunKey fields accepted in request bodies, with (type, required).
_KEY_FIELDS: Tuple[Tuple[str, type, bool], ...] = (
    ("machine", str, True),
    ("workload", str, True),
    ("freq_ghz", float, False),
    ("block_size_mb", float, False),
    ("data_per_node_gb", float, False),
    ("n_nodes", int, False),
    ("cores_per_node", int, False),
    ("map_slots_per_node", int, False),
)
_KEY_NAMES = frozenset(name for name, _, _ in _KEY_FIELDS)

_COMPARE_GOALS = {"EDP": 1, "ED2P": 2, "ED3P": 3}

#: The ``route`` label of requests to paths no endpoint serves: one fixed
#: value, so clients cannot mint ``/metrics`` series by varying the path.
UNMATCHED_ROUTE = "unmatched"


def _coerce(name: str, value, kind: type):
    """Type-check one body field (strict: no bools-as-ints, no strings)."""
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise BadRequest(f"{name} must be a number, got {value!r}")
        try:
            value = float(value)
        except OverflowError:
            raise BadRequest(f"{name} is too large for a float") from None
        if not math.isfinite(value):
            raise BadRequest(f"{name} must be finite, got {value!r}")
        if value <= 0:
            raise BadRequest(f"{name} must be positive, got {value!r}")
        return value
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise BadRequest(f"{name} must be an integer, got {value!r}")
        if value < 1:
            raise BadRequest(f"{name} must be >= 1, got {value!r}")
        return value
    if not isinstance(value, str):
        raise BadRequest(f"{name} must be a string, got {value!r}")
    return value


@functools.lru_cache(maxsize=None)
def plan_limits() -> Tuple[float, int, float]:
    """The largest ``data_per_node_gb`` and ``n_nodes`` and the smallest
    ``block_size_mb`` of any cell in the default experiment plans.

    No paper table asks one cell for more work, so requests beyond them
    are refused: one oversized cell would pin a pool worker and stall
    every cell batched with it.
    """
    ch = Characterizer()
    keys = [cell if isinstance(cell, RunKey) else cell[0]
            for driver in ALL_EXPERIMENTS.values()
            for cell in driver.plan(ch).cells]
    return (max(key.data_per_node_gb for key in keys),
            max(key.n_nodes for key in keys),
            min(key.block_size_mb for key in keys))


def _check_bounds(key: RunKey) -> None:
    """Refuse a cell the model cannot run or that outgrows the plans."""
    spec = MACHINES[key.machine]
    if not spec.dvfs.supports(key.freq_ghz * GHZ):
        freqs = spec.dvfs.frequencies_ghz
        raise BadRequest(
            f"freq_ghz {key.freq_ghz!r} is outside {key.machine}'s DVFS "
            f"range {freqs[0]:g}..{freqs[-1]:g} GHz")
    for name in ("cores_per_node", "map_slots_per_node"):
        value = getattr(key, name)
        if value is not None and value > spec.cores_per_node:
            raise BadRequest(
                f"{name} must be 1..{spec.cores_per_node} on "
                f"{key.machine}, got {value}")
    max_gb, max_nodes, min_block = plan_limits()
    if key.data_per_node_gb > max_gb:
        raise BadRequest(f"data_per_node_gb must be <= {max_gb:g}, "
                         f"got {key.data_per_node_gb!r}")
    if key.n_nodes > max_nodes:
        raise BadRequest(f"n_nodes must be <= {max_nodes}, "
                         f"got {key.n_nodes}")
    if key.block_size_mb < min_block:
        raise BadRequest(f"block_size_mb must be >= {min_block:g}, "
                         f"got {key.block_size_mb!r}")


def _unknown_fields(doc: Dict[str, object]) -> None:
    if not _KEY_NAMES.issuperset(doc):
        unknown = sorted(set(doc) - _KEY_NAMES)
        raise BadRequest(f"unknown fields: {', '.join(unknown)}")


def parse_run_key(doc: Dict[str, object]) -> RunKey:
    """Validate a request document into a :class:`RunKey` (400 on error).

    Beyond types, a cell must be one the model can run (a frequency in
    the machine's DVFS range, 1 to its core count of cores and map
    slots) and no larger than :func:`plan_limits` allows.
    """
    if not isinstance(doc, dict):
        raise BadRequest("body must be a JSON object")
    _unknown_fields(doc)
    kwargs = {}
    for name, kind, required in _KEY_FIELDS:
        value = doc.get(name)
        if value is None:
            if required:
                raise BadRequest(f"missing required field {name!r}")
            continue
        kwargs[name] = _coerce(name, value, kind)
    if kwargs["machine"] not in MACHINES:
        raise BadRequest(
            f"unknown machine {kwargs['machine']!r}; "
            f"available: {sorted(MACHINES)}")
    try:
        workload(kwargs["workload"])
    except KeyError:
        raise BadRequest(
            f"unknown workload {kwargs['workload']!r}; "
            f"available: {sorted(all_workloads())}") from None
    key = RunKey(**kwargs)
    _check_bounds(key)
    return key


def result_payload(key: RunKey, result: JobResult) -> Dict[str, object]:
    """The stable response schema for one simulated cell."""
    energy = result.dynamic_energy_j
    delay = result.execution_time_s
    return {
        "machine": key.machine,
        "workload": key.workload,
        "freq_ghz": key.freq_ghz,
        "block_size_mb": key.block_size_mb,
        "data_per_node_gb": key.data_per_node_gb,
        "n_nodes": key.n_nodes,
        "cores_per_node": key.cores_per_node,
        "map_slots_per_node": key.map_slots_per_node,
        "execution_time_s": delay,
        "dynamic_power_w": result.dynamic_power_w,
        "dynamic_energy_j": energy,
        "edp_js": edxp(energy, delay, 1),
        "ed2p_js2": edxp(energy, delay, 2),
        "ipc": result.ipc,
        "phases": {
            phase: {"seconds": result.phase_time(phase),
                    "fraction": result.phase_fraction(phase)}
            for phase in ("map", "reduce", "other")
        },
        "map_attempts": result.counters.map_attempts,
        "reduce_attempts": result.counters.reduce_attempts,
    }


def _source_header(sources: Sequence[str]) -> Tuple[Tuple[str, str], ...]:
    if len(sources) == 1:
        return (("X-Repro-Source", sources[0]),)
    tally = {}
    for source in sources:
        tally[source] = tally.get(source, 0) + 1
    joined = ",".join(f"{name}={tally[name]}" for name in sorted(tally))
    return (("X-Repro-Source", joined),)


class SimulationApp:
    """Maps HTTP requests onto one :class:`SimulationService`."""

    def __init__(self, service: SimulationService):
        self.service = service
        #: Encoded cell payloads (see :meth:`_encode`).  Owned by the
        #: app, not the module, so a new stack starts with none.
        self._encoded: Dict[object, bytes] = {}
        plan_limits()       # derive the request bounds before serving
        self._routes = {
            ("POST", "/simulate"): self._simulate,
            ("POST", "/sweep"): self._sweep,
            ("POST", "/compare"): self._compare,
            ("GET", "/healthz"): self._healthz,
            ("GET", "/metrics"): self._metrics,
            ("GET", "/debug/requests"): self._debug_requests,
            ("GET", "/debug/inflight"): self._debug_inflight,
        }

    # -- entry point -------------------------------------------------------

    async def handle(self, request: Request) -> Response:
        """Dispatch one request, tracing it when telemetry is on.

        The trace covers the whole request: the ``http.parse`` window is
        back-filled from the stamps :func:`repro.serve.http.read_request`
        left on the request, the handler runs under the trace context
        (so the service's coalesce/queue/pool spans attach to it), and
        the trace id rides back in ``X-Repro-Request-Id``.  With
        telemetry off this method is exactly the PR 8 dispatch path —
        no trace objects, no context switches, byte-identical bodies.
        """
        tel = self.service.telemetry
        if tel is not None:
            trace = tel.start(request.path, request.method,
                              t0=request.recv_start or None)
            if 0.0 < request.recv_start <= request.recv_end:
                trace.add_span("http.parse", request.recv_start,
                               request.recv_end,
                               body_bytes=len(request.body))
            token = reqtrace.push(trace)
            try:
                response = await self._dispatch(request, trace)
            except BaseException:
                tel.finish(trace, 500)   # handler bug -> http.py's 500
                raise
            finally:
                reqtrace.pop(token)
            tel.finish(trace, response.status)
            return Response(
                status=response.status, body=response.body,
                content_type=response.content_type,
                headers=response.headers
                + (("X-Repro-Request-Id", trace.id),))
        return await self._dispatch(request, None)

    async def _dispatch(self, request: Request,
                        trace: Optional[RequestTrace]) -> Response:
        route = request.path
        handler = self._routes.get((request.method, request.path))
        if handler is None:
            known_paths = {path for _m, path in self._routes}
            if request.path in known_paths:
                response = Response.error(
                    405, f"{request.method} not allowed on {request.path}")
            else:
                route = UNMATCHED_ROUTE
                response = Response.error(
                    404, f"no such endpoint {request.path!r}")
            self.service.stats.requests.labels(
                route=route, status=str(response.status)).inc()
            return response
        t0 = time.perf_counter()
        config = self.service.config
        try:
            response = await self._invoke(handler, request, trace)
        except BadRequest as exc:
            response = Response.error(exc.status, str(exc))
        except Overloaded as exc:
            slog.emit("request.shed", route=route,
                      queue_limit=config.queue_limit)
            response = Response.error(
                429, str(exc),
                headers=(("Retry-After", str(config.retry_after_s)),))
        except Draining as exc:
            slog.emit("request.drained", route=route)
            response = Response.error(
                503, str(exc),
                headers=(("Retry-After", str(config.retry_after_s)),))
        except RequestTimeout as exc:
            slog.emit("request.timeout", route=route,
                      timeout_s=config.request_timeout_s)
            response = Response.error(504, str(exc))
        except ComputeError as exc:
            slog.emit("request.error", route=route, error=str(exc))
            if isinstance(exc.cause, (ValueError, KeyError)):
                response = Response.error(400, str(exc))
            else:
                response = Response.error(500, str(exc))
        except Exception:
            # A handler bug: http.py answers it with a 500, so count
            # and time it as one before letting it propagate.
            self._served(route, 500, t0)
            raise
        self._served(route, response.status, t0)
        return response

    def _served(self, route: str, status: int, t0: float) -> None:
        stats = self.service.stats
        stats.requests.labels(route=route, status=str(status)).inc()
        stats.latency.labels(route=route).observe(time.perf_counter() - t0)

    async def _invoke(self, handler, request: Request,
                      trace: Optional[RequestTrace]) -> Response:
        if trace is None:
            return await handler(request)
        with trace.span("route", handler=handler.__name__.lstrip("_")):
            return await handler(request)

    # -- endpoints ---------------------------------------------------------

    async def _simulate(self, request: Request) -> Response:
        key = parse_run_key(request.json_body())
        ((key_hex, result, source),) = await self.service.submit([key])
        body = b'{"result":' + self._encode(key_hex, key, result) + b"}"
        return Response(body=body, headers=_source_header([source]))

    async def _sweep(self, request: Request) -> Response:
        doc = request.json_body()
        if not isinstance(doc, dict):
            raise BadRequest("body must be a JSON object")
        keys = self._expand_axes(doc)
        limit = self.service.config.max_sweep_cells
        if len(keys) > limit:
            raise BadRequest(
                f"sweep of {len(keys)} cells exceeds the per-request "
                f"limit of {limit}", status=413)
        cells = await self.service.submit(keys)
        rows = b",".join(self._encode(key_hex, key, result)
                         for key, (key_hex, result, _source)
                         in zip(keys, cells))
        body = b'{"cells":%d,"results":[%s]}' % (len(keys), rows)
        return Response(body=body, headers=_source_header(
            [source for _h, _r, source in cells]))

    def _expand_axes(self, doc: Dict[str, object]) -> List[RunKey]:
        """Cartesian product of list-valued fields, in field order."""
        _unknown_fields(doc)
        cells: List[Dict[str, object]] = [{}]
        for name, _kind, _required in _KEY_FIELDS:
            if name not in doc:
                continue
            values = doc[name]
            if not isinstance(values, list):
                values = [values]
            if not values:
                raise BadRequest(f"axis {name!r} is empty")
            cells = [dict(cell, **{name: value})
                     for cell in cells for value in values]
        return [parse_run_key(cell) for cell in cells]

    async def _compare(self, request: Request) -> Response:
        doc = request.json_body()
        if not isinstance(doc, dict):
            raise BadRequest("body must be a JSON object")
        goal = doc.pop("goal", "EDP")
        if not isinstance(goal, str) or goal not in _COMPARE_GOALS:
            raise BadRequest(
                f"unknown goal {goal!r}; available: "
                f"{sorted(_COMPARE_GOALS)}")
        if "machine" in doc:
            raise BadRequest(
                "compare picks the machine; do not pass one")
        exponent = _COMPARE_GOALS[goal]
        machines = sorted(MACHINES)
        keys = [parse_run_key(dict(doc, machine=machine))
                for machine in machines]
        cells = await self.service.submit(keys)
        candidates: List[bytes] = []
        costs: Dict[str, float] = {}
        for key, (key_hex, result, _source) in zip(keys, cells):
            cost = edxp(result.dynamic_energy_j,
                        result.execution_time_s, exponent)
            costs[key.machine] = cost
            candidates.append(canonical_json(key.machine) + b":"
                              + self._encode((key_hex, goal), key, result,
                                             cost=cost))
        winner = min(machines, key=lambda m: (costs[m], m))
        others = [m for m in machines if m != winner]
        runner_up = min(others, key=lambda m: (costs[m], m))
        ratio = (costs[winner] / costs[runner_up]
                 if costs[runner_up] else 0.0)
        rest = canonical_json({
            "workload": doc.get("workload"),
            "goal": goal,
            "winner": winner,
            "cost_ratio_winner_over_runner_up": ratio,
            "recommendation": (
                f"{winner} wins on {goal}: {costs[winner]:.4g} vs "
                f"{costs[runner_up]:.4g} for {runner_up} "
                f"({ratio:.3g}x)"),
        })
        # "candidates" sorts before every other key of the body.
        body = (b'{"candidates":{' + b",".join(candidates) + b"},"
                + rest[1:])
        return Response(body=body, headers=_source_header(
            [source for _h, _r, source in cells]))

    def _encode(self, memo_key, key: RunKey, result: JobResult,
                **extra: float) -> bytes:
        """The canonical JSON of one cell's payload (plus *extra*
        fields), encoded once per *memo_key* and then reused.

        A cell's ``key_hex`` fixes its payload; a ``/compare`` candidate
        adds its cost, so it is remembered under ``(key_hex, goal)``.
        The memo keeps at most :data:`MEMORY_ENTRIES` encodings and
        evicts the oldest first.
        """
        memo = self._encoded
        encoded = memo.get(memo_key)
        if encoded is None:
            payload = result_payload(key, result)
            payload.update(extra)
            encoded = canonical_json(payload)
            if len(memo) >= MEMORY_ENTRIES:
                del memo[next(iter(memo))]
            memo[memo_key] = encoded
        return encoded

    async def _healthz(self, request: Request) -> Response:
        if self.service.draining:
            return Response.json({"status": "draining"}, status=503)
        return Response.json({
            "status": "ok",
            "workers": self.service.config.workers,
            "inflight_cells": self.service.inflight_cells,
            "uptime_s": round(time.time() - self.service.stats.started_at,
                              3),
        })

    async def _metrics(self, request: Request) -> Response:
        # One renderer for both formats: the PR 8 hand-assembled text
        # (no TYPE/HELP, quantile on a gauge, no _sum/_count) is gone —
        # the registry output passes repro.obs.registry.parse_exposition
        # and CI scrapes + validates it on every push.
        registry = self.service.sync_metrics()
        if request.query.get("format") == "json":
            return Response.json(registry.render_json())
        return Response(
            status=200,
            body=registry.render_prometheus().encode("utf-8"),
            content_type="text/plain; version=0.0.4")

    async def _debug_requests(self, request: Request) -> Response:
        tel = self.service.telemetry
        if tel is not None:
            raw_limit = request.query.get("limit")
            limit = None
            if raw_limit is not None:
                try:
                    limit = int(raw_limit)
                except ValueError:
                    raise BadRequest(f"bad limit {raw_limit!r}") from None
                if limit < 1:
                    raise BadRequest("limit must be >= 1")
            traces = tel.recent(limit)
            fmt = request.query.get("format", "json")
            if fmt == "chrome":
                body = request_json(traces).encode("utf-8")
                return Response(
                    status=200, body=body,
                    content_type="application/json",
                    headers=(("Content-Disposition",
                              'attachment; '
                              'filename="requests.trace.json"'),))
            if fmt != "json":
                raise BadRequest(
                    f"unknown format {fmt!r}; available: json, chrome")
            return Response.json({
                "ring_size": tel.ring_size,
                "completed": tel.completed,
                "evicted": tel.evicted,
                "traces": [trace.to_dict() for trace in traces],
            })
        raise BadRequest(
            "request telemetry is disabled (--no-telemetry)", status=404)

    async def _debug_inflight(self, request: Request) -> Response:
        tel = self.service.telemetry
        if tel is not None:
            traces = tel.inflight()
            return Response.json({
                "inflight": len(traces),
                "traces": [trace.to_dict() for trace in traces],
            })
        raise BadRequest(
            "request telemetry is disabled (--no-telemetry)", status=404)
