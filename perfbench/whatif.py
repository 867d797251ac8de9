"""``whatif-warm`` / ``whatif-cold``: the what-if service over loopback HTTP.

The stack is the program's own (:func:`repro.serve.run.start_stack`, in
its default :class:`~repro.serve.service.ServiceConfig` apart from the
cache directory); the client is a closed loop of :data:`CONNECTIONS`
keep-alive connections that each send their next request only after the
previous reply.  Client and server share this process's event loop, as
``repro-hadoop loadtest --spawn`` does; the pool workers are the
service's own processes.  The client is this file's own small HTTP/1.1
client rather than ``repro.loadgen``: it keeps every raw latency sample
(the load generator keeps log-bucketed histograms) and does not move
when the program's own client is refactored.

* ``whatif-warm`` pre-fills the service's sharded cache with every cell
  the trace can touch, so a pass runs no simulation: its time is HTTP
  parsing, dispatch, the coalescing probe, cache reads (pickle loads),
  JSON encoding and request telemetry.  Its traffic follows the load
  generator's default mix.
* ``whatif-cold`` starts every pass on a fresh, empty cache.  Its trace
  is a synthetic stress shape, not a model of user traffic: each cell
  is asked for several times in one pass, so coalescing, micro-batched
  admission, the process pool and cache writes all happen.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import random
import subprocess
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from common import (SRC, children_peak_mb, percentile, remove,
                    scratch_dir)

HERE = Path(__file__).resolve().parent

CONNECTIONS = 2

#: whatif-warm traffic is the load generator's default mix
#: (``repro.loadgen.generator.LoadConfig``): its machines, frequencies,
#: workloads, input sizes and goals on 3 nodes, and its split of 60%
#: /compare to 40% /simulate.  The load generator sends no /sweep; here
#: one request in ten is a small 4-cell /sweep so that endpoint is
#: measured too.  That share is the benchmark's own choice, not taken
#: from any record of traffic.  The counts per pass are fixed, so every
#: seed does the same amount of each kind of work.
MACHINES = ("atom", "xeon")
FREQS = (1.2, 1.4, 1.6, 1.8)
GOALS = ("EDP", "ED2P")
WARM_WORKLOADS = ("wordcount", "terasort", "grep", "sort")
WARM_SIZES_GB = (0.1, 0.25)
WARM_NODES = 3
WARM_MIX = (("/simulate", 288), ("/compare", 432), ("/sweep", 80))

#: whatif-cold key space: paper-sized cells (1 GB/node micro, 10 GB/node
#: real-world).  A group is (workload, block size, two frequencies) on
#: both machines, i.e. four cells.  Block size sets a cell's task count
#: and so most of its cost, so the blocks per workload are fixed and the
#: seed draws the frequencies, the goals and the order of the groups.
COLD_GROUPS = (("wordcount", (64.0, 128.0, 256.0)),
               ("sort", (64.0, 128.0, 256.0)),
               ("grep", (64.0, 128.0, 256.0)),
               ("terasort", (64.0, 128.0, 256.0)),
               ("naive_bayes", (128.0,)), ("fp_growth", (128.0,)))
REAL_WORLD = ("naive_bayes", "fp_growth")

#: /simulate bodies re-derived from the model after the timed passes.
BODY_CHECKS = 6

Request = Tuple[str, str]          # (path, canonical JSON body)


def _body(doc: Dict[str, object]) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def warm_trace(seed: int) -> List[Request]:
    rng = random.Random(f"whatif-warm:{seed}")
    out: List[Request] = []
    for path, count in WARM_MIX:
        for _ in range(count):
            doc: Dict[str, object] = {
                "workload": rng.choice(WARM_WORKLOADS),
                "data_per_node_gb": rng.choice(WARM_SIZES_GB),
                "n_nodes": WARM_NODES}
            if path == "/simulate":
                doc["machine"] = rng.choice(MACHINES)
                doc["freq_ghz"] = rng.choice(FREQS)
            elif path == "/compare":
                doc["freq_ghz"] = rng.choice(FREQS)
                doc["goal"] = rng.choice(GOALS)
            else:
                doc["machine"] = list(MACHINES)
                doc["freq_ghz"] = sorted(rng.sample(FREQS, 2))
            out.append((path, _body(doc)))
    rng.shuffle(out)
    return out


def warm_keys():
    """Every cell :func:`warm_trace` can touch, for any seed."""
    from repro.core.characterization import RunKey
    return [RunKey(m, wl, freq_ghz=f, data_per_node_gb=gb,
                   n_nodes=WARM_NODES)
            for wl in WARM_WORKLOADS for gb in WARM_SIZES_GB
            for f in FREQS for m in MACHINES]


def cold_trace(seed: int) -> List[Request]:
    """Seven requests per group of four cells, in a fixed template order.

    The template is a synthetic stress shape chosen to make every cold
    path happen, not a model of user traffic.  A group opens with its 4-cell /sweep, and the other connection's
    next request, a /compare on two of those cells, joins the sweep's
    in-flight computation; the rest of the group are cache hits.  The
    template keeps the share of requests that wait on the pool the same
    for every seed (so the latency percentiles fall at the same ranks);
    the seed draws each group's cells and the order of the groups."""
    rng = random.Random(f"whatif-cold:{seed}")
    groups: List[List[Request]] = []
    for workload, blocks in COLD_GROUPS:
        real = workload in REAL_WORLD
        for block in blocks:
            f1, f2 = sorted(rng.sample(FREQS, 2))
            base = {"workload": workload, "block_size_mb": block,
                    "data_per_node_gb": 10.0 if real else 1.0}

            def compare(freq: float) -> Request:
                return ("/compare", _body(dict(
                    base, freq_ghz=freq, goal=rng.choice(GOALS))))

            def simulate(freq: float, machine: str) -> Request:
                return ("/simulate", _body(dict(
                    base, freq_ghz=freq, machine=machine)))

            groups.append([
                ("/sweep", _body(dict(base, machine=list(MACHINES),
                                      freq_ghz=[f1, f2]))),
                compare(f1), simulate(f1, "atom"), simulate(f2, "xeon"),
                compare(f2), simulate(f1, "xeon"), simulate(f2, "atom")])
    rng.shuffle(groups)
    return [req for group in groups for req in group]


def request_cells(path: str, body: str) -> int:
    """Grid cells one request resolves."""
    if path == "/simulate":
        return 1
    doc = json.loads(body)
    if path == "/compare":
        return len(MACHINES)
    cells = 1
    for value in doc.values():
        if isinstance(value, list):
            cells *= len(value)
    return cells


def prefill(cache_dir: str, shards: int) -> None:
    """Fill a sharded cache with every cell :func:`warm_trace` touches."""
    from repro.analysis.executor import cache_key
    from repro.core.characterization import simulate_cell
    from repro.mapreduce.config import DEFAULT_CONF
    from repro.serve.service import ShardedResultCache
    cache = ShardedResultCache(cache_dir, shards)
    for key in warm_keys():
        cache.put(cache_key(key, DEFAULT_CONF), key, DEFAULT_CONF,
                  simulate_cell(key))


def prefill_in_child(cache_dir: str, shards: int) -> None:
    """:func:`prefill` in a child interpreter, so the simulations' memory
    stays out of the peak of the process hosting the service."""
    code = ("import sys\n"
            f"sys.path[:0] = [{str(HERE)!r}, {str(SRC)!r}]\n"
            "import whatif\n"
            f"whatif.prefill({cache_dir!r}, {shards})\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=120)
    if done.returncode != 0:
        raise RuntimeError(f"cache pre-fill failed: {done.stderr[-2000:]}")


# -- the client --------------------------------------------------------------

class Connection:
    """One keep-alive HTTP/1.1 client connection (Content-Length only)."""

    def __init__(self, port: int):
        self.port = port
        self.reader: Optional[asyncio.StreamReader] = None
        self.writer: Optional[asyncio.StreamWriter] = None

    async def request(self, method: str, path: str,
                      body: str = "") -> Tuple[int, bytes]:
        if self.writer is None:
            self.reader, self.writer = await asyncio.open_connection(
                "127.0.0.1", self.port, limit=4 * 1024 * 1024)
        payload = body.encode()
        self.writer.write(
            (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
             f"Content-Type: application/json\r\n"
             f"Content-Length: {len(payload)}\r\n\r\n").encode() + payload)
        await self.writer.drain()
        head = await self.reader.readuntil(b"\r\n\r\n")
        lines = head.decode("ascii").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(":")
            if name.strip().lower() == "content-length":
                length = int(value)
        data = await self.reader.readexactly(length) if length else b""
        return status, data

    async def close(self) -> None:
        if self.writer is not None:
            self.writer.close()
            try:
                await self.writer.wait_closed()
            except (ConnectionError, OSError):
                pass
            self.writer = self.reader = None


async def _get_json(port: int, target: str) -> Dict[str, object]:
    conn = Connection(port)
    try:
        status, data = await conn.request("GET", target)
    finally:
        await conn.close()
    if status != 200:
        raise RuntimeError(f"GET {target} -> {status}")
    return json.loads(data)


@dataclass
class ReplayResult:
    latencies: List[float] = field(default_factory=list)
    failed: int = 0
    wall_s: float = 0.0


async def replay(port: int, trace: Sequence[Request],
                 digests: Dict[Request, str],
                 bodies: Dict[Request, bytes]) -> ReplayResult:
    """Closed loop: :data:`CONNECTIONS` workers drain the trace in order.

    Every 2xx body is digested; identical requests must get identical
    bytes across the whole run (*digests* persists between passes).
    """
    result = ReplayResult()
    pending = iter(trace)

    async def worker() -> None:
        conn = Connection(port)
        try:
            for req in pending:
                path, body = req
                t0 = time.perf_counter()
                try:
                    status, data = await asyncio.wait_for(
                        conn.request("POST", path, body), 60.0)
                except (ConnectionError, OSError, ValueError,
                        asyncio.IncompleteReadError,
                        asyncio.TimeoutError):
                    await conn.close()
                    result.failed += 1
                    continue
                result.latencies.append(time.perf_counter() - t0)
                if not 200 <= status < 300:
                    result.failed += 1
                    continue
                digest = hashlib.sha256(data).hexdigest()
                if digests.setdefault(req, digest) != digest:
                    result.failed += 1
                    continue
                if path == "/simulate":
                    bodies.setdefault(req, data)
        finally:
            await conn.close()

    started = time.perf_counter()
    await asyncio.gather(*(worker() for _ in range(CONNECTIONS)))
    result.wall_s = time.perf_counter() - started
    return result


def _span_medians_ms(traces: Dict[str, object]) -> Dict[str, float]:
    spans: Dict[str, List[float]] = {"queue.wait": [], "pool.execute": []}
    for trace in traces.get("traces", []):
        for span in trace["spans"]:
            if span["name"] in spans:
                spans[span["name"]].append(span["duration_s"] * 1e3)
    return {name: (percentile(v, 50) if v else 0.0)
            for name, v in spans.items()}


_COUNTERS = (("serve.coalesced", "coalesced_total"),
             ("serve.executor_submissions", "executor_submissions_total"),
             ("serve.executor_cells", "executor_cells_total"),
             ("serve.shed", "shed_total"),
             ("serve.timeouts", "timeout_total"))


class WhatIf:
    """One whatif-* run on a service stack in this process."""

    imports = ("repro.serve.run", "repro.serve.app",
               "repro.analysis.executor")

    def __init__(self, seed: int, warm: bool):
        self.seed = seed
        self.warm = warm
        self.name = "whatif-warm" if warm else "whatif-cold"
        self.trace = warm_trace(seed) if warm else cold_trace(seed)
        self.cells_per_pass = sum(request_cells(p, b) for p, b in self.trace)
        self.digests: Dict[Request, str] = {}
        self.bodies: Dict[Request, bytes] = {}
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []
        #: Largest summed peak of the live stack's child processes (the
        #: pool workers) seen at any shutdown.
        self.children_peak_mb = 0.0
        self.loop = asyncio.new_event_loop()
        self._stacks: Dict[bool, Tuple[object, str]] = {}

    def service_config(self, cache_dir: str, telemetry: bool = True):
        from repro.serve.service import ServiceConfig
        return ServiceConfig(cache_dir=cache_dir, telemetry=telemetry)

    def config(self) -> Dict[str, object]:
        cfg = asdict(self.service_config("<fresh per run>"))
        paths: Dict[str, int] = {}
        for path, _ in self.trace:
            paths[path] = paths.get(path, 0) + 1
        return {"service": cfg, "connections": CONNECTIONS,
                "loop": "closed", "requests_per_pass": len(self.trace),
                "requests_by_path": paths,
                "distinct_requests": len(set(self.trace)),
                "cells_per_pass": self.cells_per_pass,
                "cache": ("pre-filled with every reachable cell"
                          if self.warm else "empty at every pass"),
                "traffic": ("loadgen default mix plus 1 in 10 /sweep"
                            if self.warm else "synthetic stress shape")}

    # -- stack lifecycle ---------------------------------------------------

    async def _boot(self, telemetry: bool, cache_dir: str):
        from repro.serve.run import start_stack
        config = self.service_config(cache_dir, telemetry)
        if self.warm:
            prefill_in_child(cache_dir, config.shards)
        handle = await start_stack(config)
        health = await _get_json(handle.port, "/healthz")
        if health.get("status") != "ok":
            raise RuntimeError(f"service not healthy: {health}")
        return handle

    def boot(self, telemetry: bool = True):
        """Start a stack on a fresh cache dir; returns (handle, dir)."""
        cache_dir = scratch_dir("serve-")
        try:
            return self.loop.run_until_complete(
                self._boot(telemetry, cache_dir)), cache_dir
        except BaseException:
            remove(cache_dir)
            raise

    def shutdown(self, handle, cache_dir: str) -> None:
        """Stop a stack; its pool workers' peak memory is read first."""
        from repro.serve.run import stop_stack
        self.children_peak_mb = max(self.children_peak_mb,
                                    children_peak_mb())
        try:
            self.loop.run_until_complete(stop_stack(handle, graceful=True))
        finally:
            remove(cache_dir)

    def setup_once(self) -> float:
        """In-process share of one set-up: (pre-fill +) boot + shutdown."""
        t0 = time.perf_counter()
        handle, cache_dir = self.boot()
        elapsed = time.perf_counter() - t0
        self.shutdown(handle, cache_dir)
        return elapsed

    def start(self, telemetry_off: bool = False) -> None:
        """Boot the long-lived warm stacks (telemetry on, optionally off)."""
        if self.warm:
            self._stacks[True] = self.boot(True)
            if telemetry_off:
                self._stacks[False] = self.boot(False)

    def stop(self) -> None:
        try:
            for handle, cache_dir in self._stacks.values():
                self.shutdown(handle, cache_dir)
        finally:
            self._stacks.clear()
            self.loop.close()

    # -- one pass ------------------------------------------------------------

    def run_pass(self, trace=None, telemetry: bool = True
                 ) -> Dict[str, object]:
        """Replay the trace once; *trace* (a LayerTrace) wraps the tier."""
        from layers import install_cache, install_serve
        if self.warm:
            handle, cache_dir = self._stacks[telemetry]
        else:
            handle, cache_dir = self.boot(telemetry)
        try:
            before = self._scrape(handle)
            if trace is not None:
                install_serve(trace, handle.server)
                install_cache(trace)
            try:
                res = self.loop.run_until_complete(
                    replay(handle.port, self.trace, self.digests,
                           self.bodies))
            finally:
                if trace is not None:
                    trace.restore()
            after = self._scrape(handle)
            spans = (_span_medians_ms(self.loop.run_until_complete(
                _get_json(handle.port,
                          f"/debug/requests?limit={len(self.trace)}")))
                     if telemetry else {})
        finally:
            if not self.warm:
                self.shutdown(handle, cache_dir)
        self.attempted += len(self.trace)
        self.failed += res.failed
        server = {name: float(after.get(metric, 0) or 0)
                  - float(before.get(metric, 0) or 0)
                  for name, metric in _COUNTERS}
        server["serve.queue_wait_ms"] = spans.get("queue.wait", 0.0)
        server["serve.pool_execute_ms"] = spans.get("pool.execute", 0.0)
        return {"wall_s": res.wall_s, "latencies": res.latencies,
                "cells": self.cells_per_pass, "ops": len(self.trace),
                "server": server}

    def _scrape(self, handle) -> Dict[str, object]:
        return self.loop.run_until_complete(
            _get_json(handle.port, "/metrics?format=json"))

    # -- outside the timed window -------------------------------------------

    def check_outputs(self) -> None:
        """A seed-drawn sample of /simulate bodies must equal the payload
        re-derived from the model."""
        from repro.core.characterization import simulate_cell
        from repro.serve.app import parse_run_key, result_payload
        candidates = sorted(self.bodies)
        rng = random.Random(f"{self.name}:bodies:{self.seed}")
        for req in rng.sample(candidates, min(BODY_CHECKS, len(candidates))):
            key = parse_run_key(json.loads(req[1]))
            expected = _body({"result": result_payload(
                key, simulate_cell(key))}).encode()
            self.attempted += 1
            if self.bodies[req] != expected:
                self.failed += 1
                self.mismatches.append(f"{req[0]} {req[1]}: body differs "
                                       f"from result_payload")
