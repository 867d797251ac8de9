"""Core service mechanics: coalescing, batching, backpressure, drain.

The what-if API is a thin traffic layer over one pure function
(:func:`repro.core.characterization.simulate_cell`).  Because a cell's
result is fully determined by its :func:`~repro.analysis.executor.cache_key`,
the service can be aggressive about sharing work:

* **Request coalescing** — identical in-flight requests await one
  shared future; only the first admission reaches the process pool.
* **Single-flight cache fill** — the coalescing map doubles as the
  single-flight latch: between a cache miss and the result landing on
  disk, every identical request joins the in-flight future instead of
  re-probing (and re-filling) the cache.
* **Sharded cache namespace** — entries spread over ``shards``
  subdirectory shards of the PR 1 content-addressed cache, so thousands
  of concurrent fills never pile every entry into one directory.
* **Micro-batched admission** — admitted cells queue once; a drain loop
  that wakes takes its share of the queue, split evenly with the other
  idle loops (at most ``batch_max`` cells), and ships it to the pool as
  **one** submission.  Idle workers each get a batch of their own;
  under backlog no loop is idle, so batches fill to ``batch_max`` and
  amortize the pickle/IPC round-trip.
* **Backpressure** — admission is bounded by ``queue_limit`` cells;
  beyond it requests are shed with 429 + ``Retry-After`` instead of
  growing an unbounded queue.  Waiters are bounded by
  ``request_timeout_s`` (504); the computation itself is never
  cancelled, so a timed-out cell still lands in the cache for the
  retry.
* **Graceful drain** — on SIGTERM the service stops admitting (503),
  lets in-flight cells finish, persists them, then shuts the pool down.

Wall-clock use in this module is deliberate and sanctioned: latency and
uptime are host-side observables.  Simulation results are only computed
in :mod:`repro.serve.work`, which is wall-clock-free and lint-enforced.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..analysis.executor import ResultCache, cache_key, model_fingerprint
from ..core.characterization import RunKey
from ..mapreduce.config import DEFAULT_CONF, JobConf
from ..mapreduce.driver import JobResult
from ..obs import reqtrace
from ..obs.registry import MetricsRegistry
from ..obs.reqtrace import RequestTelemetry, RequestTrace
from .work import simulate_batch

__all__ = ["ComputeError", "Overloaded", "RequestTimeout", "Draining",
           "ServiceConfig", "ServiceStats", "ShardedResultCache",
           "SimulationService"]


#: An admission-queue entry: (key_hex, key, owning trace or None,
#: enqueue perf-stamp or 0.0).  The trace lets the drain loop attribute
#: queue-wait and pool-execution spans to the admitting request.
_Entry = Tuple[str, RunKey, Optional[RequestTrace], float]


class Overloaded(Exception):
    """Admission queue full; the caller should retry later (429)."""


class RequestTimeout(Exception):
    """The waiter's deadline passed; the computation continues (504)."""


class Draining(Exception):
    """The service is shutting down and admits no new work (503)."""


class ComputeError(Exception):
    """A worker failed to simulate a cell; carries the original cause."""

    def __init__(self, key: RunKey, cause: BaseException):
        super().__init__(f"simulation failed for [{key.describe()}]: {cause}")
        self.key = key
        self.cause = cause


@dataclass(frozen=True)
class ServiceConfig:
    """Tunables for one service instance (all bounded by construction)."""

    workers: int = 2                 #: process-pool width = max concurrent batches
    queue_limit: int = 128           #: max admitted cells (queued + executing)
    request_timeout_s: float = 30.0  #: per-waiter deadline -> 504
    batch_max: int = 8               #: max cells per executor submission
    shards: int = 8                  #: cache namespace shards
    cache_dir: Optional[str] = None  #: None = default cache dir
    no_cache: bool = False           #: disable the persistent cache
    drain_timeout_s: float = 10.0    #: grace period for SIGTERM drain
    max_sweep_cells: int = 256       #: per-request sweep grid cap -> 413
    retry_after_s: int = 1           #: Retry-After hint on 429/503
    telemetry: bool = True           #: request-scoped wall-clock tracing
    trace_ring: int = 256            #: completed request traces kept

    def __post_init__(self):
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.queue_limit < 1:
            raise ValueError("queue_limit must be >= 1")
        if self.batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.request_timeout_s <= 0:
            raise ValueError("request_timeout_s must be > 0")
        if self.trace_ring < 1:
            raise ValueError("trace_ring must be >= 1")


class ShardedResultCache:
    """The PR 1 content-addressed cache spread over directory shards.

    Each shard is a full :class:`ResultCache` rooted at
    ``<path>/shard-XX``; a key's shard is its hash prefix modulo the
    shard count, so the mapping is stable across restarts and processes.
    Sharding keeps per-directory entry counts (and the rename traffic of
    thousands of concurrent single-flight fills) bounded.
    """

    def __init__(self, path: Optional[str] = None, shards: int = 8):
        fingerprint = model_fingerprint()
        from ..analysis.executor import default_cache_dir
        root = default_cache_dir() if path is None else path
        self.shards: List[ResultCache] = [
            ResultCache(f"{root}/shard-{i:02d}", fingerprint=fingerprint)
            for i in range(shards)
        ]

    def shard_for(self, key_hex: str) -> ResultCache:
        return self.shards[int(key_hex[:8], 16) % len(self.shards)]

    def get(self, key_hex: str, key: RunKey,
            conf: JobConf) -> Optional[JobResult]:
        return self.shard_for(key_hex).get(key, conf)

    def put(self, key_hex: str, key: RunKey, conf: JobConf,
            result: JobResult) -> None:
        self.shard_for(key_hex).put(key, conf, result)

    def reap_orphans(self) -> int:
        return sum(s.reap_orphans() for s in self.shards)

    @property
    def hits(self) -> int:
        return sum(s.hits for s in self.shards)

    @property
    def misses(self) -> int:
        return sum(s.misses for s in self.shards)

    @property
    def stores(self) -> int:
        return sum(s.stores for s in self.shards)

    @property
    def corrupt(self) -> int:
        return sum(s.corrupt for s in self.shards)


class ServiceStats:
    """The service's metric families, registered on one typed registry.

    Call sites update the families directly (``stats.shed.inc()``,
    ``stats.requests.labels(route=..., status=...).inc()``); the
    :class:`~repro.obs.registry.MetricsRegistry` owns every instrument
    and renders both exposition formats canonically.
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None):
        self.started_at = time.time()
        reg = self.registry = (registry if registry is not None
                               else MetricsRegistry())
        self.requests = reg.counter(
            "requests_total", "HTTP requests served, by route and status.",
            labels=("route", "status"))
        self.latency = reg.histogram(
            "request_latency_seconds",
            "Wall-clock request latency in seconds, by route.",
            labels=("route",))
        self.coalesced = reg.counter(
            "coalesced_total",
            "Requests that joined an identical in-flight computation.")
        self.shed = reg.counter(
            "shed_total",
            "Requests shed with 429 (admission queue full).")
        self.timeouts = reg.counter(
            "timeout_total",
            "Waiters that hit the per-request deadline (504).")
        self.submissions = reg.counter(
            "executor_submissions_total",
            "Micro-batches submitted to the process pool.")
        self.cells = reg.counter(
            "executor_cells_total",
            "Grid cells submitted to the process pool.")
        self.cache_hits = reg.counter(
            "cache_hits_total", "Persistent result-cache hits.")
        self.cache_misses = reg.counter(
            "cache_misses_total", "Persistent result-cache misses.")
        self.cache_stores = reg.counter(
            "cache_stores_total", "Results persisted to the cache.")
        self.cache_corrupt = reg.counter(
            "cache_corrupt_total",
            "Corrupt cache entries dropped and recomputed.")
        self.inflight = reg.gauge(
            "inflight_cells",
            "Cells admitted and not yet completed (queued + executing).")
        self.uptime = reg.gauge(
            "uptime_seconds", "Seconds since service start.")
        self.traces_inflight = reg.gauge(
            "request_traces_inflight", "Request traces currently open.")
        self.traces_total = reg.counter(
            "request_traces_total", "Request traces completed.")


class SimulationService:
    """Owns the pool, the coalescing map, the cache, and the counters.

    Lifecycle: ``await start()`` → ``await submit(...)`` from any number
    of concurrent handlers → ``await drain()`` (graceful) or
    ``await stop()`` (immediate).
    """

    def __init__(self, config: ServiceConfig = ServiceConfig(),
                 conf: JobConf = DEFAULT_CONF):
        self.config = config
        self.conf = conf
        self.stats = ServiceStats()
        self.telemetry: Optional[RequestTelemetry] = (
            RequestTelemetry(ring=config.trace_ring)
            if config.telemetry else None)
        self.cache: Optional[ShardedResultCache] = None
        if not config.no_cache:
            self.cache = ShardedResultCache(config.cache_dir, config.shards)
        self.draining = False
        self._pool = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._inflight: Dict[str, asyncio.Future] = {}
        self._admitted = 0
        self._queue: "asyncio.Queue[_Entry]" = asyncio.Queue()
        self._drainers: List[asyncio.Task] = []
        self._idle = 0      # drain loops blocked on an empty queue

    def sync_metrics(self) -> MetricsRegistry:
        """Refresh externally-tallied instruments; returns the registry.

        Cache hit/miss counts live on :class:`ShardedResultCache` (they
        are summed over shards on read) and uptime is derived, so they
        are mirrored into the registry at scrape time rather than
        counted inline.
        """
        stats = self.stats
        if self.cache is not None:
            stats.cache_hits.sync(self.cache.hits)
            stats.cache_misses.sync(self.cache.misses)
            stats.cache_stores.sync(self.cache.stores)
            stats.cache_corrupt.sync(self.cache.corrupt)
        stats.inflight.set(self._admitted)
        stats.uptime.set(time.time() - stats.started_at)
        tel = self.telemetry
        if tel is not None:
            stats.traces_inflight.set(len(tel.inflight()))
            stats.traces_total.sync(tel.completed)
        return stats.registry

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        from concurrent.futures import ProcessPoolExecutor
        self._loop = asyncio.get_running_loop()
        if self.cache is not None:
            self.cache.reap_orphans()
        self._pool = ProcessPoolExecutor(max_workers=self.config.workers)
        self._drainers = [
            asyncio.ensure_future(self._drain_loop())
            for _ in range(self.config.workers)
        ]

    async def drain(self) -> None:
        """Stop admitting, finish in-flight cells, then shut the pool."""
        self.draining = True
        deadline = time.monotonic() + self.config.drain_timeout_s
        while (self._admitted or not self._queue.empty()) \
                and time.monotonic() < deadline:
            await asyncio.sleep(0.02)
        await self.stop()

    async def stop(self) -> None:
        self.draining = True
        for task in self._drainers:
            task.cancel()
        if self._drainers:
            await asyncio.gather(*self._drainers, return_exceptions=True)
        self._drainers = []
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None
        for fut in self._inflight.values():
            if not fut.done():
                fut.set_exception(Draining("service stopped"))
                fut.exception()          # mark retrieved
        self._inflight.clear()

    # -- admission ---------------------------------------------------------

    @property
    def inflight_cells(self) -> int:
        """Cells admitted and not yet completed (queued + executing)."""
        return self._admitted

    async def submit(self, key: RunKey) -> Tuple[JobResult, str]:
        """Resolve one cell; returns ``(result, source)``.

        ``source`` is ``"cache"``, ``"computed"`` or ``"coalesced"`` —
        reported in a response *header*, never the body, so identical
        requests keep byte-identical bodies whatever path served them.

        Raises :class:`Overloaded`, :class:`RequestTimeout`,
        :class:`Draining` or :class:`ComputeError`.
        """
        # NOTE: everything from the coalescing probe to enqueueing is
        # await-free, so the check-then-register sequence is atomic
        # under the event loop — two racing identical requests can
        # never both become the single flight.
        trace = None
        if self.telemetry is not None:
            trace = reqtrace.current()
        key_hex = cache_key(key, self.conf)
        existing = self._inflight.get(key_hex)
        if existing is not None:
            self.stats.coalesced.inc()
            result = await self._await_result(existing, trace, joined=True)
            return result, "coalesced"

        if self.cache is not None:
            hit = self._cache_get(key_hex, key, trace)
            if hit is not None:
                return hit, "cache"

        if self.draining:
            raise Draining("service is draining")
        if self._admitted >= self.config.queue_limit:
            self.stats.shed.inc()
            raise Overloaded(
                f"admission queue full ({self.config.queue_limit} cells)")

        assert self._loop is not None, "service not started"
        future: asyncio.Future = self._loop.create_future()
        # Swallow "exception never retrieved" when every waiter timed
        # out before the worker failed; the error is still surfaced to
        # any waiter that is left.
        future.add_done_callback(
            lambda f: f.exception() if not f.cancelled() else None)
        self._inflight[key_hex] = future
        self._admitted += 1
        enq_t = time.perf_counter() if trace is not None else 0.0
        self._queue.put_nowait((key_hex, key, trace, enq_t))
        result = await self._await_result(future, trace, joined=False)
        return result, "computed"

    def _cache_get(self, key_hex: str, key: RunKey,
                   trace: Optional[RequestTrace]) -> Optional[JobResult]:
        """Probe the persistent cache, timed on the request trace."""
        assert self.cache is not None
        t0 = time.perf_counter()
        hit = self.cache.get(key_hex, key, self.conf)
        if trace is not None:
            trace.add_span("cache.get", t0, time.perf_counter(),
                           hit=hit is not None)
        return hit

    async def _await_result(self, future: asyncio.Future,
                            trace: Optional[RequestTrace] = None,
                            joined: bool = False) -> JobResult:
        """Wait for a shared in-flight future under the request deadline.

        The ``coalesce.wait`` span covers both roles — the request that
        admitted the computation (``joined=False``) and every identical
        request riding along (``joined=True``) — so a slow trace shows
        who waited on whom.
        """
        t0 = time.perf_counter() if trace is not None else 0.0
        try:
            result = await asyncio.wait_for(
                asyncio.shield(future), self.config.request_timeout_s)
        except asyncio.TimeoutError:
            self.stats.timeouts.inc()
            if trace is not None:
                trace.add_span("coalesce.wait", t0, time.perf_counter(),
                               joined=joined, timeout=True)
            raise RequestTimeout(
                f"no result within {self.config.request_timeout_s:g}s "
                f"(the computation continues; retry to pick it up from "
                f"the cache)") from None
        if trace is not None:
            trace.add_span("coalesce.wait", t0, time.perf_counter(),
                           joined=joined)
        return result

    async def submit_many(self, keys: Sequence[RunKey]
                          ) -> List[Tuple[JobResult, str]]:
        """Resolve a batch of cells concurrently (sweep / compare).

        Sheds the whole request if any cell is shed: partial sweep
        results are worse than an honest 429, and the already-admitted
        sibling cells still complete and land in the cache, so the
        retry is cheap.
        """
        outcomes = await asyncio.gather(
            *(self.submit(key) for key in keys), return_exceptions=True)
        for cls in (Overloaded, Draining, RequestTimeout):
            for outcome in outcomes:
                if isinstance(outcome, cls):
                    raise outcome
        for outcome in outcomes:
            if isinstance(outcome, BaseException):
                raise outcome
        return list(outcomes)

    # -- the pool-facing side ---------------------------------------------

    async def _drain_loop(self) -> None:
        """One of ``workers`` loops: take a share of the queue, run it, fan out."""
        assert self._loop is not None
        while True:
            self._idle += 1
            try:
                entry = await self._queue.get()
            finally:
                self._idle -= 1
            # Split the queue evenly between this loop and the loops still
            # idle, so each idle worker gets a batch of its own; with no
            # idle loop the share is the whole queue (up to batch_max).
            share = min(self.config.batch_max,
                        -(-(1 + self._queue.qsize()) // (1 + self._idle)))
            batch = [entry]
            while len(batch) < share:
                batch.append(self._queue.get_nowait())
            self.stats.submissions.inc()
            self.stats.cells.inc(len(batch))
            pickup = time.perf_counter()
            for _, _, tr, enq_t in batch:
                if tr is not None:
                    tr.add_span("queue.wait", enq_t, pickup)
            try:
                pairs = await self._loop.run_in_executor(
                    self._pool, simulate_batch,
                    tuple(k for _, k, _, _ in batch), self.conf)
            except asyncio.CancelledError:
                self._fail_batch(batch, Draining("service stopped"))
                raise
            except Exception as exc:
                # One bad cell poisons its whole batch; per-cell blame
                # would need per-cell submissions, which defeats
                # batching.  Validation upstream keeps this path rare.
                self._fail_batch(
                    batch, exc if isinstance(exc, ComputeError)
                    else ComputeError(batch[0][1], exc))
            else:
                done = time.perf_counter()
                for (k_hex, k, tr, _enq), (_key, result) in zip(batch, pairs):
                    if tr is not None:
                        tr.add_span("pool.execute", pickup, done,
                                    batch=len(batch))
                    if self.cache is not None:
                        store_t = time.perf_counter() \
                            if tr is not None else 0.0
                        try:
                            self.cache.put(k_hex, k, self.conf, result)
                        except OSError:
                            pass      # cache write failure is not a 5xx
                        if tr is not None:
                            tr.add_span("cache.store", store_t,
                                        time.perf_counter())
                    future = self._inflight.pop(k_hex, None)
                    self._admitted -= 1
                    if future is not None and not future.done():
                        future.set_result(result)

    def _fail_batch(self, batch: Sequence[_Entry],
                    exc: BaseException) -> None:
        for k_hex, _k, _tr, _enq in batch:
            future = self._inflight.pop(k_hex, None)
            self._admitted -= 1
            if future is not None and not future.done():
                future.set_exception(exc)
