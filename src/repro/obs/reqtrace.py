"""Request-scoped wall-clock tracing for the serve/loadgen tier.

Where the :class:`~repro.obs.spans.Tracer` records *simulated* time
inside one job and :mod:`repro.obs.prof` counts the work a whole
process does, this module answers the per-request question the other
two cannot: **where did this specific slow request spend its time** —
HTTP parse, routing, coalesce wait, admission-queue wait, pool
execution, or cache store?

Model
-----

A :class:`RequestTrace` is one request's wall-clock life: a generated
request id, the route/method, a flat list of named
:class:`~repro.obs.spans.SpanRecord` windows (the same record job traces
use; here the stamps are ``perf_counter`` seconds, which exporters
rebase), and a final status.  Spans come from two directions:

* the code path *owning* the request times its own blocks via
  :meth:`RequestTrace.span` (a context manager), and
* asynchronous stages that process the request on its behalf (the
  service's drain loop, which holds the admission queue and the process
  pool) attach externally timed windows via :meth:`RequestTrace.add_span`
  — that is how queue-wait and pool-execution land on the trace of the
  request that triggered the computation: each admission-queue entry
  carries its trace, and the pool returns results in queue order.

A :class:`RequestTelemetry` instance owns the traces: a registry of
in-flight requests plus a bounded ring buffer (``collections.deque``)
of the most recently *completed* traces, so memory stays constant under
any load.  :func:`repro.obs.export.request_json` exports a batch of
completed traces in the Chrome trace-event format, so
https://ui.perfetto.dev opens a ``/debug/requests?format=chrome``
download directly.

Propagation uses :mod:`contextvars`: the HTTP layer binds the current
trace around the handler (:func:`push` / :func:`pop`), and any code
below — the service, the cache, instrumented helpers — reaches it with
:func:`current` without threading a handle through every signature.
``contextvars`` follows ``asyncio`` task switches, so thousands of
interleaved requests each see exactly their own trace.

Zero-cost rule: everything here is wall-clock-only and opt-in.  With
telemetry off the serve tier never constructs a trace, instrumented
sites guard on a ``None`` handle (OBS001-enforced), and simulation
outputs are byte-identical either way — request ids are generated from
a process-local token and never reach any simulation input.
"""

from __future__ import annotations

import contextvars
import hashlib
import itertools
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Deque, Dict, Iterator, List, Optional

from .spans import SpanRecord

__all__ = ["RequestTrace", "RequestTelemetry", "current", "push", "pop",
           "use"]

#: The request trace the current (asyncio or thread) context is serving.
_CURRENT: "contextvars.ContextVar[Optional[RequestTrace]]" = \
    contextvars.ContextVar("repro_request_trace", default=None)

#: Track and category of every request span: the Chrome export lays
#: requests out one per thread, so the record needs no per-span track.
_TRACK = ("serve", "request")
_CAT = "phase"


class RequestTrace:
    """The wall-clock life of one request.

    ``t0`` anchors the trace on the host's ``perf_counter`` timeline;
    ``started_at`` is the matching wall-clock epoch so exports can show
    absolute times.  Span mutation is append-only and guarded by a lock:
    the drain loop attaches windows from outside the request's own
    task, and (with a threaded client) potentially another thread.
    """

    __slots__ = ("id", "route", "method", "t0", "started_at", "status",
                 "end", "spans", "_lock")

    def __init__(self, trace_id: str, route: str, method: str,
                 t0: float, started_at: float):
        self.id = trace_id
        self.route = route
        self.method = method
        self.t0 = t0
        self.started_at = started_at
        self.status: Optional[int] = None     #: HTTP status once finished
        self.end: Optional[float] = None      #: perf_counter at finish
        self.spans: List[SpanRecord] = []
        self._lock = threading.Lock()

    @property
    def done(self) -> bool:
        return self.end is not None

    @property
    def duration_s(self) -> float:
        end = self.end if self.end is not None else self.t0
        return max(end - self.t0, 0.0)

    def add_span(self, name: str, start: float, end: float,
                 **meta: object) -> SpanRecord:
        """Attach an externally timed window (``perf_counter`` stamps)."""
        rec = SpanRecord(name, _TRACK, _CAT, start, end, meta)
        with self._lock:
            self.spans.append(rec)
        return rec

    @contextmanager
    def span(self, name: str, **meta: object) -> Iterator[SpanRecord]:
        """Time a block as one span of this trace."""
        start = time.perf_counter()
        rec = SpanRecord(name, _TRACK, _CAT, start, start, meta)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            with self._lock:
                self.spans.append(rec)

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly snapshot (span offsets relative to ``t0``)."""
        with self._lock:
            spans = list(self.spans)
        spans.sort(key=lambda s: (s.start, s.end, s.name))
        return {
            "id": self.id,
            "route": self.route,
            "method": self.method,
            "started_at": round(self.started_at, 6),
            "status": self.status,
            "duration_s": round(self.duration_s, 9),
            "spans": [
                {"name": s.name,
                 "offset_s": round(s.start - self.t0, 9),
                 "duration_s": round(s.duration, 9),
                 **({"meta": s.args} if s.args else {})}
                for s in spans
            ],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = self.status if self.done else "inflight"
        return (f"<RequestTrace {self.id} {self.method} {self.route} "
                f"[{state}] {len(self.spans)} spans>")


class RequestTelemetry:
    """Owns request traces: id generation, inflight registry, ring.

    ``ring`` bounds the completed-trace buffer; eviction is FIFO (the
    deque drops the oldest).  Request ids are ``<token>-<seq>`` where
    the token is derived from the pid and service start time — unique
    across restarts without consuming entropy, and greppable: every id
    from one server lifetime shares a prefix.
    """

    def __init__(self, ring: int = 256,
                 clock=time.perf_counter, wall=time.time):
        if ring < 1:
            raise ValueError("ring must be >= 1")
        self.clock = clock
        self.wall = wall
        token_src = f"{os.getpid()}-{wall():.6f}"
        # A short stable digest, not a hash() (PYTHONHASHSEED-free).
        self.token = hashlib.sha256(
            token_src.encode("ascii")).hexdigest()[:8]
        self._seq = itertools.count(1)
        self._lock = threading.Lock()
        self._inflight: Dict[str, RequestTrace] = {}
        self._ring: Deque[RequestTrace] = deque(maxlen=ring)
        self.started = 0
        self.completed = 0
        self.evicted = 0

    @property
    def ring_size(self) -> int:
        return self._ring.maxlen or 0

    def start(self, route: str, method: str = "GET",
              t0: Optional[float] = None) -> RequestTrace:
        """Open a trace for a new request and register it in-flight."""
        trace_id = f"{self.token}-{next(self._seq):06d}"
        now = self.clock()
        trace = RequestTrace(trace_id, route, method,
                             t0 if t0 is not None else now, self.wall())
        with self._lock:
            self._inflight[trace_id] = trace
            self.started += 1
        return trace

    def finish(self, trace: RequestTrace,
               status: Optional[int] = None) -> None:
        """Close a trace and move it into the completed ring."""
        trace.end = self.clock()
        if status is not None:
            trace.status = status
        with self._lock:
            self._inflight.pop(trace.id, None)
            if len(self._ring) == self._ring.maxlen:
                self.evicted += 1
            self._ring.append(trace)
            self.completed += 1

    def get(self, trace_id: str) -> Optional[RequestTrace]:
        with self._lock:
            found = self._inflight.get(trace_id)
            if found is not None:
                return found
            for trace in self._ring:
                if trace.id == trace_id:
                    return trace
        return None

    def recent(self, limit: Optional[int] = None) -> List[RequestTrace]:
        """Most recently completed traces, newest first."""
        with self._lock:
            traces = list(self._ring)
        traces.reverse()
        return traces[:limit] if limit is not None else traces

    def inflight(self) -> List[RequestTrace]:
        """Currently open traces, oldest first."""
        with self._lock:
            return sorted(self._inflight.values(),
                          key=lambda t: (t.t0, t.id))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<RequestTelemetry {len(self._inflight)} inflight, "
                f"{len(self._ring)}/{self.ring_size} completed>")


# -- context propagation ---------------------------------------------------

def current() -> Optional[RequestTrace]:
    """The trace bound to the calling context, or ``None``."""
    return _CURRENT.get()


def push(trace: RequestTrace) -> "contextvars.Token":
    """Bind *trace* as the context's current request; returns the token."""
    return _CURRENT.set(trace)


def pop(token: "contextvars.Token") -> None:
    """Undo a :func:`push`."""
    _CURRENT.reset(token)


@contextmanager
def use(trace: Optional[RequestTrace]) -> Iterator[Optional[RequestTrace]]:
    """Context manager form of :func:`push`/:func:`pop`."""
    token = _CURRENT.set(trace)
    try:
        yield trace
    finally:
        _CURRENT.reset(token)
