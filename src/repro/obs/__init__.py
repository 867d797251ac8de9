"""Observability subsystem: tracing, metrics, profiling, exporters.

``repro.obs`` is strictly additive: nothing in the simulator imports it
at module scope except through ``sim.obs`` attribute guards and the
equally-guarded ``prof.ACTIVE`` handle, a run without a tracer or
profiler records nothing, and scalar outputs are byte-identical with
tracing/profiling on or off.  See ``docs/OBSERVABILITY.md``.

One substrate, three uses told apart by clock and scope.  There is one
span record (:class:`SpanRecord`), one Chrome trace exporter
(:mod:`repro.obs.export`), one histogram (:class:`LogHistogram`, which
carries its own running sum) and one metrics registry
(:mod:`repro.obs.registry`):

* :class:`Tracer` (attached) records spans in *simulated* time and
  describes the modeled cluster;
* :class:`Profiler` (:mod:`repro.obs.prof`) keeps one histogram per
  phase of *wall* time and describes what the reproduction costs the
  host;
* ``RequestTrace`` (:mod:`repro.obs.reqtrace`) records spans in
  *wall* time for one serve-tier request, ``MetricsRegistry``
  (:mod:`repro.obs.registry`) renders the serve tier's Prometheus
  metrics, and ``StructuredLog`` (:mod:`repro.obs.slog`) writes
  JSON-lines events correlated by request id.

The three request-telemetry modules are imported by their own names
(``from repro.obs.registry import MetricsRegistry``), never through this
package, so a model process loads none of them and the ARCH001 lint
rule sees every such import as an edge into the ``telemetry`` tier:
wall-clock telemetry never reaches the result-computing packages.
"""

from . import prof
from .export import (perfetto_json, perfetto_trace, request_json,
                     request_trace, text_summary, timeline_csv,
                     write_trace_files)
from .invariants import (InvariantReport, TraceInvariantError, Violation,
                         check_intervals, check_job, verify_job)
from .metrics import Counter, LogHistogram
from .prof import Profiler
from .spans import EventRecord, JobTrace, NodeInfo, SpanRecord, Tracer

__all__ = [
    "Tracer", "JobTrace", "NodeInfo", "SpanRecord", "EventRecord",
    "Counter", "LogHistogram",
    "prof", "Profiler",
    "check_intervals", "check_job", "verify_job",
    "InvariantReport", "Violation", "TraceInvariantError",
    "perfetto_trace", "perfetto_json", "request_trace", "request_json",
    "timeline_csv", "text_summary", "write_trace_files",
]
