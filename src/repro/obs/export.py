"""Trace exporters: Perfetto JSON, per-node timeline CSV, text summary.

Three views over one traced run (a :class:`~repro.obs.spans.Tracer` that
carries a :class:`~repro.obs.spans.JobTrace`), plus the Chrome export of
served requests:

* :func:`perfetto_json` — the Chrome trace-event format that
  https://ui.perfetto.dev opens directly.  One *process* per node with
  one *thread* per task slot (attempt spans plus the core compute
  intervals of the task that held the slot), device lanes for disk /
  NIC / framework / uncore activity, a driver process for stage windows
  and scheduler events, and counter tracks for live tasks, queue
  backlog and instantaneous dynamic power (folded from the recorded
  activity intervals and the node power model).
* :func:`timeline_csv` — per-node utilization and energy, time-binned,
  for plotting outside the repo.
* :func:`text_summary` — the at-a-glance report: phase windows, top
  time sinks, task-wave chart, recovery waste, engine statistics.
* :func:`request_json` — completed request traces
  (:class:`~repro.obs.reqtrace.RequestTrace`) in the same Chrome
  format, built from the same event helpers and serialized by the same
  canonical ``json.dumps`` call; ``/debug/requests?format=chrome``
  serves it.

Every exporter is a pure function of the captured trace: same seed and
configuration produce byte-identical artifacts at any ``--jobs`` width
(asserted in CI), because the only clock that reaches a job trace is
simulated time and the only float operations are replays of the same
deterministic arithmetic.  Request traces carry *wall* time instead;
their export is still a pure function of the traces it is given.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple, Union

from ..sim.trace import Interval
from .spans import JobTrace, SpanRecord, Tracer

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .reqtrace import RequestTrace

__all__ = ["perfetto_trace", "perfetto_json", "request_trace",
           "request_json", "timeline_csv", "text_summary",
           "write_trace_files"]

#: Fixed thread-id bases inside a node's process, chosen so Perfetto's
#: tid-sorted thread list reads slots → compute → devices top to bottom.
_CORE_SPILL_TID = 24   # core intervals not attributable to a slot
_DEVICE_TID = {"disk": 32, "nic": 48, "fw": 64, "uncore": 96}
_HDFS_TID = 112

_DRIVER_PID = 1
_ENGINE_PID = 2
_NODE_PID0 = 10

_DRIVER_LANES = {"stages": 0, "scheduler": 1, "faults": 2, "marks": 3}

_US = 1e6  # seconds → trace microseconds


def _assign_lanes(items: Sequence[Tuple[float, float]]) -> List[int]:
    """Greedy first-fit lane assignment for possibly-overlapping spans.

    *items* must already be sorted deterministically by (start, end, …);
    returns one lane index per item.  Touching spans share a lane.
    """
    lane_ends: List[float] = []
    lanes: List[int] = []
    for start, end in items:
        for i, lane_end in enumerate(lane_ends):
            if start >= lane_end - 1e-12:
                lane_ends[i] = end
                lanes.append(i)
                break
        else:
            lane_ends.append(end)
            lanes.append(len(lane_ends) - 1)
    return lanes


def _clean_args(args: Dict) -> Dict:
    return {k: v for k, v in args.items() if v is not None}


def _process(pid: int, name: str) -> Dict:
    """``M`` event naming process *pid*."""
    return {"ph": "M", "name": "process_name", "pid": pid,
            "args": {"name": name}}


def _thread(pid: int, tid: int, name: str) -> Dict:
    """``M`` event naming thread *tid* of process *pid*."""
    return {"ph": "M", "name": "thread_name", "pid": pid, "tid": tid,
            "args": {"name": name}}


def _complete(pid: int, tid: int, name: str, cat: str, ts: float,
              dur: float, args: Dict) -> Dict:
    """``X`` (complete) event: one window, microsecond ``ts``/``dur``."""
    return {"ph": "X", "pid": pid, "tid": tid, "name": name, "cat": cat,
            "ts": ts, "dur": dur, "args": args}


def _dumps(doc: Dict) -> str:
    """The canonical serialization every Chrome export shares."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def _span_end(span: SpanRecord, makespan: float) -> float:
    return span.end if span.end is not None else makespan


def perfetto_trace(tracer: Tracer) -> Dict:
    """Build the Chrome/Perfetto trace object for a traced run."""
    job = tracer.job
    if job is None:
        raise ValueError("tracer carries no JobTrace; run a job with "
                         "simulate_job(..., obs=tracer) first")
    node_names = sorted(job.node_names)
    pid_of = {name: _NODE_PID0 + i for i, name in enumerate(node_names)}

    meta: List[Dict] = []
    data: List[Dict] = []
    thread_names: Dict[Tuple[int, int], str] = {}

    def name_thread(pid: int, tid: int, name: str) -> None:
        thread_names.setdefault((pid, tid), name)

    for name in node_names:
        meta.append(_process(pid_of[name], name))
    meta.append(_process(_DRIVER_PID, "driver"))
    meta.append(_process(_ENGINE_PID, "engine"))

    # -- spans --------------------------------------------------------
    # Task-attempt spans live on (node, slotN) tracks; their args carry
    # the attempt's trace id, which maps the task's core intervals onto
    # the same thread below.
    slot_of: Dict[Tuple[str, str], int] = {}
    hdfs_spans: Dict[str, List[SpanRecord]] = {}
    for span in tracer.spans:
        group, lane = span.track
        if group in pid_of and lane.startswith("slot"):
            pid, tid = pid_of[group], int(lane[4:])
            name_thread(pid, tid, lane)
            task = span.args.get("task")
            if task is not None:
                slot_of[(group, task)] = tid
        elif group in pid_of and lane == "hdfs":
            hdfs_spans.setdefault(group, []).append(span)
            continue  # lane-assigned after the loop
        elif group == "engine":
            pid, tid = _ENGINE_PID, 0
            name_thread(pid, tid, lane)
        else:  # driver tracks (stages, scheduler, ...)
            pid = _DRIVER_PID
            tid = _DRIVER_LANES.get(lane, len(_DRIVER_LANES))
            name_thread(pid, tid, lane)
        end = _span_end(span, job.makespan)
        data.append(_complete(pid, tid, span.name, span.cat or "span",
                              span.start * _US, (end - span.start) * _US,
                              _clean_args(span.args)))

    for group in sorted(hdfs_spans):
        spans = sorted(hdfs_spans[group],
                       key=lambda s: (s.start, _span_end(s, job.makespan),
                                      s.name))
        windows = [(s.start, _span_end(s, job.makespan)) for s in spans]
        for span, lane in zip(spans, _assign_lanes(windows)):
            pid, tid = pid_of[group], _HDFS_TID + lane
            name_thread(pid, tid, "hdfs" if lane == 0 else f"hdfs#{lane}")
            data.append(_complete(
                pid, tid, span.name, span.cat or "hdfs",
                span.start * _US,
                (_span_end(span, job.makespan) - span.start) * _US,
                _clean_args(span.args)))

    # -- activity intervals -------------------------------------------
    # Core intervals ride on the slot that ran the task; device activity
    # goes to per-device lanes, first-fit packed when transfers overlap.
    device_ivs: Dict[Tuple[str, str], List[Interval]] = {}
    for iv in job.intervals:
        if iv.node not in pid_of:
            continue
        if iv.device == "core":
            tid = slot_of.get((iv.node, iv.task_id))
            if tid is None:
                tid = _CORE_SPILL_TID
                name_thread(pid_of[iv.node], tid, "core")
            data.append(_complete(
                pid_of[iv.node], tid, iv.kind, f"core/{iv.phase}",
                iv.start * _US, iv.duration * _US,
                _clean_args({"task": iv.task_id, "activity": iv.activity,
                             "phase": iv.phase})))
        else:
            device_ivs.setdefault((iv.node, iv.device), []).append(iv)

    for (node, device) in sorted(device_ivs):
        base = _DEVICE_TID.get(device, _DEVICE_TID["fw"])
        ivs = sorted(device_ivs[(node, device)],
                     key=lambda iv: (iv.start, iv.end, iv.kind,
                                     iv.task_id or ""))
        windows = [(iv.start, iv.end) for iv in ivs]
        for iv, lane in zip(ivs, _assign_lanes(windows)):
            tid = base + lane
            name_thread(pid_of[node], tid,
                        device if lane == 0 else f"{device}#{lane}")
            data.append(_complete(
                pid_of[node], tid, iv.kind, f"{device}/{iv.phase}",
                iv.start * _US, iv.duration * _US,
                _clean_args({"task": iv.task_id, "activity": iv.activity,
                             "phase": iv.phase})))

    # -- instant events ------------------------------------------------
    for event in tracer.events:
        group, lane = event.track
        if group in pid_of:
            pid, tid = pid_of[group], 0
        elif group == "engine":
            pid, tid = _ENGINE_PID, 0
            name_thread(pid, tid, lane)
        else:
            pid = _DRIVER_PID
            tid = _DRIVER_LANES.get(lane, len(_DRIVER_LANES))
            name_thread(pid, tid, lane)
        data.append({"ph": "i", "pid": pid, "tid": tid, "s": "t",
                     "name": event.name, "cat": event.cat or "event",
                     "ts": event.time * _US,
                     "args": _clean_args(event.args)})
    for when, label in job.marks:
        name_thread(_DRIVER_PID, _DRIVER_LANES["marks"], "marks")
        data.append({"ph": "i", "pid": _DRIVER_PID,
                     "tid": _DRIVER_LANES["marks"], "s": "t", "name": label,
                     "cat": "mark", "ts": when * _US, "args": {}})

    # -- counter tracks ------------------------------------------------
    node_set = set(node_names)
    for name, counter in tracer.counters.items():
        suffix = name.rsplit(".", 1)[-1]
        pid = pid_of[suffix] if suffix in node_set else _DRIVER_PID
        series = name[:-(len(suffix) + 1)] if suffix in node_set else name
        for t, value in counter.samples:
            data.append({"ph": "C", "pid": pid, "name": series,
                         "ts": t * _US, "args": {"value": value}})

    # Instantaneous dynamic power per node, folded from the recorded
    # activity intervals and each node's power model: the counter steps
    # at every interval edge by that interval's uplift.
    for name in node_names:
        power = job.node_power.get(name)
        if power is None:
            continue
        deltas: Dict[float, float] = {}
        for iv in job.intervals:
            if iv.node != name or iv.end <= iv.start:
                continue
            uplift = power.interval_uplift(iv)
            if uplift == 0.0:
                continue
            deltas[iv.start] = deltas.get(iv.start, 0.0) + uplift
            deltas[iv.end] = deltas.get(iv.end, 0.0) - uplift
        level = 0.0
        for t in sorted(deltas):
            level += deltas[t]
            data.append({"ph": "C", "pid": pid_of[name], "name": "power_w",
                         "ts": t * _US, "args": {"value": level}})

    for (pid, tid) in sorted(thread_names):
        meta.append(_thread(pid, tid, thread_names[(pid, tid)]))

    data.sort(key=lambda e: (e["ts"], e["pid"], e.get("tid", -1),
                             e["ph"], e["name"], e.get("dur", 0.0)))
    return {
        "displayTimeUnit": "ms",
        "otherData": {
            "workload": job.workload,
            "machine": job.machine,
            "n_nodes": len(job.nodes),
            "makespan_s": job.makespan,
        },
        "traceEvents": meta + data,
    }


def perfetto_json(tracer: Tracer) -> str:
    """Serialize :func:`perfetto_trace` deterministically (sorted keys)."""
    return _dumps(perfetto_trace(tracer)) + "\n"


def request_trace(traces: Sequence["RequestTrace"]) -> Dict:
    """Chrome trace-event object for a batch of completed request traces.

    One *process* (``serve``), one thread per request named by its id,
    the whole request as an enclosing ``request`` span so Perfetto nests
    its ``phase`` spans visually, and microsecond timestamps rebased to
    the earliest request start (rounded to the nanosecond: wall-clock
    stamps carry no more precision than that).
    """
    events: List[Dict] = [_process(1, "serve")]
    if not traces:
        return {"traceEvents": events, "displayTimeUnit": "ms"}
    ordered = sorted(traces, key=lambda t: (t.t0, t.id))
    base = ordered[0].t0
    for tid, trace in enumerate(ordered, start=1):
        events.append(_thread(1, tid, f"{trace.id} {trace.method} "
                                      f"{trace.route}"))
        args: Dict[str, object] = {"id": trace.id, "route": trace.route}
        if trace.status is not None:
            args["status"] = trace.status
        events.append(_complete(
            1, tid, f"{trace.method} {trace.route}", "request",
            round((trace.t0 - base) * _US, 3),
            round(trace.duration_s * _US, 3), args))
        for rec in sorted(trace.spans,
                          key=lambda s: (s.start, s.end, s.name)):
            span_args: Dict[str, object] = {"id": trace.id}
            span_args.update(rec.args)
            events.append(_complete(
                1, tid, rec.name, "phase",
                round((rec.start - base) * _US, 3),
                round(rec.duration * _US, 3), span_args))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def request_json(traces: Sequence["RequestTrace"]) -> str:
    """Serialize :func:`request_trace` canonically (sorted keys)."""
    return _dumps(request_trace(traces))


def timeline_csv(job: JobTrace, bins: int = 120) -> str:
    """Per-node utilization/energy timeline, time-binned to *bins* rows.

    Columns: bin start, node, core utilization (busy core-seconds over
    ``bin × n_cores``), disk/NIC/framework busy fractions, mean dynamic
    power uplift, and dynamic energy spent in the bin.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    names = sorted(job.node_names)
    width = job.makespan / bins if job.makespan > 0 else 1.0
    zero = lambda: [0.0] * bins  # noqa: E731 - tiny local factory
    busy = {name: {"core": zero(), "disk": zero(), "nic": zero(),
                   "fw": zero()} for name in names}
    joules = {name: zero() for name in names}

    for iv in job.intervals:
        if iv.node not in busy or iv.end <= iv.start:
            continue
        power = job.node_power.get(iv.node)
        uplift = power.interval_uplift(iv) if power is not None else 0.0
        start = max(0.0, iv.start)
        end = min(job.makespan, iv.end) if job.makespan > 0 else iv.end
        b0 = min(bins - 1, int(start / width))
        b1 = min(bins - 1, int(end / width))
        for b in range(b0, b1 + 1):
            lo, hi = b * width, (b + 1) * width
            overlap = min(end, hi) - max(start, lo)
            if overlap <= 0:
                continue
            device = iv.device if iv.device in ("core", "disk", "nic") \
                else "fw"
            if iv.device != "uncore":
                busy[iv.node][device][b] += overlap
            joules[iv.node][b] += uplift * overlap

    cores = {n.name: n.n_cores for n in job.nodes}
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["bin_start_s", "node", "core_util", "disk_util",
                     "nic_util", "fw_util", "uplift_w", "energy_j"])
    for b in range(bins):
        for name in names:
            n_cores = max(1, cores.get(name, 1))
            writer.writerow([
                b * width, name,
                busy[name]["core"][b] / (width * n_cores),
                busy[name]["disk"][b] / width,
                busy[name]["nic"][b] / width,
                busy[name]["fw"][b] / width,
                joules[name][b] / width,
                joules[name][b],
            ])
    return buffer.getvalue()


_BLOCKS = " ▁▂▃▄▅▆▇█"


def _ascii_chart(samples: List[Tuple[float, float]], makespan: float,
                 columns: int = 60) -> Tuple[str, float]:
    """Render a step-function counter as one line of block characters."""
    if not samples or makespan <= 0:
        return "", 0.0
    width = makespan / columns
    peaks = []
    level = 0.0
    index = 0
    for b in range(columns):
        hi = (b + 1) * width
        peak = level
        while index < len(samples) and samples[index][0] < hi:
            level = samples[index][1]
            peak = max(peak, level)
            index += 1
        peaks.append(peak)
    top = max(peaks)
    if top <= 0:
        return _BLOCKS[0] * columns, 0.0
    chart = "".join(
        _BLOCKS[min(len(_BLOCKS) - 1,
                    int(math.ceil(p / top * (len(_BLOCKS) - 1))))]
        for p in peaks)
    return chart, top


def text_summary(tracer: Tracer) -> str:
    """Human-readable digest of a traced run."""
    job = tracer.job
    if job is None:
        raise ValueError("tracer carries no JobTrace")
    lines: List[str] = []
    lines.append(f"{job.workload} on {job.machine} "
                 f"({len(job.nodes)} nodes) -- trace summary")
    lines.append(f"  makespan        : {job.makespan:10.2f} s")
    if job.energy is not None:
        edp = job.energy.dynamic_joules * job.makespan
        lines.append(f"  dynamic energy  : "
                     f"{job.energy.dynamic_joules:10.1f} J")
        lines.append(f"  dynamic power   : "
                     f"{job.energy.average_dynamic_watts:10.2f} W")
        lines.append(f"  EDP             : {edp:10.3e} J*s")

    lines.append("")
    lines.append("phase windows (wall clock per stage)")
    for timing in job.stages:
        lines.append(f"  {timing.stage:<14s} setup {timing.setup_s:8.2f}  "
                     f"map {timing.map_s:8.2f}  "
                     f"reduce {timing.reduce_s:8.2f}  "
                     f"cleanup {timing.cleanup_s:8.2f}")

    # Top time sinks: busy time grouped by activity kind, so a run's
    # makespan decomposes into named mechanisms, not CSV columns.
    sinks: Dict[Tuple[str, str], float] = {}
    total_busy = 0.0
    for iv in job.intervals:
        if iv.device == "uncore":
            continue
        sinks[(iv.device, iv.kind)] = (sinks.get((iv.device, iv.kind), 0.0)
                                       + iv.duration)
        total_busy += iv.duration
    lines.append("")
    lines.append(f"top time sinks (of {total_busy:.1f} busy device-seconds)")
    top = sorted(sinks.items(), key=lambda kv: (-kv[1], kv[0]))[:12]
    for (device, kind), seconds in top:
        share = 100.0 * seconds / total_busy if total_busy > 0 else 0.0
        lines.append(f"  {device:<6s} {kind:<24s} {seconds:10.2f} s "
                     f"({share:5.1f}%)")

    # Wave structure: how many task waves each phase needed, plus a
    # cluster-wide running-task chart from the live-task counter.
    lines.append("")
    lines.append("task waves")
    for span in tracer.spans_on("driver", "stages"):
        tasks = span.args.get("tasks")
        slots = span.args.get("slots")
        if tasks is None or slots is None:
            continue
        waves = math.ceil(tasks / slots) if slots else 0
        lines.append(f"  {span.name:<20s} {tasks:4d} tasks / "
                     f"{slots:3d} slots = {waves:2d} wave(s)")
    if "tasks.running" in tracer.counters:
        chart, peak = _ascii_chart(
            tracer.counters["tasks.running"].samples, job.makespan)
        if chart:
            lines.append(f"  running tasks   [{chart}] peak {peak:.0f}")

    counters = job.counters
    if counters is not None:
        lines.append("")
        lines.append("recovery and wasted work")
        lines.append(f"  attempts        : {counters.map_attempts} map, "
                     f"{counters.reduce_attempts} reduce "
                     f"({counters.failed_attempts} failed, "
                     f"{counters.killed_attempts} killed, "
                     f"{counters.speculative_attempts} speculative)")
        lines.append(f"  node crashes    : {counters.node_crashes} "
                     f"({counters.lost_map_outputs} map outputs lost)")
        lines.append(f"  wasted slot time: "
                     f"{counters.wasted_task_seconds:10.2f} s "
                     f"({100.0 * counters.wasted_fraction:.1f}% of task "
                     f"slot-seconds)")

    if job.engine:
        lines.append("")
        lines.append("engine")
        for key in sorted(job.engine):
            lines.append(f"  {key:<24s} {job.engine[key]:>12.0f}")

    hdfs_meta = {k: v for k, v in tracer.meta.items()
                 if k.startswith("hdfs.")}
    if hdfs_meta:
        lines.append("")
        lines.append("hdfs")
        for key in sorted(hdfs_meta):
            lines.append(f"  {key:<24s} {hdfs_meta[key]:>16.0f}")

    return "\n".join(lines) + "\n"


def write_trace_files(tracer: Tracer, directory: Union[str, Path],
                      bins: int = 120) -> List[Path]:
    """Write ``trace.json``, ``timeline.csv`` and ``summary.txt``."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    job = tracer.job
    if job is None:
        raise ValueError("tracer carries no JobTrace")
    outputs = [
        (directory / "trace.json", perfetto_json(tracer)),
        (directory / "timeline.csv", timeline_csv(job, bins=bins)),
        (directory / "summary.txt", text_summary(tracer)),
    ]
    for path, text in outputs:
        path.write_text(text, encoding="utf-8", newline="\n")
    return [path for path, _ in outputs]
