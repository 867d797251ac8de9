"""Tests for the trace exporters: Perfetto JSON, timeline CSV, summary."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.mapreduce.driver import simulate_job
from repro.obs import (JobTrace, NodeInfo, Tracer, perfetto_json,
                       perfetto_trace, text_summary, timeline_csv,
                       write_trace_files)
from repro.sim.faults import FaultPlan, NodeFault

GOLDEN = Path(__file__).parent / "data" / "wordcount_small_trace.json"


def _small_trace() -> Tracer:
    t = Tracer()
    simulate_job("atom", "wordcount", data_per_node_gb=0.0625, obs=t)
    return t


@pytest.fixture(scope="module")
def tracer() -> Tracer:
    return _small_trace()


class TestPerfetto:
    def test_matches_golden_file(self, tracer):
        """Byte-for-byte against the checked-in trace.

        Regenerate after an intentional model/exporter change with:
        ``PYTHONPATH=src python tests/data/regen_golden.py``
        """
        assert perfetto_json(tracer).encode() == GOLDEN.read_bytes()

    def test_structure(self, tracer):
        doc = perfetto_trace(tracer)
        events = doc["traceEvents"]
        pids = {e["args"]["name"]: e["pid"] for e in events
                if e["ph"] == "M" and e["name"] == "process_name"}
        # one process per node plus the driver and engine tracks
        assert set(pids) == {"atom0", "atom1", "atom2", "driver", "engine"}
        threads = {(e["pid"], e["args"]["name"]) for e in events
                   if e["ph"] == "M" and e["name"] == "thread_name"}
        assert (pids["atom0"], "slot0") in threads
        assert (pids["driver"], "stages") in threads
        # counter tracks for live tasks and queue backlog and power
        counters = {(e["pid"], e["name"]) for e in events if e["ph"] == "C"}
        assert (pids["driver"], "tasks.running") in counters
        assert (pids["driver"], "queue.backlog.map") in counters
        assert (pids["atom1"], "power_w") in counters
        assert (pids["atom2"], "tasks.running") in counters
        # spans carry microsecond ts/dur within the makespan
        spans = [e for e in events if e["ph"] == "X"]
        limit = tracer.job.makespan * 1e6 + 1.0
        assert spans
        for e in spans:
            assert 0.0 <= e["ts"] <= limit
            assert e["dur"] >= 0.0

    def test_power_counter_returns_to_zero(self, tracer):
        doc = perfetto_trace(tracer)
        per_node = {}
        for e in doc["traceEvents"]:
            if e["ph"] == "C" and e["name"] == "power_w":
                per_node.setdefault(e["pid"], []).append(
                    (e["ts"], e["args"]["value"]))
        assert per_node
        for samples in per_node.values():
            assert samples == sorted(samples)
            assert samples[-1][1] == pytest.approx(0.0, abs=1e-9)

    def test_json_is_valid_and_compact(self, tracer):
        text = perfetto_json(tracer)
        assert json.loads(text)["otherData"]["workload"] == "wordcount"
        assert ": " not in text.splitlines()[0]  # compact separators


class TestDeterminism:
    def test_same_config_same_bytes(self, tracer):
        again = _small_trace()
        assert perfetto_json(tracer) == perfetto_json(again)
        assert timeline_csv(tracer.job) == timeline_csv(again.job)
        assert text_summary(tracer) == text_summary(again)

    def test_cli_trace_identical_across_jobs_width(self, tmp_path, capsys):
        from repro.cli import main
        outs = {}
        for jobs in ("1", "4"):
            outdir = tmp_path / f"j{jobs}"
            assert main(["trace", "wordcount", "--machine", "atom",
                         "--data-gb", "0.0625", "--out", str(outdir),
                         "--check", "--jobs", jobs]) == 0
            outs[jobs] = {p.name: p.read_bytes()
                          for p in sorted(outdir.iterdir())}
        capsys.readouterr()
        assert set(outs["1"]) == {"trace.json", "timeline.csv", "summary.txt"}
        assert outs["1"] == outs["4"]


class TestTimelineCsv:
    def test_shape_and_header(self, tracer):
        lines = timeline_csv(tracer.job, bins=10).splitlines()
        assert lines[0] == ("bin_start_s,node,core_util,disk_util,nic_util,"
                            "fw_util,uplift_w,energy_j")
        assert len(lines) == 1 + 10 * 3  # bins x nodes

    def test_energy_sums_to_breakdown(self, tracer):
        job = tracer.job
        total = 0.0
        for line in timeline_csv(job, bins=50).splitlines()[1:]:
            total += float(line.split(",")[-1])
        assert total == pytest.approx(job.energy.dynamic_joules, rel=1e-6)

    def test_utilization_bounded(self, tracer):
        for line in timeline_csv(tracer.job, bins=20).splitlines()[1:]:
            cells = line.split(",")
            core_util = float(cells[2])
            assert 0.0 <= core_util <= 1.0 + 1e-9

    def test_bins_validated(self, tracer):
        with pytest.raises(ValueError):
            timeline_csv(tracer.job, bins=0)


class TestTextSummary:
    def test_contents(self, tracer):
        text = text_summary(tracer)
        assert "wordcount on atom (3 nodes)" in text
        assert "makespan" in text and "dynamic energy" in text
        assert "top time sinks" in text
        assert "task waves" in text and "wave(s)" in text
        assert "running tasks" in text
        assert "recovery and wasted work" in text
        assert "events_dispatched" in text

    def test_crash_run_reports_recovery(self):
        t = Tracer()
        plan = FaultPlan(node_faults=(NodeFault("atom1", crash_at_s=60.0),))
        simulate_job("atom", "wordcount", fault_plan=plan, obs=t)
        text = text_summary(t)
        assert "node crashes    : 1" in text


class TestWriteTraceFiles:
    def test_writes_three_files(self, tracer, tmp_path):
        paths = write_trace_files(tracer, tmp_path / "out")
        assert [p.name for p in paths] == ["trace.json", "timeline.csv",
                                           "summary.txt"]
        for p in paths:
            assert p.exists() and p.stat().st_size > 0


def _bare_trace(makespan: float = 0.0, nodes=()) -> Tracer:
    """A tracer carrying a hand-built JobTrace (no simulation ran)."""
    tracer = Tracer(clock=lambda: 0.0)
    tracer.job = JobTrace(
        workload="synthetic", machine="atom", makespan=makespan,
        intervals=[], marks=[], nodes=list(nodes), node_power={},
        stages=[], counters=None)
    return tracer


class TestExporterEdgeCases:
    """Degenerate traces must still export valid, non-crashing artifacts."""

    def test_empty_trace(self):
        tracer = _bare_trace()
        doc = json.loads(perfetto_json(tracer))
        # Only process metadata survives; no spans, counters or instants.
        assert all(e["ph"] == "M" for e in doc["traceEvents"])
        assert doc["otherData"]["makespan_s"] == 0.0
        csv_text = timeline_csv(tracer.job)
        assert csv_text.splitlines()[0].startswith("bin_start_s,")
        assert len(csv_text.splitlines()) == 1  # header only: no nodes
        summary = text_summary(tracer)
        assert "synthetic on atom (0 nodes)" in summary
        assert "0.0 busy device-seconds" in summary

    def test_zero_length_spans(self):
        tracer = _bare_trace(
            makespan=10.0, nodes=[NodeInfo("atom0", "atom", 4)])
        with tracer.span("instantaneous", ("atom0", "slot0"), cat="task"):
            pass  # clock frozen: start == end
        tracer.begin("open-at-makespan", ("driver", "stages"))
        doc = json.loads(perfetto_json(tracer))
        spans = {e["name"]: e for e in doc["traceEvents"] if e["ph"] == "X"}
        assert spans["instantaneous"]["dur"] == 0.0
        # An unclosed span is clamped to the makespan, never negative.
        assert spans["open-at-makespan"]["dur"] == pytest.approx(10.0 * 1e6)
        assert text_summary(tracer)

    def test_counter_deduped_to_one_entry(self):
        tracer = _bare_trace(
            makespan=10.0, nodes=[NodeInfo("atom0", "atom", 4)])
        running = tracer.counter("tasks.running")
        running.set(0.0, 3.0)
        running.set(0.0, 5.0)   # same instant: collapses to the latest
        running.set(4.0, 5.0)   # no step: dropped
        assert running.samples == [(0.0, 5.0)]
        doc = json.loads(perfetto_json(tracer))
        counter_events = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        assert len(counter_events) == 1
        assert counter_events[0]["args"]["value"] == 5.0
        # The running-task chart renders a flat line from the single step.
        summary = text_summary(tracer)
        assert "running tasks" in summary and "peak 5" in summary
