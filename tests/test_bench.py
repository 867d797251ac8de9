"""Tests for the benchmark harness: suite, report schema, work-count pin.

``COUNTS`` pins the exact work counts of every counted scenario: the
scenario's metrics plus the work counter's tallies (``repro.obs.prof``),
as :func:`repro.bench.scenario_counts` reports them in a
``BENCH_*.json`` row.  A change that makes a scenario do more or less
work fails here with the scenario, the count and both values; wall
times are not gated anywhere.

Print the current counts with ``PYTHONPATH=src python
tests/test_bench.py``.  Re-pin only together with a change that is
meant to move the work the simulator does.
"""

from __future__ import annotations

import json

import pytest

from repro.bench import (BENCH_SCHEMA, BENCH_SCHEMA_VERSION, SCENARIOS,
                         run_suite, scenario_counts, write_report)
from repro.bench.runner import render_report
from repro.bench.scenarios import (cleanup_context, make_context,
                                   scenario_names)
from repro.cli import main

#: scenario -> exact work counts.
COUNTS = {
    "engine.throughput": {
        "engine.buckets": 39,
        "engine.events": 30000,
        "engine.heap_pushes": 27500,
        "engine.run.calls": 1,
        "events": 30000.0,
    },
    "job.wordcount": {
        "driver.run.calls": 1,
        "driver.stage.cleanup.calls": 1,
        "driver.stage.map.calls": 1,
        "driver.stage.reduce.calls": 1,
        "driver.stage.setup.calls": 1,
        "engine.buckets": 641,
        "engine.compute_posts": 201,
        "engine.count_offs": 1023,
        "engine.device_steps": 1038,
        "engine.events": 5507,
        "engine.fan_out_boots": 9,
        "engine.heap_pushes": 5506,
        "engine.join_fires": 507,
        "engine.leg_boots": 1014,
        "engine.residual_posts": 486,
        "engine.run.calls": 1,
        "hdfs.load_input.calls": 1,
        "hdfs.place_block.calls": 99,
        "map_attempts": 96.0,
        "reduce_attempts": 3.0,
        "sim_makespan_s": 475.01871739560175,
    },
    "job.terasort": {
        "driver.run.calls": 1,
        "driver.stage.cleanup.calls": 2,
        "driver.stage.map.calls": 2,
        "driver.stage.reduce.calls": 1,
        "driver.stage.setup.calls": 2,
        "engine.buckets": 832,
        "engine.compute_posts": 238,
        "engine.count_offs": 1202,
        "engine.device_steps": 1232,
        "engine.events": 6475,
        "engine.fan_out_boots": 18,
        "engine.heap_pushes": 6474,
        "engine.join_fires": 596,
        "engine.leg_boots": 1184,
        "engine.residual_posts": 527,
        "engine.run.calls": 1,
        "hdfs.load_input.calls": 2,
        "hdfs.place_block.calls": 116,
        "map_attempts": 101.0,
        "reduce_attempts": 12.0,
        "sim_makespan_s": 488.6997444401842,
    },
    "job.kmeans": {
        "driver.run.calls": 1,
        "driver.stage.cleanup.calls": 4,
        "driver.stage.map.calls": 4,
        "driver.stage.reduce.calls": 4,
        "driver.stage.setup.calls": 4,
        "engine.buckets": 1329,
        "engine.compute_posts": 420,
        "engine.count_offs": 2124,
        "engine.device_steps": 2184,
        "engine.events": 11606,
        "engine.fan_out_boots": 36,
        "engine.heap_pushes": 11605,
        "engine.join_fires": 1044,
        "engine.leg_boots": 2088,
        "engine.residual_posts": 960,
        "engine.run.calls": 1,
        "hdfs.load_input.calls": 4,
        "hdfs.place_block.calls": 204,
        "map_attempts": 192.0,
        "reduce_attempts": 12.0,
        "sim_makespan_s": 417.3305480007749,
    },
    "datacenter.small": {
        "datacenter.outer.calls": 2,
        "engine.buckets": 50,
        "engine.events": 152,
        "engine.heap_pushes": 148,
        "engine.run.calls": 2,
        "fifo_makespan_s": 168.9202624639289,
        "hetero_edp_vs_fifo": 0.807566311090048,
        "jobs_scheduled": 24.0,
    },
    "trace.export": {
        "csv_bytes": 38104.0,
        "json_bytes": 255227.0,
        "spans": 59.0,
        "summary_bytes": 1894.0,
    },
}

BY_NAME = {s.name: s for s in SCENARIOS}


@pytest.fixture(scope="module")
def small_report():
    """One real (tiny) suite run shared by the schema tests."""
    return run_suite(names=["engine.throughput"], repeat=2, warmup=1)


@pytest.fixture(scope="module")
def ctx():
    context = make_context()
    yield context
    cleanup_context(context)


def moved_counts(name: str, counts) -> list:
    """``key: old -> new`` for every count that differs from the pin."""
    pinned = COUNTS[name]
    return [f"{key}: {pinned.get(key)!r} -> {counts.get(key)!r}"
            for key in sorted(set(pinned) | set(counts))
            if pinned.get(key) != counts.get(key)]


class TestWorkCounts:
    def test_every_counted_scenario_is_pinned(self):
        assert sorted(COUNTS) == sorted(s.name for s in SCENARIOS
                                        if s.counted)

    @pytest.mark.parametrize("name", sorted(COUNTS))
    def test_work_counts_unchanged(self, name, ctx):
        moved = moved_counts(name, scenario_counts(BY_NAME[name], ctx))
        assert not moved, f"{name} work counts moved: " + "; ".join(moved)

    @pytest.mark.parametrize("name", ["job.wordcount", "job.terasort",
                                      "job.kmeans"])
    def test_data_path_kinds_are_a_share_of_the_events(self, name):
        """Each kind counts calendar entries the run fired: a boot, a
        count-off, a join fire, a compute or a residual is one entry, a
        device step two (its grant and its completion).  Every boot,
        of a leg or of a fan-out, counts off once."""
        c = COUNTS[name]
        assert c["engine.count_offs"] == (c["engine.leg_boots"]
                                          + c["engine.fan_out_boots"])
        entries = (c["engine.leg_boots"] + c["engine.fan_out_boots"]
                   + c["engine.count_offs"] + 2 * c["engine.device_steps"]
                   + c["engine.join_fires"] + c["engine.compute_posts"]
                   + c["engine.residual_posts"])
        assert entries < c["engine.events"]

    def test_counts_do_not_depend_on_which_call_built_a_fixture(self):
        # The runner counts after the timed reps, the pin above on a
        # context whose fixtures the counting call's setup built.
        warm = make_context()
        try:
            for name in ("datacenter.small", "trace.export"):
                BY_NAME[name].setup(warm)
                BY_NAME[name].fn(warm)
                assert not moved_counts(name,
                                        scenario_counts(BY_NAME[name], warm))
        finally:
            cleanup_context(warm)


class TestScenarios:
    def test_suite_is_large_and_uniquely_named(self):
        names = scenario_names()
        assert len(names) >= 5
        assert len(set(names)) == len(names)
        kinds = {s.kind for s in SCENARIOS}
        assert kinds == {"micro", "macro"}

    def test_unknown_scenario_rejected_before_running(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_suite(names=["no.such.scenario"])

    def test_bad_counts_rejected(self):
        with pytest.raises(ValueError):
            run_suite(names=["engine.throughput"], repeat=0)
        with pytest.raises(ValueError):
            run_suite(names=["engine.throughput"], warmup=-1)


class TestReportSchema:
    def test_schema_and_provenance(self, small_report):
        assert small_report["schema"] == BENCH_SCHEMA
        assert small_report["schema_version"] == BENCH_SCHEMA_VERSION
        assert "rev" in small_report["git"]
        for key in ("platform", "python", "machine", "cpu_count"):
            assert key in small_report["host"]
        assert small_report["config"]["repeat"] == 2

    def test_scenario_stats(self, small_report):
        row = small_report["scenarios"]["engine.throughput"]
        assert len(row["reps_s"]) == 2
        assert row["min_s"] <= row["median_s"] <= row["max_s"]

    def test_profile_breakdown_embedded(self, small_report):
        # The report row carries the very counts the pin checks.
        counts = small_report["scenarios"]["engine.throughput"]["counts"]
        assert counts == COUNTS["engine.throughput"]
        assert counts["engine.events"] == counts["events"]

    def test_write_then_load_roundtrip(self, small_report, tmp_path):
        path = write_report(small_report, tmp_path / "BENCH_test.json")
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded == small_report

    def test_render_report_mentions_every_scenario(self, small_report):
        assert "engine.throughput" in render_report(small_report)


class TestCli:
    def test_bench_list(self, capsys):
        assert main(["bench", "list"]) == 0
        out = capsys.readouterr().out
        for scenario in SCENARIOS:
            assert scenario.name in out

    def test_bench_run_writes_report(self, tmp_path, capsys):
        out_file = tmp_path / "BENCH_cli.json"
        assert main(["bench", "--scenario", "engine.throughput",
                     "--repeat", "1", "--warmup", "0",
                     "-o", str(out_file)]) == 0
        assert "wrote" in capsys.readouterr().out
        report = json.loads(out_file.read_text(encoding="utf-8"))
        assert list(report["scenarios"]) == ["engine.throughput"]
        assert report["scenarios"]["engine.throughput"]["counts"] == \
            COUNTS["engine.throughput"]

    def test_bench_run_subcommand_takes_same_flags(self, tmp_path, capsys):
        out_file = tmp_path / "BENCH_sub.json"
        assert main(["bench", "run", "--scenario", "engine.throughput",
                     "--repeat", "1", "--warmup", "0",
                     "-o", str(out_file)]) == 0
        capsys.readouterr()
        assert out_file.exists()

    def test_unknown_scenario_is_a_clean_error(self, capsys):
        assert main(["bench", "--scenario", "bogus"]) == 2
        assert "unknown scenario" in capsys.readouterr().err


if __name__ == "__main__":
    context = make_context()
    print("COUNTS = {")
    for scenario in SCENARIOS:
        if scenario.counted:
            print(f'    "{scenario.name}": {{')
            for key, value in scenario_counts(scenario, context).items():
                print(f'        "{key}": {value!r},')
            print("    },")
    print("}")
