"""Tests for the work counter (``obs/prof``) and the log histogram."""

from __future__ import annotations

import pytest

from repro.mapreduce.driver import simulate_job
from repro.obs import prof
from repro.obs.metrics import LogHistogram
from repro.obs.prof import Profiler
from repro.sim.engine import Simulator


@pytest.fixture(autouse=True)
def _no_leaked_profiler():
    """Every test starts and ends with profiling off."""
    assert prof.ACTIVE is None
    yield
    prof.uninstall()


class TestLogHistogram:
    def test_percentiles_bracket_recorded_values(self):
        h = LogHistogram()
        for ms in (1, 2, 3, 4, 100):
            h.record(ms * 1e-3)
        assert h.total == 5
        assert h.min == 1e-3 and h.max == 0.1
        # p50 lands in the 3ms bucket (±19% quantization), p99 on the max.
        assert h.percentile(50.0) == pytest.approx(3e-3, rel=0.25)
        assert h.percentile(99.0) == pytest.approx(0.1, rel=0.25)
        # Quantiles are clamped to the exact recorded range.
        assert h.min <= h.percentile(1.0) <= h.percentile(100.0) <= h.max

    def test_out_of_range_values_clamp_to_edge_buckets(self):
        h = LogHistogram()
        h.record(1e-12)   # below MIN_VALUE
        h.record(1e9)     # beyond the last bucket
        assert h.counts[0] == 1 and h.counts[-1] == 1
        assert h.min == 1e-12 and h.max == 1e9

    def test_empty_and_invalid(self):
        h = LogHistogram()
        assert h.percentile(50.0) == 0.0
        with pytest.raises(ValueError):
            h.percentile(0.0)
        with pytest.raises(ValueError):
            h.percentile(101.0)
        h.record(1.0, count=0)  # non-positive counts are ignored
        assert h.total == 0

    def test_merge(self):
        a, b = LogHistogram(), LogHistogram()
        a.record(1e-3, 10)
        b.record(1e-1, 5)
        a.merge(b)
        assert a.total == 15
        assert a.min == 1e-3 and a.max == 1e-1

    def test_to_dict_buckets_are_sparse(self):
        h = LogHistogram()
        h.record(5e-4, 7)
        d = h.to_dict()
        assert d["total"] == 7
        assert list(d["buckets"].values()) == [7]


class TestProfiler:
    def test_count_tallies_exactly(self):
        p = Profiler()
        p.count("engine.events", 5)
        p.count("engine.events", 2)
        p.count("driver.run.calls")
        assert p.counts == {"engine.events": 7, "driver.run.calls": 1}


class TestModuleApi:
    def test_profiled_restores_previous_handle(self):
        outer = prof.install()
        with prof.profiled() as inner:
            assert prof.ACTIVE is inner and inner is not outer
        assert prof.ACTIVE is outer
        prof.uninstall()
        assert prof.ACTIVE is None


class TestInstrumentation:
    def test_engine_profiled_twin_matches_unprofiled_run(self):
        def worker(sim):
            for _ in range(5):
                yield sim.timeout(1.0)

        plain = Simulator()
        plain.process(worker(plain))
        plain.run()

        profiled_sim = Simulator()
        profiled_sim.process(worker(profiled_sim))
        with prof.profiled() as p:
            profiled_sim.run()
        assert profiled_sim.now == plain.now
        assert profiled_sim.event_count == plain.event_count
        assert p.counts["engine.run.calls"] == 1
        assert p.counts["engine.events"] == profiled_sim.event_count

    def test_engine_buckets_count_each_timestamp_once(self):
        def worker(sim):
            for _ in range(5):
                yield sim.timeout(1.0)

        sim = Simulator()
        sim.process(worker(sim))
        with prof.profiled() as p:
            sim.run()
        # Seven events at six timestamps: the completion joins the last
        # timeout's bucket while it drains.
        assert p.counts["engine.events"] == 7
        assert p.counts["engine.buckets"] == 6
        assert p.counts["engine.heap_pushes"] == 6  # entries, not pushes

    def test_simulate_job_records_expected_phases(self):
        with prof.profiled() as p:
            result = simulate_job("atom", "wordcount",
                                  data_per_node_gb=0.0625)
        assert result.execution_time_s > 0
        names = set(p.counts)
        for expected in ("engine.run.calls", "engine.events",
                         "driver.run.calls", "driver.stage.map.calls",
                         "driver.stage.reduce.calls",
                         "hdfs.load_input.calls", "hdfs.place_block.calls"):
            assert expected in names, f"missing count {expected}"

    def test_profiling_never_changes_results(self):
        baseline = simulate_job("atom", "terasort", data_per_node_gb=0.125)
        with prof.profiled():
            profiled = simulate_job("atom", "terasort",
                                    data_per_node_gb=0.125)
        assert profiled.execution_time_s == baseline.execution_time_s
        assert profiled.dynamic_energy_j == baseline.dynamic_energy_j
        assert profiled.counters == baseline.counters
