"""Tests for the wall-clock phase profiler and its histogram."""

from __future__ import annotations

import threading

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


class FakeClock:
    """Deterministic monotonic clock for timing-free profiler tests."""

    def __init__(self):
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, dt: float) -> None:
        self.now += dt


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


class TestPhaseStat:
    """A profiler phase is one LogHistogram: ``total`` counts its calls,
    ``sum`` holds its seconds."""

    def test_batched_record_attributes_mean_latency(self):
        p = Profiler()
        p.record("engine.dispatch", 0.256, calls=256)   # 1ms mean per call
        stat = p.get("engine.dispatch")
        assert stat.total == 256
        assert stat.sum == 0.256        # the batch total, kept exactly
        assert p.to_dict()["phases"]["engine.dispatch"]["mean_s"] == \
            pytest.approx(1e-3)
        assert stat.percentile(50.0) == pytest.approx(1e-3, rel=0.25)

    def test_to_dict_shape(self):
        p = Profiler()
        p.record("x", 0.5)
        d = p.to_dict()["phases"]["x"]
        assert set(d) == {"calls", "total_s", "mean_s", "min_s", "max_s",
                          "p50_s", "p95_s", "p99_s"}


class TestProfiler:
    def test_phase_context_manager_uses_injected_clock(self):
        clock = FakeClock()
        p = Profiler(clock=clock)
        with p.phase("work"):
            clock.advance(2.5)
        stat = p.get("work")
        assert stat.total == 1 and stat.sum == pytest.approx(2.5)

    def test_to_dict_orders_phases_by_total_desc(self):
        p = Profiler()
        p.record("small", 0.1)
        p.record("big", 5.0)
        assert list(p.to_dict()["phases"]) == ["big", "small"]

    def test_merge_folds_phases_and_meta(self):
        a, b = Profiler(), Profiler()
        a.record("x", 1.0)
        a.count("n", 2)
        b.record("x", 3.0, calls=2)
        b.count("n", 5)
        a.merge(b)
        assert a.get("x").total == 3
        assert a.get("x").sum == pytest.approx(4.0)
        assert a.meta["n"] == 7

    def test_thread_safe_recording(self):
        p = Profiler()

        def worker():
            for _ in range(500):
                p.record("shared", 1e-6)
                p.count("hits")

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert p.get("shared").total == 2000
        assert p.meta["hits"] == 2000

    def test_render_lists_hottest_first(self):
        p = Profiler()
        p.record("cool", 0.001)
        p.record("hot", 9.0)
        lines = p.render().splitlines()
        assert "hot" in lines[1] and "cool" in lines[2]


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
        assert p.get("engine.run").total == 1
        assert p.get("engine.dispatch").total == profiled_sim.event_count
        assert p.meta["engine.events"] == profiled_sim.event_count

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
        assert p.meta["engine.events"] == 7
        assert p.meta["engine.buckets"] == 6
        assert p.meta["engine.heap_pushes"] == 6  # entries, not heap pushes

    def test_simulate_job_records_expected_phases(self):
        with prof.profiled() as p:
            result = simulate_job("atom", "wordcount",
                                  data_per_node_gb=0.0625)
        assert result.execution_time_s > 0
        names = set(p.phases)
        for expected in ("engine.run", "engine.dispatch", "driver.run",
                         "driver.stage.map", "driver.stage.reduce",
                         "hdfs.load_input", "hdfs.place_block"):
            assert expected in names, f"missing phase {expected}"

    def test_profiling_never_changes_results(self):
        baseline = simulate_job("atom", "terasort", data_per_node_gb=0.125)
        with prof.profiled():
            profiled = simulate_job("atom", "terasort",
                                    data_per_node_gb=0.125)
        assert profiled.execution_time_s == baseline.execution_time_s
        assert profiled.dynamic_energy_j == baseline.dynamic_energy_j
        assert profiled.counters == baseline.counters
