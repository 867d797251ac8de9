"""Integration tests for the job driver (simulate_job)."""

from __future__ import annotations

import math

import pytest

from repro.arch.presets import machine
from repro.cluster.server import Cluster
from repro.core.characterization import RunKey
from repro.mapreduce.config import DEFAULT_CONF
from repro.mapreduce.driver import HadoopJobRunner, simulate_job
from repro.sim.engine import Simulator
from repro.workloads.base import workload

GB = 1024 ** 3
MB = 1024 * 1024


class TestBasics:
    def test_result_fields(self, wc_results):
        r = wc_results["xeon"]
        assert r.workload == "wordcount"
        assert r.machine == "xeon"
        assert r.n_nodes == 3
        assert r.execution_time_s > 0
        assert r.dynamic_energy_j > 0
        assert 0 < r.ipc < 4

    def test_phase_times_cover_run(self, wc_results):
        r = wc_results["xeon"]
        total = sum(r.phase_seconds.values())
        assert total == pytest.approx(r.execution_time_s, rel=1e-6)
        assert r.phase_time("map") > 0
        assert r.phase_time("reduce") > 0
        assert r.phase_time("other") > 0

    def test_phase_fractions_sum_to_one(self, wc_results):
        r = wc_results["atom"]
        total = sum(r.phase_fraction(p) for p in ("map", "reduce", "other"))
        assert total == pytest.approx(1.0, rel=1e-6)

    def test_map_task_count_law(self, characterizer):
        """num map tasks == ceil(input / block size) (§3.1.1)."""
        r = characterizer.run(RunKey("xeon", "wordcount",
                                     block_size_mb=128.0,
                                     data_per_node_gb=1.0))
        expected = math.ceil(3 * GB / (128 * MB))
        assert r.counters.map_tasks == expected

    def test_determinism(self):
        a = simulate_job("atom", "grep", data_per_node_gb=0.5)
        b = simulate_job("atom", "grep", data_per_node_gb=0.5)
        assert a.execution_time_s == b.execution_time_s
        assert a.dynamic_energy_j == b.dynamic_energy_j

    def test_invalid_workload(self):
        with pytest.raises(KeyError):
            simulate_job("atom", "matrix_multiply")

    def test_invalid_machine(self):
        with pytest.raises(KeyError):
            simulate_job("sparc", "wordcount")

    def test_invalid_data_size(self):
        with pytest.raises(ValueError):
            simulate_job("atom", "wordcount", data_per_node_gb=0.0)

    @pytest.mark.parametrize("nbytes", [math.nan, math.inf, -1.0])
    def test_non_finite_or_negative_data_size(self, nbytes):
        """A NaN data size used to run a whole job; an infinite one
        would split its input into blocks forever."""
        cluster = Cluster.homogeneous(Simulator(), machine("atom"), 3, 1.8)
        with pytest.raises(ValueError, match="positive and finite"):
            HadoopJobRunner(cluster, workload("wordcount"), DEFAULT_CONF,
                            nbytes)


class TestStructure:
    def test_sort_has_no_reduce_phase(self, sort_results):
        """The paper's Sort runs map-only (§3.1.1 note)."""
        for r in sort_results.values():
            assert r.phase_time("reduce") == 0.0
            assert r.counters.reduce_tasks == 0

    def test_grep_runs_two_stages(self, characterizer):
        r = characterizer.run(RunKey("xeon", "grep"))
        assert [s.stage for s in r.stages] == ["search", "sort"]
        assert r.stages[1].input_bytes < r.stages[0].input_bytes

    def test_terasort_sample_stage_is_cheap(self, characterizer):
        r = characterizer.run(RunKey("xeon", "terasort"))
        sample, sort = r.stages
        assert sample.stage == "sample"
        assert sample.total_s < sort.total_s

    def test_energy_phases_match_time_phases(self, wc_results):
        r = wc_results["xeon"]
        for phase in ("map", "reduce"):
            assert r.phase_energy(phase) > 0

    def test_counters_flow(self, wc_results):
        c = wc_results["xeon"].counters
        assert c.input_bytes == pytest.approx(3 * GB, rel=0.01)
        assert 0 < c.map_output_bytes < c.input_bytes  # combiner shrinks
        assert c.shuffle_bytes == pytest.approx(c.map_output_bytes, rel=0.01)
        assert c.spills >= c.map_tasks


class TestWorkStealing:
    def test_idle_slots_steal_from_skewed_placement(self, monkeypatch):
        """All primaries on one node must not serialize the map phase."""
        from repro.hdfs.namenode import NameNode
        balanced = simulate_job("xeon", "wordcount", data_per_node_gb=0.5)

        original = NameNode.place_block

        def skewed(self, block, writer=None):
            return original(self, block, writer=self.node_names[0])

        monkeypatch.setattr(NameNode, "place_block", skewed)
        skew = simulate_job("xeon", "wordcount", data_per_node_gb=0.5)
        # Stealing spreads node 0's queue across all three nodes'
        # slots, so the makespan stays near the balanced one instead of
        # the ~3x a single node working alone would take.
        assert skew.execution_time_s < 1.5 * balanced.execution_time_s

    def test_balanced_quiet_run_matches_itself(self):
        """Backlog-aware stealing must not fire on balanced queues: two
        identical runs stay bit-identical (no spurious remote reads)."""
        a = simulate_job("atom", "terasort", data_per_node_gb=0.5)
        b = simulate_job("atom", "terasort", data_per_node_gb=0.5)
        assert a.execution_time_s == b.execution_time_s
        assert a.dynamic_energy_j == b.dynamic_energy_j


class TestUncoreAccounting:
    def _uncore_windows(self, workload="grep"):
        from repro.arch.presets import machine
        from repro.cluster.server import Cluster
        from repro.mapreduce.driver import HadoopJobRunner
        from repro.sim.engine import Simulator
        from repro.sim.trace import TraceRecorder
        from repro.workloads.base import workload as get_workload

        sim = Simulator()
        cluster = Cluster.homogeneous(sim, machine("xeon"), 3, 1.8)
        cluster.trace = TraceRecorder()   # the tests read its rows
        runner = HadoopJobRunner(cluster, get_workload(workload),
                                 DEFAULT_CONF, 0.5 * GB)
        result = runner.run()
        spans = [(iv.start, iv.end, iv.phase)
                 for iv in cluster.trace.filter(node="xeon0",
                                                device="uncore")]
        return result, spans

    def test_windows_partition_the_makespan(self):
        result, spans = self._uncore_windows()
        total = sum(e - s for s, e, _ in spans)
        assert total == pytest.approx(result.execution_time_s, rel=1e-9)

    def test_windows_never_overlap(self):
        _, spans = self._uncore_windows()
        ordered = sorted((s, e) for s, e, _ in spans)
        for (_, prev_end), (start, _) in zip(ordered, ordered[1:]):
            assert start >= prev_end - 1e-12

    def test_other_windows_are_complement_of_map_reduce(self):
        """Regression: 'other' used to be charged as (0, other_seconds),
        overlapping the map window instead of complementing it."""
        result, spans = self._uncore_windows()
        other = sorted((s, e) for s, e, p in spans if p == "other")
        busy = sorted((s, e) for s, e, p in spans if p != "other")
        assert other, "multi-stage job must have inter-stage gaps"
        assert busy
        first_busy_start = busy[0][0]
        # The leading setup gap ends exactly where the first map begins.
        assert other[0][0] == 0.0
        assert any(abs(e - first_busy_start) < 1e-9 for _, e in other)
        for o_start, o_end in other:
            for b_start, b_end in busy:
                assert o_end <= b_start + 1e-9 or o_start >= b_end - 1e-9


class TestTraceRows:
    """A cluster keeps trace rows only under a tracer, or when its trace
    is replaced by a plain recorder before the run."""

    def _clusters(self, monkeypatch):
        from repro.cluster.server import Cluster
        clusters = []
        init = Cluster.__init__

        def spy(self, *args, **kwargs):
            init(self, *args, **kwargs)
            clusters.append(self)

        monkeypatch.setattr(Cluster, "__init__", spy)
        return clusters

    def test_untraced_simulate_job_keeps_no_rows(self, monkeypatch):
        clusters = self._clusters(monkeypatch)
        result = simulate_job("atom", "grep", data_per_node_gb=0.25)
        (cluster,) = clusters
        assert cluster.trace.folds and len(cluster.trace) == 0
        assert result.energy.dynamic_joules > 0

    def test_traced_simulate_job_keeps_rows(self, monkeypatch):
        from repro.obs import Tracer
        clusters = self._clusters(monkeypatch)
        tracer = Tracer()
        simulate_job("atom", "grep", data_per_node_gb=0.25, obs=tracer)
        (cluster,) = clusters
        assert not cluster.trace.folds
        assert len(tracer.job.intervals) == len(cluster.trace) > 0

    def test_replaced_trace_keeps_rows(self):
        from repro.arch.power import integrate_energy
        from repro.arch.presets import machine
        from repro.cluster.server import Cluster
        from repro.mapreduce.driver import HadoopJobRunner
        from repro.sim.engine import Simulator
        from repro.sim.trace import TraceRecorder
        from repro.workloads.base import workload as get_workload

        def run(keep_rows):
            cluster = Cluster.homogeneous(Simulator(), machine("atom"), 3,
                                          1.8)
            if keep_rows:
                cluster.trace = TraceRecorder()
            result = HadoopJobRunner(cluster, get_workload("grep"),
                                     DEFAULT_CONF, 0.25 * GB).run()
            return cluster, result

        folded, folded_result = run(keep_rows=False)
        kept, kept_result = run(keep_rows=True)
        assert folded.trace.folds and len(folded.trace) == 0
        assert not kept.trace.folds and len(kept.trace) > 0
        assert repr(integrate_energy(
            kept.trace, kept.node_power(),
            kept_result.execution_time_s)) == repr(kept_result.energy)
        assert repr(kept_result) == repr(folded_result) == repr(
            simulate_job("atom", "grep", data_per_node_gb=0.25))


class TestConfiguration:
    def test_more_data_takes_longer(self, characterizer):
        small = characterizer.run(RunKey("xeon", "wordcount",
                                         data_per_node_gb=1.0))
        big = characterizer.run(RunKey("xeon", "wordcount",
                                       data_per_node_gb=10.0))
        assert big.execution_time_s > 2 * small.execution_time_s

    def test_fewer_cores_slower(self, characterizer):
        full = characterizer.run(RunKey("atom", "wordcount",
                                        cores_per_node=8,
                                        map_slots_per_node=8,
                                        data_per_node_gb=4.0,
                                        block_size_mb=512.0))
        two = characterizer.run(RunKey("atom", "wordcount",
                                       cores_per_node=2,
                                       map_slots_per_node=2,
                                       data_per_node_gb=4.0,
                                       block_size_mb=512.0))
        assert two.execution_time_s > full.execution_time_s

    def test_higher_frequency_faster(self, characterizer):
        slow = characterizer.run(RunKey("atom", "terasort", freq_ghz=1.2))
        fast = characterizer.run(RunKey("atom", "terasort", freq_ghz=1.8))
        assert fast.execution_time_s < slow.execution_time_s

    def test_single_node_cluster_works(self):
        r = simulate_job("xeon", "wordcount", n_nodes=1,
                         data_per_node_gb=0.5)
        assert r.n_nodes == 1
        assert r.execution_time_s > 0

    def test_custom_conf_threads_through(self):
        conf = DEFAULT_CONF.override(replication=1, heartbeat_s=0.0)
        r = simulate_job("xeon", "sort", conf=conf, data_per_node_gb=0.5)
        base = simulate_job("xeon", "sort", data_per_node_gb=0.5)
        assert r.execution_time_s < base.execution_time_s  # less replication


class TestSlotPlan:
    """Per-node slot leases from the datacenter scheduling layer."""

    def test_full_core_plan_is_identical_to_no_plan(self):
        base = simulate_job("atom", "wordcount", n_nodes=2,
                            data_per_node_gb=0.25)
        plan = {f"atom{i}": 8 for i in range(2)}
        leased = simulate_job("atom", "wordcount", n_nodes=2,
                              data_per_node_gb=0.25, slot_plan=plan)
        assert leased.execution_time_s == base.execution_time_s
        assert leased.dynamic_energy_j == base.dynamic_energy_j

    def test_partial_plan_slows_the_job(self):
        base = simulate_job("atom", "wordcount", n_nodes=2,
                            data_per_node_gb=0.5)
        plan = {f"atom{i}": 2 for i in range(2)}
        leased = simulate_job("atom", "wordcount", n_nodes=2,
                              data_per_node_gb=0.5, slot_plan=plan)
        assert leased.execution_time_s > base.execution_time_s

    def test_plan_never_raises_the_slot_cap(self):
        narrow = simulate_job("atom", "wordcount", n_nodes=2,
                              data_per_node_gb=0.5, map_slots_per_node=2)
        plan = {f"atom{i}": 8 for i in range(2)}
        widened = simulate_job("atom", "wordcount", n_nodes=2,
                               data_per_node_gb=0.5, map_slots_per_node=2,
                               slot_plan=plan)
        assert widened.execution_time_s == narrow.execution_time_s

    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError, match="unknown node"):
            simulate_job("atom", "wordcount", n_nodes=2,
                         data_per_node_gb=0.25,
                         slot_plan={"nosuch": 4})

    def test_non_positive_slots_rejected(self):
        with pytest.raises(ValueError):
            simulate_job("atom", "wordcount", n_nodes=2,
                         data_per_node_gb=0.25,
                         slot_plan={"atom0": 0})
