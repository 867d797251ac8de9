"""Cross-layer integration tests: whole-pipeline paths that no unit test
covers."""

from __future__ import annotations

import pytest

from repro.arch.meter import WattsUpMeter
from repro.arch.presets import ATOM_C2758, XEON_E5_2420
from repro.cluster.server import Cluster
from repro.core.characterization import RunKey
from repro.mapreduce.config import DEFAULT_CONF
from repro.mapreduce.driver import HadoopJobRunner
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder
from repro.workloads.base import workload


class TestMeterAgainstIntegrator:
    def test_sampled_power_matches_exact_energy(self):
        """The 1 Hz wall meter and the exact integrator must agree."""
        sim = Simulator()
        cluster = Cluster.homogeneous(sim, XEON_E5_2420, 3, 1.8)
        cluster.trace = TraceRecorder()   # the meter samples its rows
        runner = HadoopJobRunner(cluster, workload("wordcount"),
                                 DEFAULT_CONF, 2 ** 30)
        result = runner.run()
        meter = WattsUpMeter(cluster.node_power(), sample_interval=0.25)
        sampled = meter.dynamic_power(cluster.trace)
        assert sampled == pytest.approx(result.dynamic_power_w, rel=0.10)

    def test_meter_idle_floor_is_cluster_sum(self):
        sim = Simulator()
        cluster = Cluster.homogeneous(sim, ATOM_C2758, 3, 1.8)
        meter = WattsUpMeter(cluster.node_power())
        assert meter.idle_watts == pytest.approx(
            3 * ATOM_C2758.power.base_watts)


class TestHeterogeneousCluster:
    def test_mixed_cluster_runs_a_job(self):
        """A big+little cluster executes end to end (the §3.5 setting)."""
        sim = Simulator()
        cluster = Cluster.heterogeneous(sim, [
            {"spec": XEON_E5_2420, "n_nodes": 1, "freq_ghz": 1.8},
            {"spec": ATOM_C2758, "n_nodes": 2, "freq_ghz": 1.8},
        ])
        cluster.trace = TraceRecorder()   # the test reads its rows
        runner = HadoopJobRunner(cluster, workload("wordcount"),
                                 DEFAULT_CONF, 2 ** 30)
        result = runner.run()
        assert result.execution_time_s > 0
        # Both machine types did map work.
        nodes_used = {iv.node for iv in cluster.trace.filter(phase="map")}
        assert any(n.startswith("xeon") for n in nodes_used)
        assert any(n.startswith("atom") for n in nodes_used)

    def test_mixed_cluster_slower_than_all_big(self, characterizer):
        xeon = characterizer.run(RunKey("xeon", "wordcount"))
        sim = Simulator()
        cluster = Cluster.heterogeneous(sim, [
            {"spec": XEON_E5_2420, "n_nodes": 1, "freq_ghz": 1.8},
            {"spec": ATOM_C2758, "n_nodes": 2, "freq_ghz": 1.8},
        ])
        runner = HadoopJobRunner(cluster, workload("wordcount"),
                                 DEFAULT_CONF, 2 ** 30)
        mixed = runner.run()
        assert mixed.execution_time_s > xeon.execution_time_s


class TestEnergyConservation:
    def test_phase_energy_sums_to_total(self, characterizer):
        for wl in ("wordcount", "terasort"):
            r = characterizer.run(RunKey("xeon", wl))
            parts = sum(r.energy.by_phase.values())
            assert parts == pytest.approx(r.dynamic_energy_j, rel=1e-9)

    def test_device_energy_sums_to_total(self, characterizer):
        r = characterizer.run(RunKey("atom", "grep"))
        parts = sum(r.energy.by_device.values())
        assert parts == pytest.approx(r.dynamic_energy_j, rel=1e-9)

    def test_node_energy_roughly_balanced(self, characterizer):
        """With balanced placement no node should dominate energy."""
        r = characterizer.run(RunKey("xeon", "wordcount"))
        by_node = r.energy.by_node
        values = sorted(by_node.values())
        assert values[-1] < 2.0 * values[0]
