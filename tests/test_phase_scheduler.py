"""Tests for phase-aware heterogeneous scheduling (extension)."""

from __future__ import annotations

import pytest

from repro.arch.presets import ATOM_C2758, XEON_E5_2420
from repro.cluster.server import Cluster
from repro.core.phase_scheduler import (PHASE_PLACEMENTS,
                                        best_phase_placement,
                                        compare_phase_placements,
                                        simulate_phase_scheduled_job)
from repro.mapreduce.config import DEFAULT_CONF
from repro.mapreduce.driver import HadoopJobRunner
from repro.sim.engine import Simulator
from repro.sim.trace import TraceRecorder
from repro.workloads.base import workload


@pytest.fixture(scope="module")
def nb_results():
    return compare_phase_placements("naive_bayes", data_per_node_gb=2.0,
                                    block_size_mb=128.0)


class TestDriverFilters:
    def _cluster(self):
        sim = Simulator()
        cluster = Cluster.heterogeneous(sim, [
            {"spec": XEON_E5_2420, "n_nodes": 1, "freq_ghz": 1.8},
            {"spec": ATOM_C2758, "n_nodes": 2, "freq_ghz": 1.8},
        ])
        cluster.trace = TraceRecorder()   # the tests read its rows
        return cluster

    def test_map_machines_respected(self):
        cluster = self._cluster()
        runner = HadoopJobRunner(cluster, workload("wordcount"),
                                 DEFAULT_CONF, 2 ** 30,
                                 map_machines={"atom"})
        runner.run()
        map_nodes = {iv.node for iv in cluster.trace.filter(
            device="core", phase="map")}
        assert all(n.startswith("atom") for n in map_nodes)

    def test_reduce_machines_respected(self):
        cluster = self._cluster()
        runner = HadoopJobRunner(cluster, workload("wordcount"),
                                 DEFAULT_CONF, 2 ** 30,
                                 reduce_machines={"xeon"})
        runner.run()
        reduce_cores = {iv.node for iv in cluster.trace.filter(
            device="core", phase="reduce")}
        assert all(n.startswith("xeon") for n in reduce_cores)

    def test_unknown_machine_type_rejected(self):
        cluster = self._cluster()
        with pytest.raises(ValueError):
            HadoopJobRunner(cluster, workload("wordcount"), DEFAULT_CONF,
                            2 ** 30, map_machines={"sparc"})

    def test_no_filter_uses_all_nodes(self):
        cluster = self._cluster()
        runner = HadoopJobRunner(cluster, workload("wordcount"),
                                 DEFAULT_CONF, 2 ** 30)
        runner.run()
        map_nodes = {iv.node for iv in cluster.trace.filter(
            device="core", phase="map")}
        assert any(n.startswith("atom") for n in map_nodes)
        assert any(n.startswith("xeon") for n in map_nodes)


class TestPlacements:
    def test_all_placements_complete(self, nb_results):
        assert set(nb_results) == set(PHASE_PLACEMENTS)
        for result in nb_results.values():
            assert result.execution_time_s > 0
            assert result.dynamic_energy_j > 0

    def test_xeon_maps_faster_than_atom_maps(self, nb_results):
        assert (nb_results["xeon/xeon"].execution_time_s
                < nb_results["atom/atom"].execution_time_s)

    def test_reduce_on_xeon_beats_reduce_on_atom(self, nb_results):
        """NB's memory-bound reduce prefers the big core, so for either
        map pool, pinning the reduce to Xeon lowers EDP."""
        assert (nb_results["atom/xeon"].edp
                < nb_results["atom/atom"].edp)
        assert (nb_results["xeon/xeon"].edp
                < nb_results["xeon/atom"].edp)

    def test_atom_maps_cut_energy(self, nb_results):
        assert (nb_results["atom/xeon"].dynamic_energy_j
                < nb_results["xeon/xeon"].dynamic_energy_j)

    def test_invalid_placement_string(self):
        with pytest.raises(ValueError):
            simulate_phase_scheduled_job("wordcount", "atom-xeon")
        with pytest.raises(ValueError):
            simulate_phase_scheduled_job("wordcount", "atom/epyc")

    def test_best_placement_metrics(self):
        results = compare_phase_placements("wordcount",
                                           data_per_node_gb=1.0,
                                           block_size_mb=128.0)
        best_edp = best_phase_placement("wordcount", metric="edp",
                                        data_per_node_gb=1.0,
                                        block_size_mb=128.0)
        assert best_edp.edp == min(r.edp for r in results.values())
        best_time = best_phase_placement("wordcount", metric="time",
                                         data_per_node_gb=1.0,
                                         block_size_mb=128.0)
        assert best_time.execution_time_s == min(
            r.execution_time_s for r in results.values())
        with pytest.raises(ValueError):
            best_phase_placement("wordcount", metric="carbon")

    def test_wordcount_mixed_beats_homogeneous_atom(self):
        """The characterization-implied split (little maps, big reduces)
        improves on the all-little cluster for WordCount."""
        results = compare_phase_placements("wordcount",
                                           data_per_node_gb=1.0,
                                           block_size_mb=128.0)
        assert results["atom/xeon"].edp < results["atom/atom"].edp
