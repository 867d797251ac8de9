"""Unit tests for server nodes and cluster composition."""

from __future__ import annotations

import dataclasses

import pytest

from repro.arch.cores import CoreSpec
from repro.arch.presets import ATOM_C2758, XEON_E5_2420
from repro.cluster.server import Cluster, ServerNode
from repro.sim.engine import SimulationError, Simulator
from repro.workloads.base import IO_PATH_PROFILE


class TestServerNode:
    def test_basic_construction(self):
        sim = Simulator()
        node = ServerNode(sim, XEON_E5_2420, "x0", 1.8)
        assert node.n_cores == 12
        assert node.freq_ghz == pytest.approx(1.8)

    def test_unsupported_frequency_rejected(self):
        with pytest.raises(SimulationError):
            ServerNode(Simulator(), ATOM_C2758, "a0", 2.4)

    def test_core_count_clamped(self):
        with pytest.raises(SimulationError):
            ServerNode(Simulator(), ATOM_C2758, "a0", 1.8, cores=9)
        with pytest.raises(SimulationError):
            ServerNode(Simulator(), ATOM_C2758, "a0", 1.8, cores=0)

    def test_iopath_scales_with_frequency(self):
        slow = ServerNode(Simulator(), ATOM_C2758, "a", 1.2)
        fast = ServerNode(Simulator(), ATOM_C2758, "a", 1.8)
        assert fast.iopath.bandwidth == pytest.approx(
            slow.iopath.bandwidth * 1.5)

    def test_iopath_scales_sublinearly_with_cores(self):
        full = ServerNode(Simulator(), ATOM_C2758, "a", 1.8)
        half = ServerNode(Simulator(), ATOM_C2758, "a", 1.8, cores=4)
        ratio = half.iopath.bandwidth / full.iopath.bandwidth
        assert 0.5 < ratio < 1.0  # (4/8)^0.8

    def test_core_perf_uses_node_frequency(self):
        node = ServerNode(Simulator(), XEON_E5_2420, "x0", 1.2)
        perf = node.core_perf(IO_PATH_PROFILE)
        assert perf.freq_hz == pytest.approx(1.2e9)

    def test_operating_point_is_read_only(self):
        node = ServerNode(Simulator(), ATOM_C2758, "a0", 1.8)
        with pytest.raises(AttributeError):
            node.op = ATOM_C2758.dvfs.operating_point(1.2e9)


class TestCorePerfMemo:
    def test_matches_core_model(self):
        node = ServerNode(Simulator(), XEON_E5_2420, "x0", 1.8)
        assert node.core_perf(IO_PATH_PROFILE) == node.spec.core.evaluate(
            IO_PATH_PROFILE, node.freq_hz)

    def test_repeated_call_does_not_reevaluate(self, monkeypatch):
        calls = []
        evaluate = CoreSpec.evaluate

        def counting(core, profile, freq_hz):
            calls.append(profile)
            return evaluate(core, profile, freq_hz)

        monkeypatch.setattr(CoreSpec, "evaluate", counting)
        node = ServerNode(Simulator(), ATOM_C2758, "a0", 1.8)
        first = node.core_perf(IO_PATH_PROFILE)
        assert node.core_perf(IO_PATH_PROFILE) is first
        assert calls == [IO_PATH_PROFILE]

    def test_memo_is_per_node_frequency(self):
        sim = Simulator()
        slow = ServerNode(sim, ATOM_C2758, "a0", 1.2)
        fast = ServerNode(sim, ATOM_C2758, "a1", 1.8)
        assert slow.core_perf(IO_PATH_PROFILE) != fast.core_perf(
            IO_PATH_PROFILE)
        assert fast.core_perf(IO_PATH_PROFILE).freq_hz == pytest.approx(
            1.8e9)

    def test_equal_valued_profile_hits_stored_entry(self):
        node = ServerNode(Simulator(), XEON_E5_2420, "x0", 1.8)
        first = node.core_perf(IO_PATH_PROFILE)
        copy = dataclasses.replace(IO_PATH_PROFILE)
        assert copy is not IO_PATH_PROFILE
        assert node.core_perf(copy) is first


class TestCluster:
    def test_homogeneous_naming(self):
        sim = Simulator()
        cluster = Cluster.homogeneous(sim, ATOM_C2758, 3, 1.8)
        assert [n.name for n in cluster.nodes] == ["atom0", "atom1", "atom2"]

    def test_node_lookup(self):
        sim = Simulator()
        cluster = Cluster.homogeneous(sim, XEON_E5_2420, 2, 1.8)
        assert cluster.node("xeon1").name == "xeon1"
        with pytest.raises(KeyError):
            cluster.node("xeon9")

    def test_heterogeneous_mix(self):
        sim = Simulator()
        cluster = Cluster.heterogeneous(sim, [
            {"spec": XEON_E5_2420, "n_nodes": 1, "freq_ghz": 1.8},
            {"spec": ATOM_C2758, "n_nodes": 2, "freq_ghz": 1.6,
             "cores_per_node": 4},
        ])
        assert len(cluster.nodes) == 3
        assert len(cluster.nodes_of("atom")) == 2
        assert cluster.nodes_of("atom")[0].n_cores == 4
        assert cluster.nodes_of("atom")[0].freq_ghz == pytest.approx(1.6)

    def test_heterogeneous_rejects_unknown_keyword(self):
        with pytest.raises(TypeError):
            Cluster.heterogeneous(Simulator(), [
                {"spec": ATOM_C2758, "n_nodes": 1, "freq_ghz": 1.8},
            ], freq_ghz=1.2)

    def test_node_power_mapping(self):
        sim = Simulator()
        cluster = Cluster.homogeneous(sim, ATOM_C2758, 3, 1.8)
        mapping = cluster.node_power()
        assert set(mapping) == {"atom0", "atom1", "atom2"}

    def test_empty_cluster_rejected(self):
        with pytest.raises(SimulationError):
            Cluster(Simulator(), [])

    def test_duplicate_names_rejected(self):
        sim = Simulator()
        nodes = [ServerNode(sim, ATOM_C2758, "same", 1.8),
                 ServerNode(sim, ATOM_C2758, "same", 1.8)]
        with pytest.raises(SimulationError):
            Cluster(sim, nodes)

    def test_invalid_node_count(self):
        with pytest.raises(SimulationError):
            Cluster.homogeneous(Simulator(), ATOM_C2758, 0, 1.8)
