"""Unit tests for NameNode placement and replica selection."""

from __future__ import annotations

import pytest

from repro.hdfs.blocks import Block, split_input
from repro.hdfs.namenode import NameNode

NODES = ["n0", "n1", "n2"]


class TestPlacement:
    def test_replication_count(self):
        nn = NameNode(NODES, replication=3)
        placed = nn.place_block(Block("f", 0, 100))
        assert len(placed.replicas) == 3
        assert len(set(placed.replicas)) == 3

    def test_replication_clamped_to_cluster(self):
        nn = NameNode(["only"], replication=3)
        placed = nn.place_block(Block("f", 0, 100))
        assert placed.replicas == ("only",)

    def test_writer_is_primary(self):
        nn = NameNode(NODES)
        placed = nn.place_block(Block("f", 0, 100), writer="n2")
        assert placed.replicas[0] == "n2"

    def test_unknown_writer_rejected(self):
        nn = NameNode(NODES)
        with pytest.raises(ValueError):
            nn.place_block(Block("f", 0, 100), writer="mars")

    def test_round_robin_primaries_balance(self):
        nn = NameNode(NODES)
        blocks = split_input("f", 600, 100)
        placed = nn.register_file("f", blocks)
        primaries = [b.replicas[0] for b in placed]
        assert primaries.count("n0") == 2
        assert primaries.count("n1") == 2
        assert primaries.count("n2") == 2

    def test_deterministic_under_seed(self):
        def place():
            nn = NameNode(NODES, seed=42)
            return [b.replicas for b in nn.register_file(
                "f", split_input("f", 1000, 100))]
        assert place() == place()

    def test_validation(self):
        with pytest.raises(ValueError):
            NameNode([], replication=3)
        with pytest.raises(ValueError):
            NameNode(NODES, replication=0)


class TestLookups:
    def test_file_registry(self):
        nn = NameNode(NODES)
        nn.register_file("f", split_input("f", 250, 100))
        assert nn.files() == ["f"]
        assert len(nn.blocks_of("f")) == 3

    def test_missing_file(self):
        nn = NameNode(NODES)
        with pytest.raises(KeyError):
            nn.blocks_of("ghost")

    def test_pick_replica_prefers_local(self):
        nn = NameNode(NODES)
        block = nn.place_block(Block("f", 0, 100), writer="n1")
        assert nn.pick_replica(block, "n1") == "n1"

    def test_pick_replica_remote_is_a_replica(self):
        nn = NameNode(NODES, replication=2)
        block = nn.place_block(Block("f", 0, 100), writer="n0")
        others = [n for n in NODES if n not in block.replicas]
        if others:
            chosen = nn.pick_replica(block, others[0])
            assert chosen in block.replicas

    def test_pick_replica_no_replicas_rejected(self):
        nn = NameNode(NODES)
        with pytest.raises(ValueError):
            nn.pick_replica(Block("f", 0, 100), "n0")
