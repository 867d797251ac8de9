"""NameNode: block placement and replica selection.

Implements the default HDFS placement policy at the fidelity the study
needs: replicas spread across nodes (first on the "writer", remaining on
distinct other nodes), deterministic under a seed so simulations are
reproducible.  On the paper's 3-node clusters with replication 3 every
block is everywhere, so map tasks read locally — which is also what real
Hadoop achieves there; the policy still matters for larger clusters and
for the heterogeneous scheduling study.
"""

from __future__ import annotations

import random
import zlib
from typing import Dict, List, Optional, Sequence

from ..obs import prof
from .blocks import Block

__all__ = ["NameNode"]


class NameNode:
    """Tracks files as block lists and assigns replica locations."""

    def __init__(self, node_names: Sequence[str], replication: int = 3,
                 seed: int = 7):
        if not node_names:
            raise ValueError("NameNode needs at least one datanode")
        if replication < 1:
            raise ValueError("replication factor must be >= 1")
        self.node_names: List[str] = list(node_names)
        self.replication = min(replication, len(self.node_names))
        self._rng = random.Random(seed)
        self._files: Dict[str, List[Block]] = {}
        self._next_writer = 0

    # -- placement ---------------------------------------------------------
    def place_block(self, block: Block, writer: Optional[str] = None) -> Block:
        """Choose replica nodes for *block*; returns the placed block."""
        profiler = prof.ACTIVE
        if profiler is not None:
            profiler.count("hdfs.place_block.calls")
        if writer is not None and writer not in self.node_names:
            raise ValueError(f"unknown writer node {writer!r}")
        if writer is None:
            # Balanced round-robin primary for pre-loaded input data.
            writer = self.node_names[self._next_writer % len(self.node_names)]
            self._next_writer += 1
        others = [n for n in self.node_names if n != writer]
        self._rng.shuffle(others)
        replicas = [writer] + others[: self.replication - 1]
        return block.with_replicas(replicas)

    def register_file(self, file: str, blocks: Sequence[Block],
                      writer: Optional[str] = None) -> List[Block]:
        """Place and record every block of *file*."""
        placed = [self.place_block(b, writer) for b in blocks]
        self._files[file] = placed
        return placed

    # -- lookups -------------------------------------------------------------
    def blocks_of(self, file: str) -> List[Block]:
        try:
            return list(self._files[file])
        except KeyError:
            raise KeyError(f"no such file: {file!r}") from None

    def file_size(self, file: str) -> float:
        return sum(b.size_bytes for b in self.blocks_of(file))

    def files(self) -> List[str]:
        return sorted(self._files)

    def pick_replica(self, block: Block, reader: str,
                     exclude: Sequence[str] = ()) -> str:
        """Closest replica: local if present, else deterministic remote.

        *exclude* names datanodes that must not serve the read (crashed
        nodes under a fault plan).  With an empty *exclude* the choice is
        identical to the pre-fault-model behaviour.
        """
        dead = set(exclude)
        if reader not in dead and block.is_local_to(reader):
            return reader
        if not block.replicas:
            raise ValueError(f"block {block.block_id} has no replicas")
        # Deterministic spread: hash on block id so hot files don't pile
        # onto one remote node.  crc32, not hash() — the builtin is
        # randomized per process (PYTHONHASHSEED), which would make the
        # same simulation differ between processes and break the
        # result cache's fresh-equals-cached guarantee.
        choices = sorted(r for r in block.replicas if r not in dead)
        if not choices:
            raise ValueError(
                f"block {block.block_id} has no live replica "
                f"(replicas {sorted(block.replicas)}, down {sorted(dead)})")
        spread = zlib.crc32(f"{block.block_id}:{reader}".encode())
        return choices[spread % len(choices)]

    def locality_fraction(self, file: str, node_names: Sequence[str]) -> float:
        """Fraction of blocks with at least one replica in *node_names*."""
        blocks = self.blocks_of(file)
        if not blocks:
            return 1.0
        names = set(node_names)
        local = sum(1 for b in blocks if names.intersection(b.replicas))
        return local / len(blocks)
