"""HDFS blocks and input splitting.

The single most important system parameter the paper sweeps is the HDFS
block size (32–512 MB): it fixes the number of map tasks
(``num_maps = ceil(input_bytes / block_size)``, §3.1.1) and thereby the
parallelism, per-task overhead, and spill behaviour of a job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

__all__ = ["MB", "Block", "split_input", "PAPER_BLOCK_SIZES_MB"]

MB = 1024 * 1024

#: Block sizes the paper sweeps for micro-benchmarks (§3); real-world
#: applications start at 64 MB.
PAPER_BLOCK_SIZES_MB: Tuple[int, ...] = (32, 64, 128, 256, 512)


@dataclass(frozen=True)
class Block:
    """One HDFS block of a file.

    Attributes:
        file: logical file name the block belongs to.
        index: position of the block within the file.
        size_bytes: actual bytes in this block (the last block of a file
            is usually short).
        replicas: node names holding a replica, primary first.
    """

    file: str
    index: int
    size_bytes: float
    replicas: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.size_bytes < 0:
            raise ValueError("block size must be non-negative")
        if self.index < 0:
            raise ValueError("block index must be non-negative")

    @property
    def block_id(self) -> str:
        return f"{self.file}#{self.index}"

    def is_local_to(self, node_name: str) -> bool:
        return node_name in self.replicas

    def with_replicas(self, replicas: Sequence[str]) -> "Block":
        return Block(self.file, self.index, self.size_bytes, tuple(replicas))


def split_input(file: str, total_bytes: float, block_size_bytes: float
                ) -> List[Block]:
    """Split a file into HDFS blocks.

    Implements the law the paper leans on throughout §3.1.1:
    ``number of map tasks = input data size / HDFS block size`` (rounded
    up, with a short tail block).
    """
    if not 0.0 <= total_bytes < math.inf:
        raise ValueError("input size must be non-negative and finite")
    if not 0.0 < block_size_bytes < math.inf:
        raise ValueError("block size must be positive and finite")
    blocks: List[Block] = []
    remaining = total_bytes
    index = 0
    while remaining > 0:
        size = min(block_size_bytes, remaining)
        blocks.append(Block(file, index, size))
        remaining -= size
        index += 1
    return blocks
