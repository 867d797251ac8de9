"""Hadoop job configuration.

Captures the tuning knobs the paper sweeps or holds fixed: the HDFS block
size (its headline *system-level* parameter), the map-side sort buffer
``io.sort.mb`` whose overflow causes spills (§3.1.1), slot counts (the
paper sets mappers = cores in the Table 3 study), and the framework
overheads (task startup, job setup/cleanup) that dominate at small block
sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional

from ..sim.faults import FaultPlan

__all__ = ["MB", "JobConf", "DEFAULT_CONF"]

MB = 1024 * 1024


@dataclass(frozen=True)
class JobConf:
    """Immutable job configuration; derive variants with :meth:`override`.

    Attributes:
        block_size_bytes: HDFS block size — determines map task count.
        io_sort_bytes: map-side sort buffer (``io.sort.mb``); map outputs
            larger than this spill to disk in multiple rounds.
        merge_memory_bytes: reduce-side merge buffer; shuffled partitions
            larger than this take an extra disk round trip.
        merge_factor: streams merged per merge round (``io.sort.factor``).
        replication: HDFS replication factor.
        map_slots_per_node: concurrent map tasks per node.  The default
            of 4 models YARN's memory-driven container count on the
            paper's 8 GB nodes (8 GB / ~2 GB map containers), not the
            core count; the Table 3 study overrides it with
            mappers = cores.
        reduce_slots_per_node: concurrent reduce tasks per node
            (None = cores).
        chunk_bytes: modelling granularity of the read/compute pipeline.
        task_startup_instructions: framework instructions to launch a task
            (JVM spawn, localization) — runs at little-core speed on Atom.
        job_setup_instructions: per-job setup on the master ("others").
        job_cleanup_instructions: per-job cleanup ("others").
        heartbeat_s: task-dispatch latency per assignment.
        max_attempts: attempts per task before the job fails
            (``mapreduce.map.maxattempts``; Hadoop's default is 4).
        retry_backoff_s: delay before re-enqueueing a failed attempt,
            scaled by the number of failures so far.
        speculative_execution: launch backup copies of straggling tasks
            on idle slots (``mapreduce.map/reduce.speculative``).  Off by
            default so fault-free runs match the pre-fault model exactly.
        speculation_slowdown: an attempt must be progressing this many
            times slower than the mean completed-attempt rate before a
            backup is launched (the LATE slow-task threshold).
        speculation_min_runtime_s: never speculate on attempts younger
            than this — their progress rate is still noise.
        fault_plan: optional :class:`~repro.sim.faults.FaultPlan` of
            injected failures; ``None`` (or a quiet plan) reproduces the
            fault-free behaviour bit-for-bit.
    """

    block_size_bytes: float = 128 * MB
    io_sort_bytes: float = 200 * MB
    merge_memory_bytes: float = 140 * MB
    merge_factor: int = 10
    replication: int = 3
    map_slots_per_node: Optional[int] = 4
    reduce_slots_per_node: Optional[int] = None
    chunk_bytes: float = 32 * MB
    task_startup_instructions: float = 5.5e9
    job_setup_instructions: float = 4.0e9
    job_cleanup_instructions: float = 3.0e9
    heartbeat_s: float = 0.25
    max_attempts: int = 4
    retry_backoff_s: float = 3.0
    speculative_execution: bool = False
    speculation_slowdown: float = 2.0
    speculation_min_runtime_s: float = 10.0
    fault_plan: Optional[FaultPlan] = None

    def __post_init__(self):
        # One chained comparison per float field rejects NaN and
        # infinities along with out-of-range values.
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not 0.0 <= self.retry_backoff_s < math.inf:
            raise ValueError("retry backoff must be non-negative and finite")
        if not 1.0 <= self.speculation_slowdown < math.inf:
            raise ValueError("speculation_slowdown must be >= 1 and finite")
        if not 0.0 <= self.speculation_min_runtime_s < math.inf:
            raise ValueError("speculation_min_runtime_s must be "
                             "non-negative and finite")
        if not 0.0 < self.block_size_bytes < math.inf:
            raise ValueError("block size must be positive and finite")
        if not (0.0 < self.io_sort_bytes < math.inf
                and 0.0 < self.merge_memory_bytes < math.inf):
            raise ValueError("buffer sizes must be positive and finite")
        if self.merge_factor < 2:
            raise ValueError("merge factor must be >= 2")
        if self.replication < 1:
            raise ValueError("replication must be >= 1")
        if not 0.0 < self.chunk_bytes < math.inf:
            raise ValueError("chunk size must be positive and finite")
        if not 0.0 <= self.heartbeat_s < math.inf:
            raise ValueError("heartbeat must be non-negative and finite")
        for name in ("task_startup_instructions", "job_setup_instructions",
                     "job_cleanup_instructions"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be non-negative and finite")
        for name in ("map_slots_per_node", "reduce_slots_per_node"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name} must be >= 1 when set")

    @property
    def block_size_mb(self) -> float:
        return self.block_size_bytes / MB

    def override(self, **changes) -> "JobConf":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)

    def with_block_size_mb(self, mb: float) -> "JobConf":
        return self.override(block_size_bytes=mb * MB)


#: Hadoop-like defaults used across the study unless a sweep overrides them.
DEFAULT_CONF = JobConf()
