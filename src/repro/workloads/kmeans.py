"""K-Means clustering (KM): an extension workload.

Not part of the paper's Table 2, but the paper's acceleration discussion
cites MapReduce k-means as the canonical FPGA-offload candidate (its
ref. [9]), and heterogeneity-aware schedulers are routinely evaluated on
it — so the reproduction ships it as a seventh, clearly-marked extension
application.

Lloyd's algorithm as iterated MapReduce: map assigns each point to its
nearest centroid (the compute hotspot), a combiner pre-aggregates
partial sums, and the reduce recomputes centroids.  Each iteration
re-scans the full input (``input_source="original"``) with a highly
compute-dense, cache-friendly map (distance kernels) and a tiny shuffle,
making KM the most little-core-friendly workload in the registry.
"""

from __future__ import annotations

from ..arch.cores import CpuProfile
from .base import Category, JobStage, WorkloadSpec, register_workload

__all__ = ["KMEANS", "KMEANS_ITERATIONS"]

#: Iterations encoded in the performance spec (typical k-means runs
#: converge within a handful of scans at Hadoop granularity).
KMEANS_ITERATIONS = 4

#: Distance kernels: dense floating-point loops with high ILP and a
#: centroid table that lives comfortably in L1 — the narrow core's
#: issue width is the only thing holding it back.
MAP_PROFILE = CpuProfile.characterized(
    "km-map",
    ilp=2.6,
    apki=380.0,
    l1_miss_ratio=0.04,
    locality_alpha=0.70,
    branch_mpki=2.0,
    frontend_mpki=3.0,
)

REDUCE_PROFILE = CpuProfile.characterized(
    "km-reduce",
    ilp=2.0,
    apki=400.0,
    l1_miss_ratio=0.06,
    locality_alpha=0.65,
    branch_mpki=2.5,
    frontend_mpki=4.0,
)


def _iteration_stage(index: int) -> JobStage:
    return JobStage(
        name=f"iter{index}",
        map_ipb=180.0,
        map_profile=MAP_PROFILE,
        map_output_ratio=0.02,        # combiner: k partial sums per task
        reduce_ipb=40.0,
        reduce_profile=REDUCE_PROFILE,
        reduce_output_ratio=0.5,
        reduces_per_node=1.0,
        io_ipb=1.0,
        input_source="original",       # every iteration re-scans the data
        sort_ipb=5.0,
        io_path_factor=0.35,
    )


KMEANS = register_workload(WorkloadSpec(
    name="kmeans",
    full_name="K-Means (KM) [extension]",
    domain="Clustering",
    data_source="table",
    category=Category.COMPUTE,
    stages=tuple(_iteration_stage(i) for i in range(KMEANS_ITERATIONS)),
))
