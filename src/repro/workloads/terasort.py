"""TeraSort (TS): sampled range-partitioned sort, the paper's hybrid case.

TeraSort first samples the input to compute reducer key ranges (TeraGen's
quantile step, Table 2), then sorts with a range partitioner so the
concatenated reducer outputs are globally ordered.  Unlike Sort it has a
real reduce phase and only *moderate* I/O per the paper, so the Xeon/Atom
gap is small (~1.57×) and the reduce phase carries a meaningful share of
the execution time — which is why acceleration barely changes its
Atom-vs-Xeon choice (Fig. 14).
"""

from __future__ import annotations

from ..arch.cores import CpuProfile
from .base import Category, JobStage, WorkloadSpec, register_workload

__all__ = ["TERASORT"]

SAMPLE_PROFILE = CpuProfile.characterized(
    "ts-sample",
    ilp=1.9,
    apki=450.0,
    l1_miss_ratio=0.10,
    locality_alpha=0.55,
    branch_mpki=3.0,
    frontend_mpki=5.0,
)

#: Key comparison and record movement: moderate reuse (run generation
#: fits in cache more often than Sort's raw streaming).
SORT_MAP_PROFILE = CpuProfile.characterized(
    "ts-map",
    ilp=1.3,
    apki=500.0,
    l1_miss_ratio=0.065,
    locality_alpha=0.62,
    branch_mpki=5.0,
    frontend_mpki=6.0,
)

#: Merge + write: memory-heavy multi-way merge.
SORT_REDUCE_PROFILE = CpuProfile.characterized(
    "ts-reduce",
    ilp=1.3,
    apki=560.0,
    l1_miss_ratio=0.09,
    locality_alpha=0.58,
    branch_mpki=3.5,
    frontend_mpki=6.0,
)

TERASORT = register_workload(WorkloadSpec(
    name="terasort",
    full_name="TeraSort (TS)",
    domain="I/O-CPU testing micro program",
    data_source="table",
    category=Category.HYBRID,
    stages=(
        JobStage(
            name="sample",
            map_ipb=30.0,
            map_profile=SAMPLE_PROFILE,
            map_output_ratio=0.002,
            reduces_per_node=0.0,
            io_ipb=1.5,
            input_source="original",
            input_fraction=0.05,
            sort_ipb=5.0,
            io_path_factor=0.4,
            output_replication=1,
        ),
        JobStage(
            name="sort",
            map_ipb=130.0,
            map_profile=SORT_MAP_PROFILE,
            map_output_ratio=1.0,
            reduce_ipb=35.0,
            reduce_profile=SORT_REDUCE_PROFILE,
            reduce_output_ratio=1.0,
            reduces_per_node=4.0,
            io_ipb=2.0,
            input_source="original",
            sort_ipb=7.0,
            io_path_factor=0.30,
            output_replication=1,
        ),
    ),
))
