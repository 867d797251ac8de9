"""FP-Growth (FP): the paper's real-world association-rule-mining app.

The paper runs Mahout's Parallel FP-Growth (PFP), two jobs: a counting
pass, then a group-dependent-transaction pass whose reducers each mine
the FP-tree of their item group.  FP-Growth is the paper's
longest-running, most compute-intensive application (its Table 3 EDP
values dwarf everything else); the map profile is pointer-chasing tree
construction with poor ILP, so it leans hardest toward the little core
for energy efficiency.
"""

from __future__ import annotations

from ..arch.cores import CpuProfile
from .base import Category, JobStage, WorkloadSpec, register_workload

__all__ = ["FP_GROWTH"]

MAP_PROFILE = CpuProfile.characterized(
    "fp-map",
    ilp=1.25,
    apki=540.0,
    l1_miss_ratio=0.16,
    locality_alpha=0.47,
    branch_mpki=8.0,
    frontend_mpki=11.0,
)

REDUCE_PROFILE = CpuProfile.characterized(
    "fp-reduce",
    ilp=1.2,
    apki=580.0,
    l1_miss_ratio=0.12,
    locality_alpha=0.52,
    branch_mpki=7.0,
    frontend_mpki=9.0,
)

FP_GROWTH = register_workload(WorkloadSpec(
    name="fp_growth",
    full_name="FP-Growth (FP)",
    domain="Association Rule Mining",
    data_source="text",
    category=Category.COMPUTE,
    stages=(
        JobStage(
            name="count",
            map_ipb=160.0,
            map_profile=MAP_PROFILE,
            map_output_ratio=0.05,
            reduce_ipb=60.0,
            reduce_profile=REDUCE_PROFILE,
            reduce_output_ratio=0.5,
            reduces_per_node=1.0,
            io_ipb=1.2,
            sort_ipb=6.0,
            io_path_factor=0.35,
        ),
        JobStage(
            name="mine",
            map_ipb=900.0,
            map_profile=MAP_PROFILE,
            map_output_ratio=0.30,
            reduce_ipb=280.0,
            reduce_profile=REDUCE_PROFILE,
            reduce_output_ratio=0.15,
            reduces_per_node=2.0,
            io_ipb=1.4,
            input_source="original",
            sort_ipb=8.0,
            io_path_factor=0.35,
        ),
    ),
))
