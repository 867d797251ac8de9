"""Grep (GP): two chained MapReduce jobs — search, then sort by frequency.

The paper calls Grep CPU-intensive but observes hybrid behaviour
(§3.1.1): the search pass streams the whole input through a regex
matcher with a tiny output, and the sort pass (over the small match
table) is shuffle-dominated.  Because two jobs run in sequence, setup
and cleanup contribute a visibly larger share of the execution time than
for the single-job benchmarks — the paper points this out in §3.4.
"""

from __future__ import annotations

from ..arch.cores import CpuProfile
from .base import Category, JobStage, WorkloadSpec, register_workload

__all__ = ["GREP"]

#: Regex scanning: predictable streaming with high ILP in the DFA loop.
SEARCH_PROFILE = CpuProfile.characterized(
    "gp-search-map",
    ilp=1.8,
    apki=430.0,
    l1_miss_ratio=0.10,
    locality_alpha=0.60,
    branch_mpki=6.0,
    frontend_mpki=9.0,
)

#: Counting and frequency sorting: memory-heavy aggregation over the
#: match table — this is the phase that makes Grep's *reduce* prefer the
#: big core in the paper's Fig. 7c.
COUNT_PROFILE = CpuProfile.characterized(
    "gp-count-reduce",
    ilp=1.6,
    apki=700.0,
    l1_miss_ratio=0.32,
    locality_alpha=0.31,
    branch_mpki=6.0,
    frontend_mpki=10.0,
)

SORT_STAGE_PROFILE = CpuProfile.characterized(
    "gp-sort",
    ilp=1.6,
    apki=480.0,
    l1_miss_ratio=0.14,
    locality_alpha=0.5,
    branch_mpki=4.0,
    frontend_mpki=7.0,
)

GREP = register_workload(WorkloadSpec(
    name="grep",
    full_name="Grep (GP)",
    domain="I/O-CPU testing micro program",
    data_source="text",
    category=Category.HYBRID,
    stages=(
        JobStage(
            name="search",
            map_ipb=110.0,
            map_profile=SEARCH_PROFILE,
            map_output_ratio=0.02,
            reduce_ipb=95.0,
            reduce_profile=COUNT_PROFILE,
            reduce_output_ratio=1.0,
            reduces_per_node=1.0,
            io_ipb=1.4,
            sort_ipb=6.0,
            io_path_factor=0.35,
        ),
        JobStage(
            name="sort",
            map_ipb=18.0,
            map_profile=SORT_STAGE_PROFILE,
            map_output_ratio=1.0,
            reduce_ipb=60.0,
            reduce_profile=COUNT_PROFILE,
            reduce_output_ratio=1.0,
            reduces_per_node=1.0,
            io_ipb=2.0,
            input_source="previous",
            sort_ipb=9.0,
            io_path_factor=0.5,
        ),
    ),
))
