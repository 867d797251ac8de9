"""WordCount (WC): the paper's canonical CPU-intensive micro-benchmark.

A tokenize/emit/sum job with a combiner, modelled as a compute-heavy map
profile (hashing and string handling, decent locality), a tiny
map-output ratio thanks to the combiner, and a light reduce — so on both
servers the map phase dominates and the Xeon/Atom gap stays small (the
paper's ~1.74×).
"""

from __future__ import annotations

from ..arch.cores import CpuProfile
from .base import Category, JobStage, WorkloadSpec, register_workload

__all__ = ["WORDCOUNT"]

#: Tokenization + hash aggregation: branchy integer/string code with a
#: modest working set (the in-map combiner's hash table).
MAP_PROFILE = CpuProfile.characterized(
    "wc-map",
    ilp=1.5,
    apki=420.0,
    l1_miss_ratio=0.13,
    locality_alpha=0.60,
    branch_mpki=7.0,
    frontend_mpki=13.0,
)

#: Summing counts: short loops over small groups.
REDUCE_PROFILE = CpuProfile.characterized(
    "wc-reduce",
    ilp=1.7,
    apki=380.0,
    l1_miss_ratio=0.10,
    locality_alpha=0.58,
    branch_mpki=5.0,
    frontend_mpki=10.0,
)

WORDCOUNT = register_workload(WorkloadSpec(
    name="wordcount",
    full_name="WordCount (WC)",
    domain="I/O-CPU testing micro program",
    data_source="text",
    category=Category.COMPUTE,
    stages=(
        JobStage(
            name="count",
            map_ipb=260.0,
            map_profile=MAP_PROFILE,
            map_output_ratio=0.12,
            reduce_ipb=60.0,
            reduce_profile=REDUCE_PROFILE,
            reduce_output_ratio=0.30,
            reduces_per_node=1.0,
            io_ipb=1.2,
            sort_ipb=7.0,
            io_path_factor=0.40,
        ),
    ),
))
