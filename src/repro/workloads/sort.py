"""Sort (ST): the paper's I/O-intensive micro-benchmark.

The map function is the identity; all the work is byte movement — read,
map-side sort/spill, and a fully-replicated HDFS write of the entire
dataset (the paper runs Sort with no reduce phase, §3.1.1).  The
performance profile therefore has a tiny user-code density but a heavy,
DRAM-sized I/O path: the big core's L3 + out-of-order window keep the
copy/checksum code stream-fed and effectively disk-bound, while the
little core is compute-bound on the same path — the mechanism behind the
paper's 15.4× execution-time gap, the one workload where Xeon also wins
on EDP.
"""

from __future__ import annotations

from ..arch.cores import CpuProfile
from .base import Category, JobStage, WorkloadSpec, register_workload

__all__ = ["SORT"]

#: Identity map over serialized records: pure streaming, negligible reuse.
MAP_PROFILE = CpuProfile.characterized(
    "sort-map",
    ilp=2.1,
    apki=560.0,
    l1_miss_ratio=0.28,
    locality_alpha=0.45,
    branch_mpki=2.0,
    frontend_mpki=4.0,
)

SORT = register_workload(WorkloadSpec(
    name="sort",
    full_name="Sort (ST)",
    domain="I/O-CPU testing micro program",
    data_source="table",
    category=Category.IO,
    stages=(
        JobStage(
            name="sort",
            map_ipb=6.0,
            map_profile=MAP_PROFILE,
            map_output_ratio=1.0,
            reduce_output_ratio=1.0,
            reduces_per_node=0.0,      # the paper's Sort has no reduce phase
            io_ipb=2.0,
            sort_ipb=11.0,
            io_path_factor=2.2,
        ),
    ),
))
