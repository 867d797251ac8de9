"""Naive Bayes (NB): the paper's real-world classification application.

The paper trains Mahout's Naive Bayes over 10 GB/node of text: map emits
per-class token counts, reduce aggregates them into the model.  Training
maps are compute-heavy tokenization/counting (Atom-friendly), while the
reduce aggregates large count tables — DRAM-bound work whose EDP *rises*
with frequency and prefers the big core, the paper's headline
reduce-phase observation for NB (Fig. 8a).
"""

from __future__ import annotations

from ..arch.cores import CpuProfile
from .base import Category, JobStage, WorkloadSpec, register_workload

__all__ = ["NAIVE_BAYES"]

MAP_PROFILE = CpuProfile.characterized(
    "nb-map",
    ilp=1.55,
    apki=460.0,
    l1_miss_ratio=0.14,
    locality_alpha=0.54,
    branch_mpki=7.5,
    frontend_mpki=14.0,
)

#: Aggregating sparse count tables the size of the vocabulary × classes:
#: pointer-dense, DRAM-bound — the reason NB's reduce prefers Xeon.
REDUCE_PROFILE = CpuProfile.characterized(
    "nb-reduce",
    ilp=1.6,
    apki=720.0,
    l1_miss_ratio=0.22,
    locality_alpha=0.40,
    branch_mpki=6.0,
    frontend_mpki=9.0,
)

NAIVE_BAYES = register_workload(WorkloadSpec(
    name="naive_bayes",
    full_name="Naive Bayes (NB)",
    domain="Classification",
    data_source="text",
    category=Category.COMPUTE,
    stages=(
        JobStage(
            name="train",
            map_ipb=340.0,
            map_profile=MAP_PROFILE,
            map_output_ratio=0.06,
            reduce_ipb=26.0,
            reduce_profile=REDUCE_PROFILE,
            reduce_output_ratio=0.5,
            reduces_per_node=2.0,
            io_ipb=1.2,
            sort_ipb=7.0,
            io_path_factor=0.40,
        ),
    ),
))
