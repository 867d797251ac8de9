"""Workload descriptions: what the simulator needs to know about an app.

A Hadoop application is a :class:`WorkloadSpec`: per-stage instruction
densities, microarchitectural profiles (:class:`~repro.arch.cores.CpuProfile`)
and data-flow ratios that drive the cluster simulator at gigabyte scale.
The data-flow ratios (``map_output_ratio``, ``reduce_output_ratio``) are
calibration inputs, not measurements; docs/MODELING.md §6 says where
they come from.

The six applications of the paper's Table 2 (WordCount, Sort, Grep,
TeraSort, Naive Bayes, FP-Growth) each define their spec in their own
module; this module defines the shared vocabulary plus the CPU profile of
the Hadoop I/O path itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..arch.cores import CpuProfile

__all__ = [
    "IO_PATH_PROFILE", "Category", "JobStage", "WorkloadSpec",
    "register_workload", "workload", "all_workloads", "MICRO_BENCHMARKS",
    "REAL_WORLD", "EXTENSIONS",
]


class Category:
    """The paper's three-way application classification (§3.5)."""

    COMPUTE = "compute"
    IO = "io"
    HYBRID = "hybrid"

    ALL = (COMPUTE, IO, HYBRID)


#: CPU character of the Hadoop I/O path (checksumming, (de)serialization,
#: buffer copies): streaming code with a DRAM-sized footprint and little
#: ILP.  The big core's L3 and deep OoO window keep it fed; the little
#: core is exposed to DRAM on every miss — this is the single biggest
#: contributor to the paper's 15.4x Sort gap (§3.1.1).
IO_PATH_PROFILE = CpuProfile.characterized(
    "hadoop-io-path",
    ilp=1.9,
    apki=520.0,
    l1_miss_ratio=0.22,
    locality_alpha=0.52,
    branch_mpki=3.0,
    frontend_mpki=6.0,
)


@dataclass(frozen=True)
class JobStage:
    """One MapReduce job within an application.

    Micro-benchmarks are single-stage; Grep is two chained jobs (search
    then sort, §3.1.1) and TeraSort samples before sorting.

    Attributes:
        name: stage label (``"search"``, ``"sort"``).
        map_ipb: user map-function instructions per input byte.
        map_profile: microarch character of the map function.
        reduce_ipb: user reduce-function instructions per shuffled byte
            (ignored when the stage has no reduce).
        reduce_profile: microarch character of the reduce function.
        reduces_per_node: reduce tasks per cluster node; 0 disables the
            reduce phase (the paper's Sort runs map-only).
        io_ipb: I/O-path instructions per byte moved through disk/NIC.
        map_output_ratio: map output bytes per input byte.
        reduce_output_ratio: final output bytes per shuffled byte.
        input_source: where the stage's input comes from — ``"original"``
            (the application's dataset) or ``"previous"`` (the prior
            stage's output, for chained jobs like Grep's sort stage).
        input_fraction: multiplier on the source bytes (TeraSort's sampler
            reads only a slice of the input).
        sort_ipb: instructions per map-output byte spent in the map-side
            sort/spill/merge machinery.
        io_path_factor: how many times each moved byte crosses the node's
            CPU-coupled I/O path (serialize/copy/checksum round trips).
            Identity-map jobs over tiny records (Sort) recross it with no
            compute to amortize it (>1); jobs whose combiner collapses the
            stream cross it less (<1).  This is the per-workload half of
            the mechanism behind the paper's huge Sort gap.
        output_replication: HDFS replication of the job output; ``None``
            uses the cluster default.  TeraSort conventionally writes its
            output with replication 1.
    """

    name: str
    map_ipb: float
    map_profile: CpuProfile
    map_output_ratio: float
    reduce_output_ratio: float = 1.0
    reduce_ipb: float = 0.0
    reduce_profile: Optional[CpuProfile] = None
    reduces_per_node: float = 1.0
    io_ipb: float = 3.0
    input_source: str = "original"
    input_fraction: float = 1.0
    sort_ipb: float = 8.0
    io_path_factor: float = 1.0
    output_replication: Optional[int] = None

    def __post_init__(self):
        if self.map_ipb < 0 or self.reduce_ipb < 0 or self.io_ipb < 0:
            raise ValueError(f"{self.name}: instruction densities must be >= 0")
        if self.map_output_ratio < 0 or self.reduce_output_ratio < 0:
            raise ValueError(f"{self.name}: data ratios must be >= 0")
        if not 0 < self.input_fraction <= 1.0:
            raise ValueError(f"{self.name}: input_fraction must be in (0, 1]")
        if self.input_source not in ("original", "previous"):
            raise ValueError(f"{self.name}: bad input_source "
                             f"{self.input_source!r}")
        if self.io_path_factor <= 0:
            raise ValueError(f"{self.name}: io_path_factor must be positive")
        if self.output_replication is not None and self.output_replication < 1:
            raise ValueError(f"{self.name}: output_replication must be >= 1")
        if self.reduces_per_node > 0 and self.reduce_profile is None:
            raise ValueError(f"{self.name}: reduce stage needs a profile")

    @property
    def has_reduce(self) -> bool:
        return self.reduces_per_node > 0


@dataclass(frozen=True)
class WorkloadSpec:
    """A complete application: identity, classification, stages."""

    name: str
    full_name: str
    domain: str
    data_source: str
    category: str
    stages: Tuple[JobStage, ...]

    def __post_init__(self):
        if self.category not in Category.ALL:
            raise ValueError(f"{self.name}: unknown category {self.category!r}")
        if not self.stages:
            raise ValueError(f"{self.name}: needs at least one stage")

    @property
    def has_reduce(self) -> bool:
        return any(s.has_reduce for s in self.stages)

    def stage(self, name: str) -> JobStage:
        for s in self.stages:
            if s.name == name:
                return s
        raise KeyError(f"{self.name}: no stage named {name!r}")


# -- registry ---------------------------------------------------------------

_REGISTRY: Dict[str, WorkloadSpec] = {}

#: Table 2 grouping.
MICRO_BENCHMARKS = ("wordcount", "sort", "grep", "terasort")
REAL_WORLD = ("naive_bayes", "fp_growth")

#: Applications beyond the paper's Table 2 (clearly-marked extensions;
#: the figure/table drivers never include them).
EXTENSIONS = ("kmeans",)


def register_workload(spec: WorkloadSpec) -> WorkloadSpec:
    """Add *spec* to the global registry (idempotent for equal specs)."""
    existing = _REGISTRY.get(spec.name)
    if existing is not None and existing != spec:
        raise ValueError(f"conflicting registration for {spec.name!r}")
    _REGISTRY[spec.name] = spec
    return spec


def workload(name: str) -> WorkloadSpec:
    """Look up a registered workload by name (lazily importing the six)."""
    _ensure_builtin()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown workload {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def all_workloads() -> Dict[str, WorkloadSpec]:
    """All registered workloads, name → spec."""
    _ensure_builtin()
    return dict(_REGISTRY)


def _ensure_builtin() -> None:
    """Import the built-in application modules exactly once."""
    names = MICRO_BENCHMARKS + REAL_WORLD + EXTENSIONS
    if all(name in _REGISTRY for name in names):
        return
    from . import (fp_growth, grep, kmeans, naive_bayes,  # noqa: F401
                   sort, terasort, wordcount)
