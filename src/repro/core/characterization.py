"""Characterization database: the measurement grid behind every figure.

The paper's methodology is a full-factorial sweep over application ×
machine × frequency × HDFS block size × data size × core count, with
execution time, dynamic power and per-phase numbers recorded for each
cell.  This module runs those cells through the simulator and memoizes
them, so the seventeen figure/table drivers (and the scheduler) share one
consistent dataset instead of re-simulating.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple, Union

from ..mapreduce.config import DEFAULT_CONF, JobConf
from ..mapreduce.driver import JobResult, simulate_job
from .metrics import CostPoint

__all__ = ["RunKey", "Cell", "Characterizer", "Results", "simulate_cell",
           "cost_point", "default_data_gb", "PAPER_MICRO_GB",
           "PAPER_REAL_GB"]

#: Data sizes the paper uses by default: 1 GB/node for micro-benchmarks,
#: 10 GB/node for the real-world applications (§3).
PAPER_MICRO_GB = 1.0
PAPER_REAL_GB = 10.0

#: Data sizes for the core-count (Table 3) study: at 512 MB blocks a
#: 1 GB/node input yields only two map tasks per node, which would starve
#: the mappers-equals-cores sweep, so the micro-benchmarks run 2 GB/node
#: (four blocks per node — enough work for small M, while large M runs
#: into the paper's diminishing returns).
COST_STUDY_MICRO_GB = 2.0


@dataclass(frozen=True)
class RunKey:
    """One cell of the measurement grid."""

    machine: str
    workload: str
    freq_ghz: float = 1.8
    block_size_mb: float = 64.0
    data_per_node_gb: float = 1.0
    n_nodes: int = 3
    cores_per_node: Optional[int] = None
    map_slots_per_node: Optional[int] = None

    def describe(self) -> str:
        cores = self.cores_per_node if self.cores_per_node else "all"
        return (f"{self.workload} on {self.machine} @ {self.freq_ghz} GHz, "
                f"{self.block_size_mb:g} MB blocks, "
                f"{self.data_per_node_gb:g} GB/node, {cores} cores")


#: A cell to simulate: a :class:`RunKey` under the runner's own
#: :class:`JobConf`, or a ``(RunKey, JobConf)`` pair that brings its own
#: (the fault sweep's per-rate fault plans).
Cell = Union[RunKey, Tuple[RunKey, JobConf]]


def default_data_gb(workload: str) -> float:
    """The paper's default data size for a workload class."""
    from ..workloads.base import REAL_WORLD
    return PAPER_REAL_GB if workload in REAL_WORLD else PAPER_MICRO_GB


def cost_point(key: RunKey, result: JobResult,
               label: Optional[str] = None) -> CostPoint:
    """Wrap a cell's result as a :class:`CostPoint` (EDxP/EDxAP).

    The area charged is the die area prorated over the cores actually
    allocated (§1.2 / Table 3 methodology).
    """
    from ..arch.presets import machine
    spec = machine(key.machine)
    cores = key.cores_per_node or spec.cores_per_node
    return CostPoint(label=label or key.describe(),
                     energy_j=result.dynamic_energy_j,
                     delay_s=result.execution_time_s,
                     area_mm2=spec.area_for_cores(cores))


def simulate_cell(key: RunKey, conf: JobConf = DEFAULT_CONF) -> JobResult:
    """Simulate one grid cell — the pure function behind every cache.

    A cell's result is fully determined by (*key*, *conf*); this is the
    single call site both :meth:`Characterizer.run` and the parallel
    workers of :mod:`repro.analysis.executor` funnel through, which is
    what makes cached, serial and parallel results bit-identical.
    """
    return simulate_job(
        key.machine, key.workload,
        n_nodes=key.n_nodes,
        freq_ghz=key.freq_ghz,
        block_size_mb=key.block_size_mb,
        data_per_node_gb=key.data_per_node_gb,
        cores_per_node=key.cores_per_node,
        map_slots_per_node=key.map_slots_per_node,
        conf=conf,
    )


class Characterizer:
    """Runs and memoizes grid cells.

    Three layers of reuse, checked in order: an in-process dict, an
    optional persistent :class:`~repro.analysis.executor.ResultCache`
    (*cache*), and simulation.  *jobs* sets the default process-pool
    width for :meth:`run_many` (1 = serial; 0 = one worker per CPU).

    Example:
        >>> ch = Characterizer()
        >>> r = ch.run(RunKey("atom", "wordcount"))
        >>> r.execution_time_s > 0
        True
    """

    def __init__(self, conf: JobConf = DEFAULT_CONF, cache=None,
                 jobs: int = 1):
        self.conf = conf
        self.disk_cache = cache
        self.jobs = jobs
        self._cache: Dict[Tuple[RunKey, JobConf], JobResult] = {}

    def _pair(self, cell: Cell) -> Tuple[RunKey, JobConf]:
        return cell if isinstance(cell, tuple) else (cell, self.conf)

    def run(self, cell: Cell) -> JobResult:
        """Simulate one cell (memoized, then disk-cached)."""
        return self.run_many([cell])[0]

    def run_many(self, cells: Iterable[Cell],
                 jobs: Optional[int] = None) -> List[JobResult]:
        """Run a batch of cells, fanning cache misses out over *jobs*
        worker processes (defaults to the instance's ``jobs``).

        Results are returned in input order and are identical at any
        worker count; see :func:`repro.analysis.executor.run_cells` for
        the ordering guarantee.
        """
        pairs = [self._pair(cell) for cell in cells]
        missing = [p for p in dict.fromkeys(pairs) if p not in self._cache]
        if missing:
            from ..analysis.executor import run_cells
            self._cache.update(run_cells(
                missing, self.conf, jobs=self.jobs if jobs is None else jobs,
                cache=self.disk_cache))
        return [self._cache[pair] for pair in pairs]

    def __len__(self) -> int:
        return len(self._cache)


class Results(Dict[Cell, JobResult]):
    """Finished cells of a plan: a cell source that never simulates.

    Answers :meth:`run` and :meth:`run_many` as a :class:`Characterizer`
    does, so the cost, tuning, scheduling and datacenter helpers render
    from either; a cell outside the plan raises ``KeyError``.
    """

    def run(self, cell: Cell) -> JobResult:
        return self[cell]

    def run_many(self, cells: Iterable[Cell]) -> List[JobResult]:
        return [self[cell] for cell in cells]
