"""Operational and capital cost analysis (§3.5, Table 3 and Fig. 17).

Operational cost is energy; capital cost is silicon area.  The paper
sweeps M ∈ {2, 4, 6, 8} cores (with mappers = cores) on both machines at
512 MB blocks / 1.8 GHz and reports EDP, ED²P, EDAP and ED²AP per cell
(Table 3), then normalizes every metric to the 8-Xeon-core configuration
for the spider graphs (Fig. 17).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from .characterization import (COST_STUDY_MICRO_GB, PAPER_REAL_GB,
                               Characterizer, RunKey, cost_point)
from .metrics import CostPoint

__all__ = ["PAPER_CORE_COUNTS", "COST_METRICS", "CostCell", "CostTable",
           "cost_keys", "cost_table", "spider_series"]

#: Core/mapper counts of Table 3.
PAPER_CORE_COUNTS: Tuple[int, ...] = (2, 4, 6, 8)

#: Metrics reported per cell, in the paper's order.
COST_METRICS: Tuple[str, ...] = ("EDP", "ED2P", "EDAP", "ED2AP")


@dataclass(frozen=True)
class CostCell:
    """One (machine, cores) configuration's run and cost point."""

    machine: str
    cores: int
    execution_time_s: float
    energy_j: float
    point: CostPoint

    def metric(self, name: str) -> float:
        return self.point.metric(name)

    @property
    def label(self) -> str:
        return f"{self.cores}{'A' if self.machine == 'atom' else 'X'}"


@dataclass
class CostTable:
    """Table 3 for one workload: cells indexed by (machine, cores)."""

    workload: str
    cells: Dict[Tuple[str, int], CostCell] = field(default_factory=dict)

    def cell(self, machine: str, cores: int) -> CostCell:
        try:
            return self.cells[(machine, cores)]
        except KeyError:
            raise KeyError(f"no cell for {machine} M{cores}") from None

    def row(self, metric: str, machine: str) -> List[float]:
        """Metric across core counts for one machine (a Table 3 row)."""
        return [self.cell(machine, m).metric(metric)
                for m in PAPER_CORE_COUNTS]

    def best_config(self, metric: str) -> CostCell:
        """The globally best (machine, cores) cell for *metric*."""
        return min(self.cells.values(), key=lambda c: c.metric(metric))


def cost_keys(workload: str,
              core_counts: Sequence[int] = PAPER_CORE_COUNTS,
              freq_ghz: float = 1.8, block_size_mb: float = 512.0,
              data_per_node_gb: Optional[float] = None) -> List[RunKey]:
    """Table 3's cells for one workload, per machine and core count.

    Follows the paper's setup: 512 MB HDFS blocks, 1.8 GHz, number of
    mappers equal to the number of cores.
    """
    if data_per_node_gb is not None:
        gb = data_per_node_gb
    else:
        from ..workloads.base import REAL_WORLD
        gb = PAPER_REAL_GB if workload in REAL_WORLD else COST_STUDY_MICRO_GB
    return [RunKey(machine, workload, freq_ghz=freq_ghz,
                   block_size_mb=block_size_mb, data_per_node_gb=gb,
                   cores_per_node=cores, map_slots_per_node=cores)
            for machine in ("atom", "xeon") for cores in core_counts]


def cost_table(workload: str, characterizer: Optional[Characterizer] = None,
               **grid) -> CostTable:
    """Build Table 3 for one workload from its :func:`cost_keys` cells
    (*grid* are that function's keywords), run in one batch.

    *characterizer* is any cell source: a :class:`Characterizer`, or the
    :class:`~repro.core.characterization.Results` of a plan.
    """
    ch = characterizer if characterizer is not None else Characterizer()
    keys = cost_keys(workload, **grid)
    table = CostTable(workload=workload)
    for key, result in zip(keys, ch.run_many(keys)):
        machine, cores = key.machine, key.cores_per_node
        table.cells[(machine, cores)] = CostCell(
            machine=machine, cores=cores,
            execution_time_s=result.execution_time_s,
            energy_j=result.dynamic_energy_j,
            point=cost_point(key, result, label=f"{machine}-M{cores}"))
    return table


def spider_series(table: CostTable,
                  metrics: Sequence[str] = COST_METRICS
                  ) -> Dict[str, Dict[str, float]]:
    """Fig. 17's spider data: every metric normalized to 8 Xeon cores.

    Returns ``{config_label: {metric: normalized_value}}`` where the
    reference configuration ``8X`` maps to 1.0 on every axis; values < 1
    are *better* (closer to the origin) than the 8-Xeon reference.
    """
    reference = table.cell("xeon", 8)
    out: Dict[str, Dict[str, float]] = {}
    for (machine, cores), cell in sorted(table.cells.items()):
        out[cell.label] = {
            metric: cell.metric(metric) / reference.metric(metric)
            for metric in metrics
        }
    return out
