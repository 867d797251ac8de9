"""Configuration tuning advisor (the paper's §3.1.1/§3.5 fine-tuning).

A recurring conclusion of the paper is that the little core's gap can be
"reduced significantly through fine-tuning of the system and
architectural parameters", letting a scheduler satisfy a performance
constraint at a lower frequency or with fewer cores.  This module makes
that actionable: it searches the (frequency × block size × core count)
grid through the characterization database and recommends the
configuration minimizing a cost goal, optionally under a deadline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..arch.dvfs import PAPER_FREQUENCIES_GHZ
from ..arch.presets import machine as machine_spec
from ..hdfs.blocks import PAPER_BLOCK_SIZES_MB
from .characterization import Characterizer, RunKey, default_data_gb
from .metrics import edxp

__all__ = ["TuningPoint", "TuningRecommendation", "TuningAdvisor"]


@dataclass(frozen=True)
class TuningPoint:
    """One evaluated configuration."""

    freq_ghz: float
    block_size_mb: float
    cores: int
    execution_time_s: float
    energy_j: float

    @property
    def edp(self) -> float:
        return edxp(self.energy_j, self.execution_time_s, 1)

    def metric(self, goal: str) -> float:
        exponents = {"ENERGY": 0, "EDP": 1, "ED2P": 2, "ED3P": 3}
        try:
            return edxp(self.energy_j, self.execution_time_s,
                        exponents[goal.upper()])
        except KeyError:
            raise KeyError(f"unknown goal {goal!r}; choose from "
                           f"{sorted(exponents)}") from None


@dataclass(frozen=True)
class TuningRecommendation:
    """The advisor's answer: best point plus what tuning was worth."""

    workload: str
    machine: str
    goal: str
    best: TuningPoint
    default: TuningPoint
    feasible: bool

    @property
    def improvement(self) -> float:
        """Goal-metric ratio default/best (>1 = tuning helped)."""
        return self.default.metric(self.goal) / self.best.metric(self.goal)


class TuningAdvisor:
    """Searches the configuration grid for a workload on one machine.

    *characterizer* is any cell source: a :class:`Characterizer`, or the
    :class:`~repro.core.characterization.Results` of a plan.
    """

    def __init__(self, characterizer: Optional[Characterizer] = None,
                 freqs_ghz: Sequence[float] = PAPER_FREQUENCIES_GHZ,
                 blocks_mb: Sequence[float] = PAPER_BLOCK_SIZES_MB,
                 core_counts: Optional[Sequence[int]] = None):
        self.characterizer = characterizer if characterizer is not None else Characterizer()
        self.freqs_ghz = tuple(freqs_ghz)
        self.blocks_mb = tuple(float(b) for b in blocks_mb)
        self.core_counts = tuple(core_counts) if core_counts else None

    def _cores_for(self, machine: str) -> Tuple[int, ...]:
        if self.core_counts:
            return self.core_counts
        return (machine_spec(machine).cores_per_node,)

    def keys(self, workload: str, machine: str,
             data_per_node_gb: Optional[float] = None) -> List[RunKey]:
        """The grid cells :meth:`evaluate` reads for (workload, machine)."""
        gb = (data_per_node_gb if data_per_node_gb is not None
              else default_data_gb(workload))
        pinned = bool(self.core_counts)
        return [RunKey(machine, workload, freq_ghz=freq, block_size_mb=block,
                       data_per_node_gb=gb,
                       cores_per_node=cores if pinned else None,
                       map_slots_per_node=cores if pinned else None)
                for cores in self._cores_for(machine)
                for freq in self.freqs_ghz for block in self.blocks_mb]

    def evaluate(self, workload: str, machine: str,
                 data_per_node_gb: Optional[float] = None
                 ) -> List[TuningPoint]:
        """Every grid point for (workload, machine), run in one batch."""
        keys = self.keys(workload, machine, data_per_node_gb)
        all_cores = machine_spec(machine).cores_per_node
        return [TuningPoint(freq_ghz=key.freq_ghz,
                            block_size_mb=key.block_size_mb,
                            cores=key.cores_per_node or all_cores,
                            execution_time_s=result.execution_time_s,
                            energy_j=result.dynamic_energy_j)
                for key, result in zip(
                    keys, self.characterizer.run_many(keys))]

    def recommend(self, workload: str, machine: str, goal: str = "EDP",
                  deadline_s: Optional[float] = None,
                  data_per_node_gb: Optional[float] = None
                  ) -> TuningRecommendation:
        """Best configuration for *goal*, optionally under a deadline.

        The *default* reference is the stock setup the paper criticizes:
        64 MB blocks at the maximum frequency.
        """
        points = self.evaluate(workload, machine, data_per_node_gb)
        feasible = [p for p in points
                    if deadline_s is None
                    or p.execution_time_s <= deadline_s]
        pool = feasible or points
        best = min(pool, key=lambda p: p.metric(goal))
        default = next(
            p for p in points
            if p.freq_ghz == max(self.freqs_ghz)
            and p.block_size_mb == 64.0
            and p.cores == self._cores_for(machine)[-1])
        return TuningRecommendation(
            workload=workload, machine=machine, goal=goal.upper(),
            best=best, default=default, feasible=bool(feasible))

