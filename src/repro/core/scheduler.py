"""Heterogeneity-aware scheduling (§3.5).

In a cloud with both big (Xeon) and little (Atom) core pools, the
scheduler must pick a machine type and a core count per job.  The user
wants delay; the provider wants operational cost (energy) and capital
cost (area).  This module implements:

* :class:`PaperHeuristicPolicy` — the paper's pseudo-code verbatim:
  classify the application (compute / IO / hybrid), then

  - compute-bound  → many little cores (A = 8), fine-tune to fewer;
  - I/O-bound      → a few big cores (X = 4);
  - hybrid         → X = 2 when the goal is ED²AP, else A = 8;

* :class:`ExhaustiveOraclePolicy` — searches every (machine, cores)
  configuration through the characterization database; the regret of any
  other policy is measured against it;
* :class:`BigestFirstPolicy` / :class:`LittlestFirstPolicy` — the naive
  baselines (max performance / min power);
* :func:`evaluate_policies` — the §3.5 case study: run a job mix under
  each policy and report realized cost and regret.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from ..workloads.base import Category
from .characterization import Characterizer, RunKey
from .classifier import classify_spec
from .cost import PAPER_CORE_COUNTS, CostTable, cost_table

__all__ = [
    "Placement", "SchedulingGoal", "PaperHeuristicPolicy",
    "ExhaustiveOraclePolicy", "BigestFirstPolicy", "LittlestFirstPolicy",
    "PolicyReport", "evaluate_policies", "ALL_POLICIES",
]

#: Cost metrics a scheduling goal may target.
SchedulingGoal = str  # one of "EDP", "ED2P", "ED3P", "EDAP", "ED2AP"

_VALID_GOALS = ("EDP", "ED2P", "ED3P", "EDAP", "ED2AP")


@dataclass(frozen=True)
class Placement:
    """A scheduling decision: machine type and core count."""

    machine: str
    cores: int

    def __post_init__(self):
        if self.machine not in ("atom", "xeon"):
            raise ValueError(f"unknown machine {self.machine!r}")
        if self.cores < 1:
            raise ValueError("cores must be >= 1")

    @property
    def label(self) -> str:
        return f"{self.cores}{'A' if self.machine == 'atom' else 'X'}"


def _check_goal(goal: str) -> str:
    goal = goal.upper()
    if goal not in _VALID_GOALS:
        raise ValueError(f"unknown goal {goal!r}; choose from {_VALID_GOALS}")
    return goal


def _cost_of(placement: Placement, table: CostTable, goal: str) -> float:
    return table.cell(placement.machine, placement.cores).metric(goal)


class PaperHeuristicPolicy:
    """The paper's §3.5 pseudo-code."""

    name = "paper-heuristic"

    def decide(self, workload: str, goal: SchedulingGoal,
               table: CostTable) -> Placement:
        goal = _check_goal(goal)
        category = classify_spec(workload)
        if category == Category.COMPUTE:
            return Placement("atom", 8)
        if category == Category.IO:
            return Placement("xeon", 4)
        # Hybrid: a couple of big cores win the real-time cost metric,
        # many little cores win everything else.
        if goal == "ED2AP":
            return Placement("xeon", 2)
        return Placement("atom", 8)


class ExhaustiveOraclePolicy:
    """Searches the full Table 3 grid for the goal-minimizing cell."""

    name = "exhaustive-oracle"

    def decide(self, workload: str, goal: SchedulingGoal,
               table: CostTable) -> Placement:
        goal = _check_goal(goal)
        best = table.best_config(goal)
        return Placement(best.machine, best.cores)


class BigestFirstPolicy:
    """User-perspective baseline: all the big cores you can get."""

    name = "big-first"

    def decide(self, workload: str, goal: SchedulingGoal,
               table: CostTable) -> Placement:
        return Placement("xeon", max(PAPER_CORE_COUNTS))


class LittlestFirstPolicy:
    """Naive low-power baseline: a couple of little cores."""

    name = "little-first"

    def decide(self, workload: str, goal: SchedulingGoal,
               table: CostTable) -> Placement:
        return Placement("atom", min(PAPER_CORE_COUNTS))


ALL_POLICIES = (PaperHeuristicPolicy, ExhaustiveOraclePolicy,
                BigestFirstPolicy, LittlestFirstPolicy)


@dataclass
class PolicyReport:
    """Outcome of one policy over a job mix."""

    policy: str
    goal: str
    placements: Dict[str, Placement] = field(default_factory=dict)
    costs: Dict[str, float] = field(default_factory=dict)
    optimal_costs: Dict[str, float] = field(default_factory=dict)
    execution_times: Dict[str, float] = field(default_factory=dict)

    @property
    def total_cost(self) -> float:
        return sum(self.costs.values())

    def regret(self, workload: str) -> float:
        """Cost over the oracle's, as a ratio (1.0 = optimal)."""
        return self.costs[workload] / self.optimal_costs[workload]

    @property
    def mean_regret(self) -> float:
        if not self.costs:
            return 1.0
        return (sum(self.regret(w) for w in self.costs) / len(self.costs))


def evaluate_policies(workloads: Sequence[str],
                      goal: SchedulingGoal = "EDP",
                      policies: Iterable = ALL_POLICIES,
                      characterizer: Optional[Characterizer] = None,
                      **table_kwargs) -> List[PolicyReport]:
    """Run the §3.5 case study: each policy places each job; report costs.

    Every policy sees the same characterization tables (one per
    workload, from :func:`~repro.core.cost.cost_table`); costs are the
    realized goal metric of the chosen cell.  *characterizer* is any
    cell source, including the ``Results`` of a plan.
    """
    goal = _check_goal(goal)
    ch = characterizer if characterizer is not None else Characterizer()
    tables = {w: cost_table(w, characterizer=ch, **table_kwargs)
              for w in workloads}
    reports: List[PolicyReport] = []
    for policy_cls in policies:
        policy = policy_cls() if isinstance(policy_cls, type) else policy_cls
        report = PolicyReport(policy=policy.name, goal=goal)
        for w in workloads:
            table = tables[w]
            placement = policy.decide(w, goal, table)
            report.placements[w] = placement
            report.costs[w] = _cost_of(placement, table, goal)
            report.optimal_costs[w] = table.best_config(goal).metric(goal)
            report.execution_times[w] = table.cell(
                placement.machine, placement.cores).execution_time_s
        reports.append(report)
    return reports
