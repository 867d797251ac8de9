"""Deterministic, seed-driven fault injection for the cluster simulator.

A :class:`FaultPlan` describes everything that can go wrong in one
simulated run: node crashes at fixed times, per-node disk/core
degradation factors, a per-task-attempt failure probability, and a
straggler slowdown distribution.  The plan is *pure data* — it draws
nothing at construction time and holds no RNG state.  Every stochastic
decision is a deterministic function of ``(seed, task_id, attempt)``
hashed through SHA-256, so

* the same seed gives bit-identical faults regardless of the order in
  which the driver asks (work-stealing and speculation reorder attempt
  launches freely),
* results are identical across worker processes (`--jobs 1` vs
  `--jobs 4`) — the same discipline as the crc32 replica spread, since
  ``hash()`` is randomized per process by ``PYTHONHASHSEED``.

The recovery side (task attempts, retries, speculative execution) lives
in :mod:`repro.mapreduce.driver`; this module only decides *what*
fails, *when*, and *by how much*.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

__all__ = ["NodeFault", "FaultPlan", "unit_draw"]


def unit_draw(seed: int, *parts: str) -> float:
    """Deterministic uniform draw in ``[0, 1)`` from *seed* and labels.

    SHA-256 over the seed and the label parts, mapped to a float — stable
    across processes, platforms and Python versions (unlike ``hash()``).
    """
    payload = f"{seed}|" + "|".join(parts)
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0 ** 64


@dataclass(frozen=True)
class NodeFault:
    """Everything that is wrong with one node.

    Attributes:
        node: node name (e.g. ``"atom1"``).
        crash_at_s: simulated time at which the node dies, or ``None``.
        disk_slowdown: factor (>= 1) dividing the node's disk bandwidth —
            a degrading spindle or a saturated SD card on an SBC node.
        compute_slowdown: factor (>= 1) multiplying every compute time on
            the node — thermal throttling, a noisy co-tenant.
    """

    node: str
    crash_at_s: Optional[float] = None
    disk_slowdown: float = 1.0
    compute_slowdown: float = 1.0

    def __post_init__(self):
        # Chained comparisons refuse NaN and infinity too: a slowed
        # device's service time is posted to the calendar unchecked.
        crash = self.crash_at_s
        if crash is not None and not 0.0 <= crash < math.inf:
            raise ValueError("crash time must be non-negative and finite")
        if not (1.0 <= self.disk_slowdown < math.inf
                and 1.0 <= self.compute_slowdown < math.inf):
            raise ValueError("slowdown factors must be >= 1 and finite")


@dataclass(frozen=True)
class FaultPlan:
    """Immutable description of the faults injected into one run.

    Attributes:
        seed: integer seed behind every probabilistic decision.  Identical
            seeds give bit-identical runs; the plan participates in the
            result-cache key through the :class:`~repro.mapreduce.config.
            JobConf` it is attached to.
        node_faults: per-node crash times and degradation factors.
        task_fail_prob: probability that one task *attempt* fails midway
            (a lost container, a JVM OOM).  Drawn per (task, attempt).
        straggler_prob: probability that one attempt runs slowed down.
        straggler_slowdown: ``(lo, hi)`` uniform range the straggler's
            compute-slowdown factor is drawn from.
        slow_tasks: explicit ``(task_id, factor)`` stragglers — applied to
            the *first* attempt of the named task only, so a speculative
            backup copy runs at full speed (the LATE scenario).
    """

    seed: int = 0
    node_faults: Tuple[NodeFault, ...] = ()
    task_fail_prob: float = 0.0
    straggler_prob: float = 0.0
    straggler_slowdown: Tuple[float, float] = (2.0, 6.0)
    slow_tasks: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self):
        if not 0.0 <= self.task_fail_prob <= 1.0:
            raise ValueError("task_fail_prob must be in [0, 1]")
        if not 0.0 <= self.straggler_prob <= 1.0:
            raise ValueError("straggler_prob must be in [0, 1]")
        lo, hi = self.straggler_slowdown
        if not 1.0 <= lo <= hi < math.inf:
            raise ValueError(
                "straggler_slowdown must satisfy 1 <= lo <= hi < inf")
        names = [f.node for f in self.node_faults]
        if len(set(names)) != len(names):
            raise ValueError("duplicate node in node_faults")
        for _task, factor in self.slow_tasks:
            if not 1.0 <= factor < math.inf:
                raise ValueError("slow_tasks factors must be >= 1 and finite")

    # -- constructors -----------------------------------------------------
    @classmethod
    def with_crash_rate(cls, seed: int, node_names: Sequence[str],
                        crashes_per_1000s: float,
                        **overrides) -> "FaultPlan":
        """Plan with exponential crash times at the given node-failure rate.

        Each node independently draws a crash time from an exponential
        distribution with rate ``crashes_per_1000s`` per 1000 simulated
        seconds (deterministically from *seed* and the node name).  A
        rate of 0 yields a plan with no crashes — byte-identical results
        to running without a plan.
        """
        if not 0.0 <= crashes_per_1000s < math.inf:
            raise ValueError("crash rate must be non-negative and finite")
        faults = []
        if crashes_per_1000s > 0:
            lam = crashes_per_1000s / 1000.0
            for name in node_names:
                u = unit_draw(seed, "crash", name)
                crash_at = -math.log(1.0 - u) / lam
                faults.append(NodeFault(node=name, crash_at_s=crash_at))
        return cls(seed=seed, node_faults=tuple(faults), **overrides)

    # -- lookups ----------------------------------------------------------
    def node_fault(self, node: str) -> Optional[NodeFault]:
        for fault in self.node_faults:
            if fault.node == node:
                return fault
        return None

    # -- per-attempt draws ------------------------------------------------
    def attempt_fails(self, task_id: str, attempt: int) -> bool:
        """Does this (task, attempt) fail?  Order-independent draw."""
        if self.task_fail_prob <= 0.0:
            return False
        return unit_draw(self.seed, "fail", task_id,
                         str(attempt)) < self.task_fail_prob

    def failure_point(self, task_id: str, attempt: int) -> float:
        """Progress fraction at which a failing attempt dies (in 0.05..0.95).

        Failing early wastes little work, failing late wastes almost a
        whole attempt; sampling the point spreads the recovery cost the
        way real container losses do.
        """
        u = unit_draw(self.seed, "failpoint", task_id, str(attempt))
        return 0.05 + 0.9 * u

    def slowdown(self, task_id: str, attempt: int) -> float:
        """Compute-slowdown factor for this attempt (1.0 = healthy).

        Explicit ``slow_tasks`` entries hit only attempt 0 — re-executions
        and speculative backups run clean, which is the scenario LATE
        exists for.  Probabilistic stragglers are drawn per attempt.
        """
        if attempt == 0:
            for task, factor in self.slow_tasks:
                if task == task_id:
                    return factor
        if self.straggler_prob > 0.0:
            if unit_draw(self.seed, "straggler", task_id,
                         str(attempt)) < self.straggler_prob:
                lo, hi = self.straggler_slowdown
                u = unit_draw(self.seed, "stragfactor", task_id, str(attempt))
                return lo + (hi - lo) * u
        return 1.0

    @property
    def is_quiet(self) -> bool:
        """True if this plan can never perturb a run."""
        return (self.task_fail_prob == 0.0 and self.straggler_prob == 0.0
                and not self.slow_tasks
                and all(f.crash_at_s is None and f.disk_slowdown == 1.0
                        and f.compute_slowdown == 1.0
                        for f in self.node_faults))
