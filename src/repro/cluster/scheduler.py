"""Cluster-level scheduling: node daemons, slot leases, and policies.

The datacenter model (:mod:`repro.cluster.datacenter`) runs one
:class:`NodeDaemon` per physical node.  A daemon owns its node's task
slots; the scheduler never touches slots directly — it grants a job a
:class:`SlotLease` over a set of idle daemons of one machine type, and
the per-job Hadoop driver then runs against exactly the leased capacity
(``SlotLease.slot_plan`` is the per-node slot dictionary
:class:`repro.mapreduce.driver.HadoopJobRunner` accepts).

Four policies decide *which queued job gets the next lease*:

* :class:`FifoScheduler` — strict submission order with head-of-line
  blocking, Hadoop 1.x default behaviour.
* :class:`FairScheduler` — work-conserving least-allocation-first
  across users (running nodes, then accumulated node-seconds).
* :class:`CapacityScheduler` — named queues with guaranteed shares of
  the cluster and work-conserving elasticity, FIFO within a queue.
* :class:`HeteroScheduler` — the paper's §3.5 advice promoted to online
  placement: classify the application (compute / IO / hybrid), prefer
  the pool the classification names for the cost goal, and fall back to
  the other pool only after a bounded wait (so advice never becomes
  starvation).

Every policy is deterministic: decisions depend only on the queue
order, the free-pool counts and the simulated clock — never on dict
hash order or host state.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.classifier import classify_spec
from ..workloads.base import Category
from .arrivals import JobRequest

__all__ = ["NodeDaemon", "SlotLease", "SchedulerPolicy", "FifoScheduler",
           "FairScheduler", "CapacityScheduler", "HeteroScheduler",
           "POLICY_NAMES", "make_policy"]


@dataclass
class NodeDaemon:
    """Scheduler-side agent of one node: identity plus lease state.

    Mirrors a Hadoop worker daemon (TaskTracker / NodeManager): it
    advertises its slots to the scheduler and is either idle or leased,
    in full, to exactly one job.
    """

    name: str
    machine: str        #: machine-type pool ("atom" / "xeon")
    rack: int
    cores: int
    leased_by: Optional[int] = None  #: job_id currently holding the node

    @property
    def idle(self) -> bool:
        return self.leased_by is None


@dataclass(frozen=True)
class SlotLease:
    """An exclusive grant of whole nodes (all their slots) to one job."""

    job_id: int
    machine: str
    node_names: Tuple[str, ...]
    cores_per_node: int
    granted_s: float

    def __post_init__(self):
        if not self.node_names:
            raise ValueError("a lease needs at least one node")
        if self.cores_per_node < 1:
            raise ValueError("cores_per_node must be >= 1")

    @property
    def n_nodes(self) -> int:
        return len(self.node_names)

    def slot_plan(self) -> Dict[str, int]:
        """Per-node slot counts, in the driver's ``slot_plan`` shape."""
        return {name: self.cores_per_node for name in self.node_names}


# -- policy base ------------------------------------------------------------

class SchedulerPolicy:
    """Base class: pick grants, observe lease lifecycle."""

    name = "base"

    def prepare(self, pool_sizes: Mapping[str, int]) -> None:
        """Called once before the run with the total nodes per pool."""

    def select(self, queue: Sequence[JobRequest], free: Mapping[str, int],
               now: float) -> Optional[Tuple[JobRequest, str]]:
        """Next grant as ``(request, machine_pool)``, or ``None``.

        *queue* is the pending jobs in submission order; *free* maps the
        machine pool name to its idle node count.  The runner calls this
        repeatedly (updating *free*) until it returns ``None``.
        """
        raise NotImplementedError

    def on_start(self, request: JobRequest, lease: SlotLease,
                 now: float) -> None:
        """A grant was placed; account the allocation."""

    def on_finish(self, request: JobRequest, lease: SlotLease,
                  now: float) -> None:
        """A leased job completed; release the accounting."""


def _widest_fit(free: Mapping[str, int], nodes: int) -> Optional[str]:
    """The machine-type-blind pool pick: most free nodes that fit.

    Ties break lexicographically, so the choice is independent of the
    mapping's insertion order.
    """
    fitting = [(count, name) for name, count in free.items()
               if count >= nodes]
    if not fitting:
        return None
    return min(fitting, key=lambda cn: (-cn[0], cn[1]))[1]


class FifoScheduler(SchedulerPolicy):
    """Strict submission order; the head of the queue blocks the rest.

    Type-blind: a job runs on whichever pool currently has the most free
    nodes, exactly as a heterogeneity-unaware Hadoop 1.x JobTracker
    would fill whichever TaskTrackers heartbeat in first.
    """

    name = "fifo"

    def select(self, queue, free, now):
        if not queue:
            return None
        head = queue[0]
        pool = _widest_fit(free, head.nodes)
        return (head, pool) if pool is not None else None


@dataclass
class _Usage:
    running_nodes: int = 0
    node_seconds: float = 0.0


class FairScheduler(SchedulerPolicy):
    """Least-allocation-first across users, work-conserving.

    Among queued jobs that fit right now, grant the one whose user holds
    the fewest running nodes (then the least accumulated node-seconds,
    then the earliest submission).  This is the deficit-style fairness
    of the Hadoop Fair Scheduler, collapsed to whole-node grants.
    """

    name = "fair"

    def __init__(self):
        self._usage: Dict[str, _Usage] = {}

    def _u(self, user: str) -> _Usage:
        return self._usage.setdefault(user, _Usage())

    def select(self, queue, free, now):
        best = None
        best_rank = None
        for position, req in enumerate(queue):
            pool = _widest_fit(free, req.nodes)
            if pool is None:
                continue
            usage = self._u(req.user)
            rank = (usage.running_nodes, usage.node_seconds, position)
            if best_rank is None or rank < best_rank:
                best, best_rank = (req, pool), rank
        return best

    def on_start(self, request, lease, now):
        self._u(request.user).running_nodes += lease.n_nodes

    def on_finish(self, request, lease, now):
        usage = self._u(request.user)
        usage.running_nodes -= lease.n_nodes
        usage.node_seconds += lease.n_nodes * (now - lease.granted_s)


class CapacityScheduler(SchedulerPolicy):
    """Named queues with guaranteed cluster shares and elasticity.

    Jobs map to queues by their user's prefix (``prod-ana`` → ``prod``).
    Each queue is guaranteed ``share × total_nodes``; the most
    under-served queue (running nodes relative to its guarantee) whose
    head-of-queue job fits is granted next.  A queue may exceed its
    guarantee when others leave capacity idle (elasticity) — the grant
    order simply keeps preferring whoever is furthest under guarantee,
    so reclaiming happens naturally as leases expire.  Within a queue,
    submission order (FIFO).
    """

    name = "capacity"

    def __init__(self, shares: Optional[Mapping[str, float]] = None):
        #: queue name → fraction of the cluster it is guaranteed.
        self.shares: Dict[str, float] = dict(
            shares if shares is not None else {"prod": 0.6, "batch": 0.4})
        if any(s <= 0 for s in self.shares.values()):
            raise ValueError("queue shares must be positive")
        self._total_nodes = 0
        self._running: Dict[str, int] = {}

    def prepare(self, pool_sizes):
        self._total_nodes = sum(pool_sizes.values())

    def _guarantee(self, queue_name: str) -> float:
        total = sum(self.shares.values())
        share = self.shares.get(queue_name)
        if share is None:
            # Unknown queues get the smallest configured share: they can
            # run (work conservation) but never outrank a named tenant.
            share = min(self.shares.values())
        return max(1.0, self._total_nodes * share / total)

    def select(self, queue, free, now):
        heads: List[Tuple[float, int, JobRequest, str]] = []
        seen: Dict[str, bool] = {}
        for position, req in enumerate(queue):
            qname = req.queue
            if seen.get(qname):
                continue  # FIFO within the queue: only its head runs next
            seen[qname] = True
            pool = _widest_fit(free, req.nodes)
            if pool is None:
                continue
            served = self._running.get(qname, 0) / self._guarantee(qname)
            heads.append((served, position, req, pool))
        if not heads:
            return None
        served, _pos, req, pool = min(heads, key=lambda h: (h[0], h[1]))
        return (req, pool)

    def on_start(self, request, lease, now):
        qname = request.queue
        self._running[qname] = self._running.get(qname, 0) + lease.n_nodes

    def on_finish(self, request, lease, now):
        self._running[request.queue] -= lease.n_nodes


class HeteroScheduler(SchedulerPolicy):
    """The paper's §3.5 placement advice as an online policy.

    Per job, classify the application and derive the preferred pool:

    * compute-bound → the little-core pool (``atom``) — many little
      cores win every energy-weighted cost metric;
    * I/O-bound → the big-core pool (``xeon``) — the little core's
      I/O path collapses (the paper's 15x Sort gap);
    * hybrid → ``xeon`` when the goal weights delay-area (``ED2AP``),
      else ``atom`` — the pseudo-code's tie-break.

    Scan the queue in submission order (backfill: a blocked job never
    idles nodes a later job could use) and grant the preferred pool
    when it fits.  A job whose preferred pool has been full for
    ``patience_s`` of queueing — or can never fit it — takes the other
    pool instead: advice degrades into load balancing rather than
    starvation.
    """

    name = "hetero"

    #: pool the classification prefers, by category.
    LITTLE, BIG = "atom", "xeon"

    def __init__(self, goal: str = "EDP", patience_s: float = 180.0):
        # Written so that NaN fails too; an infinite patience never
        # gives up on the preferred pool.
        if not patience_s >= 0:
            raise ValueError(f"patience_s must be non-negative, got "
                             f"{patience_s!r}")
        self.goal = goal.upper()
        self.patience_s = patience_s
        self._pool_sizes: Dict[str, int] = {}

    def prepare(self, pool_sizes):
        self._pool_sizes = dict(pool_sizes)

    def preferred_pool(self, workload: str) -> str:
        category = classify_spec(workload)
        if category == Category.COMPUTE:
            return self.LITTLE
        if category == Category.IO:
            return self.BIG
        return self.BIG if self.goal == "ED2AP" else self.LITTLE

    def select(self, queue, free, now):
        for req in queue:
            preferred = self.preferred_pool(req.workload)
            if free.get(preferred, 0) >= req.nodes:
                return (req, preferred)
            other = self.BIG if preferred == self.LITTLE else self.LITTLE
            impatient = (now - req.submit_s >= self.patience_s
                         or self._pool_sizes.get(preferred, 0) < req.nodes)
            if impatient and free.get(other, 0) >= req.nodes:
                return (req, other)
        return None


#: Policy registry for the CLI and the experiment driver.
POLICY_NAMES = ("fifo", "fair", "capacity", "hetero")


def make_policy(name: str, *, goal: str = "EDP",
                patience_s: float = 180.0) -> SchedulerPolicy:
    """Fresh policy instance by name (policies hold per-run state)."""
    name = name.lower()
    if name == "fifo":
        return FifoScheduler()
    if name == "fair":
        return FairScheduler()
    if name == "capacity":
        return CapacityScheduler()
    if name == "hetero":
        return HeteroScheduler(goal=goal, patience_s=patience_s)
    raise ValueError(f"unknown policy {name!r}; choose from {POLICY_NAMES}")
