"""Datacenter-scale multi-job simulation over mixed big+little racks.

This is the outer of a two-level simulation.  The **outer** level is a
discrete-event simulation (the same :class:`~repro.sim.engine.Simulator`
kernel as the per-job driver) of job arrivals, queueing and whole-node
slot leasing across hundreds of :class:`~repro.cluster.scheduler.
NodeDaemon`\\ s.  When a policy grants a job a lease, the **inner** level
— the full-fidelity per-job Hadoop simulation
(:func:`repro.mapreduce.driver.simulate_job`, reached through the
characterization grid so results are memoized and disk-cached) —
supplies the job's makespan, energy and recovery counters, and the
outer clock schedules its completion.

Because leases are exclusive homogeneous node sets and each job reads
its own HDFS input, a job's inner dynamics are independent of its
co-tenants; running the inner simulation per job is therefore exactly
equivalent to one giant shared event loop, at a fraction of the cost —
and identical job shapes hit the same memoized cell no matter how many
times the stream repeats them.  What that equivalence deliberately does
*not* model is cross-job interference; see ``docs/MODELING.md`` §9.

The observability hooks mirror the per-job driver: pass a
:class:`repro.obs.Tracer` and the run records per-job wait/run spans,
queue-depth and busy-node counters on the outer simulated clock, and
:mod:`repro.obs.prof` counts the runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..mapreduce.driver import JobResult
from ..obs import prof
from ..sim.engine import SimulationError, Simulator
from .arrivals import JobRequest
from .scheduler import NodeDaemon, SchedulerPolicy, SlotLease, make_policy

__all__ = ["RackSpec", "DatacenterSpec", "JobOutcome", "DatacenterRun",
           "run_datacenter", "run_policies", "default_job_model", "job_key"]

#: job_model signature: (machine_pool, request) → inner-simulation result.
JobModel = Callable[[str, JobRequest], JobResult]


@dataclass(frozen=True)
class RackSpec:
    """One rack: a row of identical nodes of one machine type."""

    machine: str
    n_nodes: int

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError("a rack needs at least one node")


@dataclass(frozen=True)
class DatacenterSpec:
    """The static shape of the simulated datacenter.

    Attributes:
        racks: rack list; node names encode rack and position
            (``r03.atom.07``) so placement is stable and readable.
        freq_ghz: DVFS operating point every node runs at.
        cores_per_node: active cores per node; ``None`` = the machine
            preset's full core count.
    """

    racks: Tuple[RackSpec, ...]
    freq_ghz: float = 1.8
    cores_per_node: Optional[int] = None

    def __post_init__(self):
        if not self.racks:
            raise ValueError("need at least one rack")

    @classmethod
    def mixed(cls, n_nodes: int, little_frac: float = 0.5,
              rack_size: int = 16, freq_ghz: float = 1.8) -> "DatacenterSpec":
        """Alternating big/little racks totalling *n_nodes*.

        ``little_frac`` of the nodes (rounded to whole racks where
        possible) are little-core (``atom``) machines, the rest
        big-core (``xeon``) — the mixed-rack shape of the paper's §3.5
        scenario at datacenter scale.
        """
        if n_nodes < 2:
            raise ValueError("a mixed datacenter needs at least 2 nodes")
        if not 0.0 < little_frac < 1.0:
            raise ValueError("little_frac must be in (0, 1)")
        if rack_size < 1:
            raise ValueError("rack_size must be >= 1")
        n_little = min(n_nodes - 1, max(1, round(n_nodes * little_frac)))
        remaining = {"atom": n_little, "xeon": n_nodes - n_little}
        racks: List[RackSpec] = []
        machine = "atom"
        while sum(remaining.values()) > 0:
            other = "xeon" if machine == "atom" else "atom"
            if remaining[machine] == 0:
                machine = other
                continue
            take = min(rack_size, remaining[machine])
            racks.append(RackSpec(machine, take))
            remaining[machine] -= take
            if remaining[other] > 0:
                machine = other
        return cls(racks=tuple(racks), freq_ghz=freq_ghz)

    @property
    def total_nodes(self) -> int:
        return sum(r.n_nodes for r in self.racks)

    def pool_sizes(self) -> Dict[str, int]:
        """Total nodes per machine pool, in first-seen rack order."""
        sizes: Dict[str, int] = {}
        for rack in self.racks:
            sizes[rack.machine] = sizes.get(rack.machine, 0) + rack.n_nodes
        return sizes

    def daemons(self) -> List[NodeDaemon]:
        """One scheduler-side daemon per node, in rack order."""
        from ..arch.presets import machine as machine_preset
        out: List[NodeDaemon] = []
        for rack_index, rack in enumerate(self.racks):
            spec = machine_preset(rack.machine)
            cores = (self.cores_per_node if self.cores_per_node is not None
                     else spec.cores_per_node)
            for i in range(rack.n_nodes):
                out.append(NodeDaemon(
                    name=f"r{rack_index:02d}.{rack.machine}.{i:02d}",
                    machine=rack.machine, rack=rack_index, cores=cores))
        return out


@dataclass
class JobOutcome:
    """One job's life in the datacenter: queueing plus its inner run."""

    request: JobRequest
    lease: SlotLease
    start_s: float
    end_s: float
    result: JobResult

    @property
    def wait_s(self) -> float:
        return self.start_s - self.request.submit_s

    @property
    def turnaround_s(self) -> float:
        return self.end_s - self.request.submit_s

    @property
    def slowdown(self) -> float:
        """Turnaround over pure run time (1.0 = never waited)."""
        run = self.result.execution_time_s
        return self.turnaround_s / run if run > 0 else 1.0

    @property
    def edp(self) -> float:
        return (self.result.dynamic_energy_j
                * self.result.execution_time_s)


@dataclass
class DatacenterRun:
    """Everything one (spec, stream, policy) simulation produced."""

    policy: str
    spec: DatacenterSpec
    outcomes: List[JobOutcome] = field(default_factory=list)

    @property
    def makespan_s(self) -> float:
        """First submission to last completion (submissions start at 0)."""
        return max((o.end_s for o in self.outcomes), default=0.0)

    @property
    def total_dynamic_energy_j(self) -> float:
        return sum(o.result.dynamic_energy_j for o in self.outcomes)

    @property
    def cluster_edp(self) -> float:
        """Cluster-wide energy-delay product: total energy × makespan."""
        return self.total_dynamic_energy_j * self.makespan_s

    @property
    def mean_wait_s(self) -> float:
        waits = [o.wait_s for o in self.outcomes]
        return sum(waits) / len(waits) if waits else 0.0

    @property
    def p95_wait_s(self) -> float:
        waits = sorted(o.wait_s for o in self.outcomes)
        if not waits:
            return 0.0
        index = max(0, -(-len(waits) * 95 // 100) - 1)  # ceil(0.95 n) - 1
        return waits[index]

    @property
    def mean_slowdown(self) -> float:
        slow = [o.slowdown for o in self.outcomes]
        return sum(slow) / len(slow) if slow else 0.0

    @property
    def jain_fairness(self) -> float:
        """Jain's index over per-job slowdowns (1.0 = perfectly even)."""
        slow = [o.slowdown for o in self.outcomes]
        if not slow:
            return 1.0
        square_of_sum = sum(slow) ** 2
        sum_of_squares = sum(s * s for s in slow)
        return square_of_sum / (len(slow) * sum_of_squares)

    @property
    def wasted_task_seconds(self) -> float:
        return sum(o.result.wasted_task_seconds for o in self.outcomes)

    @property
    def node_seconds(self) -> float:
        return sum(o.lease.n_nodes * o.result.execution_time_s
                   for o in self.outcomes)

    @property
    def utilization(self) -> float:
        """Leased node-seconds over available node-seconds."""
        capacity = self.spec.total_nodes * self.makespan_s
        return self.node_seconds / capacity if capacity > 0 else 0.0

    def summary(self) -> Dict[str, float]:
        """One comparison-table row (stable key order for CSV export)."""
        little = sum(1 for o in self.outcomes
                     if o.lease.machine == "atom")
        return {
            "jobs": float(len(self.outcomes)),
            "makespan_s": self.makespan_s,
            "total_energy_j": self.total_dynamic_energy_j,
            "cluster_edp": self.cluster_edp,
            "mean_job_edp": (sum(o.edp for o in self.outcomes)
                             / len(self.outcomes) if self.outcomes else 0.0),
            "mean_wait_s": self.mean_wait_s,
            "p95_wait_s": self.p95_wait_s,
            "mean_slowdown": self.mean_slowdown,
            "jain_fairness": self.jain_fairness,
            "wasted_task_s": self.wasted_task_seconds,
            "utilization": self.utilization,
            "little_pool_jobs": float(little),
        }

    def job_records(self) -> List[Dict[str, object]]:
        """Per-job rows (submission order) for the jobs CSV payload."""
        rows = []
        for o in sorted(self.outcomes, key=lambda o: o.request.job_id):
            rows.append({
                "job_id": o.request.job_id,
                "workload": o.request.workload,
                "user": o.request.user,
                "nodes": o.lease.n_nodes,
                "machine": o.lease.machine,
                "submit_s": o.request.submit_s,
                "start_s": o.start_s,
                "end_s": o.end_s,
                "wait_s": o.wait_s,
                "run_s": o.result.execution_time_s,
                "slowdown": o.slowdown,
                "energy_j": o.result.dynamic_energy_j,
                "edp": o.edp,
                "wasted_s": o.result.wasted_task_seconds,
            })
        return rows


def job_key(machine: str, request: JobRequest, freq_ghz: float = 1.8):
    """The :class:`~repro.core.characterization.RunKey` cell that models
    *request* on the *machine* pool."""
    from ..core.characterization import RunKey
    return RunKey(machine, request.workload, freq_ghz=freq_ghz,
                  n_nodes=request.nodes,
                  data_per_node_gb=request.data_per_node_gb)


def default_job_model(characterizer=None, *,
                      freq_ghz: float = 1.8) -> JobModel:
    """Inner model backed by the characterization grid.

    Each (pool, job shape) maps to one :func:`job_key` cell, so repeated
    shapes in the stream cost one simulation and results flow through
    the shared in-process memo and the on-disk result cache.
    *characterizer* is any cell source: a
    :class:`~repro.core.characterization.Characterizer`, or the
    ``Results`` of a plan that holds every cell the stream can place.
    """
    from ..core.characterization import Characterizer
    ch = characterizer if characterizer is not None else Characterizer()

    def model(machine: str, request: JobRequest) -> JobResult:
        return ch.run(job_key(machine, request, freq_ghz))

    return model


def _validate(spec: DatacenterSpec, stream: Sequence[JobRequest]) -> None:
    pools = spec.pool_sizes()
    widest = max(pools.values())
    for req in stream:
        if req.nodes > widest:
            raise SimulationError(
                f"job {req.job_id} wants {req.nodes} nodes but the largest "
                f"pool has {widest}")
    if any(b.submit_s < a.submit_s for a, b in zip(stream, stream[1:])):
        raise SimulationError("stream must be sorted by submit_s")


def run_datacenter(spec: DatacenterSpec, stream: Sequence[JobRequest],
                   policy: SchedulerPolicy, *,
                   job_model: Optional[JobModel] = None,
                   obs=None) -> DatacenterRun:
    """Simulate *stream* on *spec* under *policy*; every job completes.

    The returned :class:`DatacenterRun` is a pure function of the
    arguments: the outer event loop is deterministic (FIFO tie-breaking,
    name-ordered node picks) and the inner model is the deterministic
    per-job simulator.
    """
    _validate(spec, stream)
    model = (job_model if job_model is not None
             else default_job_model(freq_ghz=spec.freq_ghz))
    sim = Simulator()
    if obs is not None:
        obs.attach(sim)
    daemons = spec.daemons()
    by_pool: Dict[str, List[NodeDaemon]] = {}
    for daemon in daemons:
        by_pool.setdefault(daemon.machine, []).append(daemon)
    free: Dict[str, int] = {pool: len(nodes)
                            for pool, nodes in sorted(by_pool.items())}
    policy.prepare(dict(free))

    run = DatacenterRun(policy=policy.name, spec=spec)
    queue: List[JobRequest] = []
    state = {"done": 0}
    wake: List = [sim.event()]

    def _wake() -> None:
        if not wake[0].triggered:
            wake[0].succeed()

    def _counters() -> None:
        if obs is None:
            return
        obs.counter("dc.queue", "jobs").set(sim.now, float(len(queue)))
        for pool, nodes in by_pool.items():
            busy = len(nodes) - free[pool]
            obs.counter(f"dc.busy.{pool}", "nodes").set(sim.now, float(busy))

    def arrivals():
        for req in stream:
            delay = req.submit_s - sim.now
            if delay > 0:
                yield sim.timeout(delay)
            queue.append(req)
            if obs is not None:
                obs.instant(f"submit job{req.job_id}", ("datacenter", "queue"),
                            cat="arrival", workload=req.workload,
                            nodes=req.nodes, user=req.user)
            _counters()
            _wake()

    def completion(request: JobRequest, lease: SlotLease, result: JobResult,
                   span) -> object:
        yield sim.timeout(result.execution_time_s)
        for name in lease.node_names:
            daemon = _daemon_index[name]
            daemon.leased_by = None
            free[lease.machine] += 1
        policy.on_finish(request, lease, sim.now)
        run.outcomes.append(JobOutcome(
            request=request, lease=lease, start_s=lease.granted_s,
            end_s=sim.now, result=result))
        state["done"] += 1
        if span is not None:
            obs.end(span, energy_j=result.dynamic_energy_j)
        _counters()
        _wake()

    _daemon_index = {d.name: d for d in daemons}

    def _grant(request: JobRequest, pool: str) -> None:
        if free[pool] < request.nodes:
            raise SimulationError(
                f"{policy.name} granted {request.nodes} nodes of {pool} "
                f"with only {free[pool]} free")
        picked: List[NodeDaemon] = []
        for daemon in by_pool[pool]:
            if daemon.idle:
                picked.append(daemon)
                if len(picked) == request.nodes:
                    break
        lease = SlotLease(
            job_id=request.job_id, machine=pool,
            node_names=tuple(d.name for d in picked),
            cores_per_node=picked[0].cores, granted_s=sim.now)
        for daemon in picked:
            daemon.leased_by = request.job_id
        free[pool] -= request.nodes
        policy.on_start(request, lease, sim.now)
        queue.remove(request)
        result = model(pool, request)
        span = None
        if obs is not None:
            span = obs.begin(
                f"job{request.job_id}.{request.workload}",
                ("datacenter", pool), cat="lease",
                nodes=lease.n_nodes, wait_s=sim.now - request.submit_s,
                user=request.user)
        sim.process(completion(request, lease, result, span))

    def scheduler_loop():
        while state["done"] < len(stream):
            while True:
                pick = policy.select(tuple(queue), dict(free), sim.now)
                if pick is None:
                    break
                _grant(*pick)
            _counters()
            if state["done"] >= len(stream):
                break
            wake[0] = sim.event()
            yield wake[0]

    sim.process(arrivals())
    sim.process(scheduler_loop())
    sim.run()
    if state["done"] != len(stream):
        raise SimulationError(
            f"datacenter run stalled: {state['done']}/{len(stream)} jobs "
            f"completed (policy {policy.name})")
    if obs is not None:
        obs.count("dc.grants", len(stream))
        obs.meta["dc.makespan_s"] = run.makespan_s
    profiler = prof.ACTIVE
    if profiler is not None:
        profiler.count("datacenter.outer.calls")
    return run


def run_policies(spec: DatacenterSpec, stream: Sequence[JobRequest],
                 policies: Sequence[str], *,
                 job_model: Optional[JobModel] = None, goal: str = "EDP",
                 patience_s: float = 180.0,
                 obs=None) -> Dict[str, DatacenterRun]:
    """Run the same (spec, stream) under each named policy.

    Policies are instantiated fresh per run (they hold accounting
    state); the job model is shared, so every policy after the first
    reuses the memoized inner cells.
    """
    runs: Dict[str, DatacenterRun] = {}
    model = (job_model if job_model is not None
             else default_job_model(freq_ghz=spec.freq_ghz))
    for name in policies:
        policy = make_policy(name, goal=goal, patience_s=patience_s)
        runs[name] = run_datacenter(spec, stream, policy,
                                    job_model=model, obs=obs)
    return runs
