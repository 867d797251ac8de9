"""Job driver: runs a workload on a cluster and accounts the result.

This is the simulated JobTracker/ResourceManager: it splits the input
into blocks, dispatches map tasks to per-node slots with locality
preference, runs the reduce phase after the maps (the paper's phase
breakdowns treat the phases as sequential windows), chains multi-job
applications (Grep, TeraSort), and finally folds the power model over the
recorded activity trace.

Scheduling is Hadoop-faithful at the granularity the study needs: every
task execution is an *attempt*; failed attempts are retried with backoff
up to ``JobConf.max_attempts``; idle slots steal work from the longest
remaining queue (paying the remote-read cost); a crashed node's
unfinished blocks are re-enqueued onto survivors and its already-produced
map output is re-executed; and with ``speculative_execution`` on, a
LATE-style scheduler launches backup copies of slow tasks — the first
finisher wins and the loser is interrupted.  What fails, when, and by how
much comes from the :class:`~repro.sim.faults.FaultPlan` attached to the
job configuration; without one (or with a quiet plan) every fault code
path is inert and results are bit-identical to a fault-free model.

The public entry point is :func:`simulate_job`.
"""

from __future__ import annotations

import zlib
from collections import deque
from dataclasses import dataclass, field
from typing import (Deque, Dict, List, Optional, Sequence, Tuple, Union)

from ..arch.power import EnergyBreakdown, integrate_energy
from ..arch.presets import FRAMEWORK_PROFILE, MachineSpec, machine
from ..cluster.server import Cluster, ServerNode
from ..hdfs.filesystem import HDFS
from ..obs import prof
from ..sim.engine import Interrupt, Process, SimulationError, Simulator, Timeout
from ..sim.faults import FaultPlan
from ..sim.trace import complement
from ..workloads.base import JobStage, WorkloadSpec, workload
from .config import DEFAULT_CONF, JobConf
from .tasks import MapTask, ReduceTask, RunCounters, TaskAttemptError

__all__ = ["StageTiming", "JobResult", "HadoopJobRunner", "simulate_job"]

GB = 1024 ** 3

#: How often an idle slot re-evaluates speculation candidates.  Progress
#: rates decay with wall time, so eligibility can begin between the
#: event-driven notifications (completions, requeues).
_SPEC_POLL_S = 1.0

#: Shared quiet plan used when the conf carries none, so the fault-free
#: path runs the exact same code as a run under an empty plan.
_NO_FAULTS = FaultPlan()


@dataclass
class StageTiming:
    """Wall-clock windows of one stage's phases."""

    stage: str
    setup_s: float = 0.0
    map_s: float = 0.0
    reduce_s: float = 0.0
    cleanup_s: float = 0.0
    input_bytes: float = 0.0
    output_bytes: float = 0.0
    map_start: float = 0.0
    reduce_start: float = 0.0

    @property
    def total_s(self) -> float:
        return self.setup_s + self.map_s + self.reduce_s + self.cleanup_s


@dataclass
class JobResult:
    """Everything the characterization layer needs from one run."""

    workload: str
    machine: str
    n_nodes: int
    cores_per_node: int
    freq_ghz: float
    block_size_mb: float
    data_per_node_bytes: float
    execution_time_s: float
    phase_seconds: Dict[str, float]
    energy: EnergyBreakdown
    counters: RunCounters
    stages: List[StageTiming] = field(default_factory=list)

    @property
    def dynamic_energy_j(self) -> float:
        """Dynamic energy — the paper's (avg power − idle) × time."""
        return self.energy.dynamic_joules

    @property
    def dynamic_power_w(self) -> float:
        return self.energy.average_dynamic_watts

    @property
    def ipc(self) -> float:
        return self.counters.ipc

    @property
    def wasted_task_seconds(self) -> float:
        """Slot-seconds burnt on attempts the job did not use."""
        return self.counters.wasted_task_seconds

    @property
    def recovery_overhead(self) -> float:
        """Fraction of task slot-seconds lost to failures and kills."""
        return self.counters.wasted_fraction

    def phase_time(self, phase: str) -> float:
        return self.phase_seconds.get(phase, 0.0)

    def phase_energy(self, phase: str) -> float:
        return self.energy.phase_energy(phase)

    def phase_fraction(self, phase: str) -> float:
        """Share of execution time spent in *phase* (Figs. 10/11)."""
        if self.execution_time_s <= 0:
            return 0.0
        return self.phase_time(phase) / self.execution_time_s


@dataclass
class _Attempt:
    """One running execution of a task on a slot."""

    number: int
    process: Process
    node: ServerNode
    task: object
    started_at: float
    speculative: bool = False


@dataclass
class _TaskRec:
    """Scheduler-side state of one logical task across its attempts."""

    task_id: str
    payload: object  # Block for maps, {source: bytes} for reduces
    failures: int = 0
    attempts_launched: int = 0
    done: bool = False
    #: attempt number → running attempt
    running: Dict[int, _Attempt] = field(default_factory=dict)
    #: (result node name, output bytes, slot seconds) of the winning
    #: attempt; revoked if that node later dies during the map phase.
    completion: Optional[Tuple[str, float, float]] = None


class _PhaseRunner:
    """Schedules one phase (the maps or the reduces of one stage).

    Owns the task records, the per-node queues, and the completion log;
    implements claiming (own queue → steal → speculation), retry with
    backoff, and crash recovery.  The stage generator waits on
    :attr:`done_event`, which fires when every task has a winning attempt
    or fails when a task exhausts its attempts.
    """

    def __init__(self, runner: "HadoopJobRunner", stage: JobStage,
                 kind: str):
        self.runner = runner
        self.sim = runner.sim
        self.conf = runner.conf
        self.plan = runner.plan
        self.counters = runner.counters
        self.stage = stage
        self.kind = kind  # "map" | "reduce"
        self.records: Dict[str, _TaskRec] = {}
        self.order: List[str] = []
        self.queues: Dict[str, Deque[str]] = {}
        #: Slots spawned / attempts running per node — the work-stealing
        #: backlog test needs to know how much of a victim's queue its
        #: own free slots are about to absorb.
        self.slots: Dict[str, int] = {}
        self.busy: Dict[str, int] = {}
        self.outstanding = 0
        #: Incremental count of queued task ids across all node queues —
        #: kept in lockstep with every append/pop so backlog sampling is
        #: O(1) instead of a sum over queues on every claim.
        self._queued = 0
        self.done_event = runner.sim.event()
        #: Records in winning-completion order — replayed by the stage to
        #: accumulate outputs in the exact order the old inline
        #: accumulation used (bit-identical float sums on quiet runs).
        self.log: List[_TaskRec] = []
        self._completed_rates: List[float] = []
        self._wakeup = None

    # -- setup ----------------------------------------------------------
    def add_queue(self, node_name: str) -> None:
        self.queues[node_name] = deque()
        self.slots[node_name] = 0
        self.busy[node_name] = 0

    def add_task(self, task_id: str, payload: object, queue: str) -> None:
        rec = _TaskRec(task_id, payload)
        self.records[task_id] = rec
        self.order.append(task_id)
        self.queues[queue].append(task_id)
        self.outstanding += 1
        self._queued += 1
        self._sample_backlog()

    # -- idle-slot coordination -----------------------------------------
    @property
    def finished(self) -> bool:
        return self.outstanding == 0 or self.done_event.triggered

    def wait(self):
        """(event to yield on, poll timeout to cancel afterwards)."""
        sim = self.sim
        wakeup = self._wakeup
        if wakeup is None or wakeup.triggered:
            wakeup = self._wakeup = sim.event()
        if self.conf.speculative_execution:
            poll = sim.timeout(_SPEC_POLL_S)
            return sim.any_of([wakeup, poll]), poll
        return wakeup, None

    def notify(self) -> None:
        if self._wakeup is not None and not self._wakeup.triggered:
            self._wakeup.succeed()

    # -- observability ---------------------------------------------------
    def _sample_backlog(self) -> None:
        """Re-sample the queued-task counter (tracing only).

        Reads the incrementally-maintained ``_queued`` count — this is
        called on every claim and requeue, and summing every node queue
        each time was a measurable slice of large traced runs."""
        obs = self.sim.obs
        if obs is not None:
            obs.counter(f"queue.backlog.{self.kind}", "tasks").set(
                self.sim.now, self._queued)

    def _count_running(self, node: ServerNode, delta: int) -> None:
        obs = self.sim.obs
        if obs is not None:
            now = self.sim.now
            obs.counter("tasks.running", "tasks").add(now, delta)
            obs.counter(f"tasks.running.{node.name}", "tasks").add(now, delta)

    # -- claiming --------------------------------------------------------
    def claim(self, node: ServerNode, process: Process
              ) -> Optional[Tuple[_Attempt, _TaskRec]]:
        """Hand *node*'s idle slot its next attempt, or None."""
        if self.done_event.triggered:
            return None  # phase over (or failed): stop dispatching
        rec, speculative = self._pick(node)
        if rec is None:
            return None
        task = self._build_task(rec, node, speculative)
        att = _Attempt(number=task.attempt, process=process, node=node,
                       task=task, started_at=self.sim.now,
                       speculative=speculative)
        rec.running[task.attempt] = att
        self.busy[node.name] = self.busy.get(node.name, 0) + 1
        self._count_running(node, +1)
        self._sample_backlog()
        return att, rec

    def release_slot(self, node: ServerNode) -> None:
        self.busy[node.name] = self.busy.get(node.name, 1) - 1
        self._count_running(node, -1)

    def _backlog(self, name: str) -> int:
        """Queued tasks at *name* beyond what its own free slots will
        absorb — the only part of a queue an idle remote slot may steal.
        (A dead node has no free slots: its whole queue is backlog.)"""
        q = self.queues[name]
        if not q:
            return 0
        if not self.runner.cluster.node(name).alive:
            return len(q)
        free = self.slots.get(name, 0) - self.busy.get(name, 0)
        return len(q) - max(0, free)

    def _pick(self, node: ServerNode) -> Tuple[Optional[_TaskRec], bool]:
        own = self.queues.get(node.name)
        if own:
            self._queued -= 1
            return self.records[own.popleft()], False
        # Work stealing: an idle slot takes from the tail of the queue
        # with the largest backlog (ties broken by node name), trading
        # locality for parallelism like a slot-hungry Hadoop scheduler
        # that has run out of local work.
        victim: Optional[str] = None
        victim_backlog = 0
        for name in sorted(self.queues):
            if name == node.name:
                continue
            backlog = self._backlog(name)
            if backlog > victim_backlog:
                victim, victim_backlog = name, backlog
        if victim is not None:
            self._queued -= 1
            return self.records[self.queues[victim].pop()], False
        rec = self._speculation_candidate()
        if rec is not None:
            return rec, True
        return None, False

    def _speculation_candidate(self) -> Optional[_TaskRec]:
        """LATE: the running task with the largest estimated time left,
        among tasks progressing ``speculation_slowdown``× slower than the
        mean completed-attempt rate."""
        if not (self.conf.speculative_execution and self._completed_rates):
            return None
        mean_rate = sum(self._completed_rates) / len(self._completed_rates)
        threshold = mean_rate / self.conf.speculation_slowdown
        now = self.sim.now
        best: Optional[_TaskRec] = None
        best_left = 0.0
        for tid in self.order:
            rec = self.records[tid]
            if rec.done or len(rec.running) != 1:
                continue  # queued, already backed up, or finished
            att = next(iter(rec.running.values()))
            elapsed = now - att.started_at
            if elapsed < self.conf.speculation_min_runtime_s:
                continue
            progress = max(att.task.progress, 1e-6)
            rate = progress / elapsed
            if rate > threshold:
                continue
            left = (1.0 - att.task.progress) / rate
            if best is None or left > best_left:
                best, best_left = rec, left
        return best

    def _build_task(self, rec: _TaskRec, node: ServerNode,
                    speculative: bool):
        n = rec.attempts_launched
        rec.attempts_launched += 1
        tid = rec.task_id
        trace_id = tid if n == 0 else f"{tid}.a{n}"
        fails = self.plan.attempt_fails(tid, n)
        kw = dict(attempt=n,
                  time_scale=self.plan.slowdown(tid, n),
                  failure_point=(self.plan.failure_point(tid, n)
                                 if fails else None))
        if self.kind == "map":
            task = MapTask(trace_id, node, self.runner.hdfs, self.stage,
                           self.conf, self.counters, rec.payload, **kw)
            self.counters.map_attempts += 1
        else:
            task = ReduceTask(trace_id, node, self.runner.hdfs, self.stage,
                              self.conf, self.counters,
                              self._live_sources(rec.payload), **kw)
            self.counters.reduce_attempts += 1
        if speculative:
            self.counters.speculative_attempts += 1
            if self.sim.obs is not None:
                self.sim.obs.instant("speculate", ("driver", "scheduler"),
                                     cat="scheduler", task=tid,
                                     attempt=n, node=node.name)
        return task

    def _live_sources(self, sources: Dict[str, float]) -> Dict[str, float]:
        """Remap shuffle shares held by dead nodes onto live ones.

        Approximates Hadoop's fetch-failure → map-re-execution path for
        crashes that land *after* the map phase: the lost partition is
        served by a deterministically chosen survivor instead of
        re-running the map (MODELING.md §8 documents the shortcut).
        With no dead nodes the dict passes through untouched.
        """
        dead = self.runner.cluster.dead_node_names
        if not dead or not dead.intersection(sources):
            return sources
        live = [n.name for n in self.runner.cluster.live_nodes]
        if not live:
            return sources
        out = {k: v for k, v in sources.items() if k not in dead}
        for name in sources:
            if name in dead:
                target = live[zlib.crc32(name.encode()) % len(live)]
                out[target] = out.get(target, 0.0) + sources[name]
        return out

    # -- outcomes --------------------------------------------------------
    def complete(self, rec: _TaskRec, att: _Attempt) -> None:
        """First finisher wins; running duplicates are interrupted."""
        if rec.done or self.done_event.triggered:
            return
        rec.done = True
        duration = self.sim.now - att.started_at
        rec.completion = (att.node.name, att.task.output_bytes, duration)
        self.counters.task_seconds += duration
        self._completed_rates.append(1.0 / duration)
        if att.speculative:
            self.counters.speculative_wins += 1
        # Attempt dicts fill in simulated-event order, which is fixed
        # under a seed; interrupt delivery must follow that order, not
        # an alphabetical one (audited for PR 5, see docs/LINTING.md).
        for loser in list(rec.running.values()):
            loser.process.interrupt("lost the speculation race")
        self.log.append(rec)
        self.outstanding -= 1
        if self.outstanding == 0:
            self.done_event.succeed()
        self.notify()

    def attempt_failed(self, rec: _TaskRec, exc: TaskAttemptError) -> None:
        rec.failures += 1
        if self.sim.obs is not None:
            self.sim.obs.instant("retry", ("driver", "scheduler"),
                                 cat="fault", task=rec.task_id,
                                 failures=rec.failures)
        if rec.failures >= self.conf.max_attempts:
            if not self.done_event.triggered:
                err = RuntimeError(
                    f"task {rec.task_id} failed "
                    f"{rec.failures}/{self.conf.max_attempts} attempts")
                err.__cause__ = exc
                self.done_event.fail(err)
                self.notify()
            return
        delay = self.conf.retry_backoff_s * rec.failures
        if delay > 0:
            self.sim.process(self._requeue_later(rec, delay))
        else:
            self._requeue(rec)

    def _requeue_later(self, rec: _TaskRec, delay: float):
        yield self.sim.timeout(delay)
        if not self.done_event.triggered:
            self._requeue(rec)

    def _requeue(self, rec: _TaskRec) -> None:
        """Re-enqueue onto the least-loaded live queue (ties: name order)."""
        live = [name for name in sorted(self.queues)
                if self.runner.cluster.node(name).alive]
        if not live:
            if not self.done_event.triggered:
                self.done_event.fail(SimulationError(
                    f"no live node left to run task {rec.task_id}"))
                self.notify()
            return
        target = min(live, key=lambda name: len(self.queues[name]))
        self.queues[target].append(rec.task_id)
        self._queued += 1
        self._sample_backlog()
        self.notify()

    # -- crash recovery ---------------------------------------------------
    def handle_crash(self, node: ServerNode) -> None:
        """A node died mid-phase: reassign its work to the survivors."""
        name = node.name
        queued = self.queues.get(name)
        moved = list(queued) if queued else []
        if queued:
            self._queued -= len(queued)
            queued.clear()
        for tid in moved:
            self._requeue(self.records[tid])
        for tid in self.order:
            rec = self.records[tid]
            if rec.done:
                continue
            dead_atts = [a for a in rec.running.values() if a.node is node]
            for att in dead_atts:
                rec.running.pop(att.number, None)
                att.process.interrupt("node crash")
            if dead_atts and not rec.running:
                self._requeue(rec)
        if self.kind == "map":
            # Map output lives on the mapper's local disk; losing the
            # node loses it, so the task must be re-executed elsewhere
            # (Hadoop re-schedules completed maps of a lost TaskTracker).
            for tid in self.order:
                rec = self.records[tid]
                if rec.done and rec.completion and rec.completion[0] == name:
                    rec.done = False
                    self.counters.lost_map_outputs += 1
                    if self.sim.obs is not None:
                        self.sim.obs.instant(
                            "lost-map-output", ("driver", "scheduler"),
                            cat="fault", task=rec.task_id, node=name)
                    self.counters.wasted_task_seconds += rec.completion[2]
                    self.counters.task_seconds -= rec.completion[2]
                    rec.completion = None
                    self.log.remove(rec)
                    self.outstanding += 1
                    self._requeue(rec)
        self._sample_backlog()


class HadoopJobRunner:
    """Runs one application (possibly multiple chained MR jobs)."""

    def __init__(self, cluster: Cluster, spec: WorkloadSpec, conf: JobConf,
                 data_per_node_bytes: float,
                 map_slots_per_node: Optional[int] = None,
                 reduce_slots_per_node: Optional[int] = None,
                 map_machines: Optional[Sequence[str]] = None,
                 reduce_machines: Optional[Sequence[str]] = None,
                 slot_plan: Optional[Dict[str, int]] = None):
        """*map_machines* / *reduce_machines* restrict which machine
        types (spec names, e.g. ``{"atom"}``) may host tasks of each
        phase — the phase-aware heterogeneous scheduling the paper's
        map/reduce characterization motivates (§3.2.2/§3.3).  ``None``
        allows every node.

        *slot_plan* is a per-node slot lease (node name → slots a
        cluster-level scheduler granted this job; see
        :meth:`repro.cluster.scheduler.SlotLease.slot_plan`).  It caps
        both phases' worker count on each node below the global
        ``map_slots_per_node``/``reduce_slots_per_node`` defaults; a
        plan leasing every node all its cores is byte-identical to no
        plan at all, so exclusive whole-node leases cost nothing."""
        if data_per_node_bytes <= 0:
            raise ValueError("data size must be positive")
        self.cluster = cluster
        self._map_machines = set(map_machines) if map_machines else None
        self._reduce_machines = (set(reduce_machines) if reduce_machines
                                 else None)
        for names, role in ((self._map_machines, "map"),
                            (self._reduce_machines, "reduce")):
            if names is not None:
                available = {n.spec.name for n in cluster.nodes}
                if not names & available:
                    raise ValueError(
                        f"no {role} nodes of type {sorted(names)} in the "
                        f"cluster (available: {sorted(available)})")
        self.sim: Simulator = cluster.sim
        self.spec = spec
        self.conf = conf
        self.data_per_node_bytes = data_per_node_bytes
        dram = min(n.spec.dram_bytes for n in cluster.nodes)
        cache_hit = min(0.75, 0.75 * dram / max(1.0, data_per_node_bytes * 2))
        self.hdfs = HDFS(cluster, conf.block_size_bytes,
                         replication=conf.replication,
                         page_cache_hit=cache_hit)
        self.counters = RunCounters()
        self.stage_timings: List[StageTiming] = []
        self._map_slots = map_slots_per_node
        self._reduce_slots = reduce_slots_per_node
        self._slot_plan = dict(slot_plan) if slot_plan else None
        if self._slot_plan is not None:
            names = {n.name for n in cluster.nodes}
            for node_name, slots in self._slot_plan.items():
                if node_name not in names:
                    raise ValueError(
                        f"slot plan names unknown node {node_name!r}; "
                        f"cluster has {sorted(names)}")
                if slots < 1:
                    raise ValueError(
                        f"slot plan leases {slots} slots on {node_name}; "
                        f"a leased node needs at least one")
        self.plan: FaultPlan = (conf.fault_plan if conf.fault_plan is not None
                                else _NO_FAULTS)
        self._active_phase: Optional[_PhaseRunner] = None
        self._watch_timeouts: List[Timeout] = []
        self._apply_degradations()

    def _apply_degradations(self) -> None:
        """Fold the plan's disk/compute degradation into the nodes."""
        for nf in self.plan.node_faults:
            try:
                node = self.cluster.node(nf.node)
            except KeyError:
                raise ValueError(
                    f"fault plan names unknown node {nf.node!r}; cluster "
                    f"has {[n.name for n in self.cluster.nodes]}") from None
            if nf.disk_slowdown != 1.0:
                node.disk.bandwidth /= nf.disk_slowdown
            if nf.compute_slowdown != 1.0:
                node.compute_scale *= nf.compute_slowdown

    # -- helpers -----------------------------------------------------------
    def _master(self) -> ServerNode:
        """Job-level framework work runs on the first live node."""
        live = self.cluster.live_nodes
        return live[0] if live else self.cluster.nodes[0]

    def _framework(self, node: ServerNode, instructions: float, kind: str):
        """Run framework code on *node* (job setup/cleanup, 'other' phase)."""
        perf = node.core_perf(FRAMEWORK_PROFILE)
        seconds = perf.seconds_for(instructions)
        start = self.sim.now
        yield self.sim.timeout(seconds)
        self.cluster.trace.add(start, self.sim.now, node.name, "fw", kind,
                               activity=1.0, phase="other")
        self.counters.charge(instructions, seconds * node.freq_hz)

    # -- slot workers ------------------------------------------------------
    def _slot_worker(self, phase: _PhaseRunner, node: ServerNode,
                     holder: List[Process], slot: int):
        """One task slot: claim → run attempt → report, until the phase
        ends.  Interrupts (speculation losses, node crashes) and injected
        attempt failures are absorbed here; the slot keeps serving."""
        proc = holder[0]
        # The loop body runs once per task attempt across the whole job;
        # hoist every per-iteration-constant lookup out of it.
        sim = self.sim
        timeout = sim.timeout
        heartbeat = self.conf.heartbeat_s
        counters = self.counters
        claim = phase.claim
        while True:
            if not node.alive:
                return
            claimed = claim(node, proc)
            if claimed is None:
                if phase.finished:
                    return
                event, poll = phase.wait()
                try:
                    yield event
                finally:
                    if poll is not None:
                        poll.cancel()
                continue
            att, rec = claimed
            obs = sim.obs
            span = None
            if obs is not None:
                span = obs.begin(
                    f"{phase.kind} {att.task.task_id}",
                    (node.name, f"slot{slot}"), cat=phase.kind,
                    task=att.task.task_id, attempt=att.number,
                    speculative=att.speculative)
            try:
                if heartbeat > 0:
                    yield timeout(heartbeat)
                yield from att.task.run()
            except Interrupt:
                rec.running.pop(att.number, None)
                phase.release_slot(node)
                counters.killed_attempts += 1
                counters.wasted_task_seconds += sim.now - att.started_at
                if span is not None:
                    obs.end(span, status="killed")
                continue
            except TaskAttemptError as exc:
                rec.running.pop(att.number, None)
                phase.release_slot(node)
                counters.failed_attempts += 1
                counters.wasted_task_seconds += sim.now - att.started_at
                if span is not None:
                    obs.end(span, status="failed")
                phase.attempt_failed(rec, exc)
                continue
            rec.running.pop(att.number, None)
            phase.release_slot(node)
            if span is not None:
                obs.end(span, status="ok")
            phase.complete(rec, att)

    def _spawn_workers(self, phase: _PhaseRunner, nodes: Sequence[ServerNode],
                       slots_override: Optional[int],
                       conf_slots: Optional[int]) -> None:
        for node in nodes:
            slots = min(slots_override or conf_slots or node.n_cores,
                        node.n_cores)
            if self._slot_plan is not None:
                # A leased node runs at most its leased slot count; the
                # global per-phase setting stays an upper bound.
                leased = self._slot_plan.get(node.name, node.n_cores)
                slots = min(slots, leased)
            phase.slots[node.name] = slots
            for slot in range(slots):
                holder: List[Process] = []
                holder.append(self.sim.process(
                    self._slot_worker(phase, node, holder, slot)))

    def _write_output(self, file: str, nbytes: float, node: ServerNode,
                      stage: JobStage):
        """One node's share of a map-only stage's replicated output.

        A process of its own, so the write (and its block placement)
        starts when the process boots.
        """
        yield self.hdfs.write(file, nbytes, node, phase="map",
                              io_factor=stage.io_path_factor,
                              replication=stage.output_replication)

    # -- crash watchers ----------------------------------------------------
    def _crash_watcher(self, node: ServerNode, at: float):
        t = self.sim.timeout(at)
        self._watch_timeouts.append(t)
        yield t
        if not node.alive:
            return
        if len(self.cluster.live_nodes) <= 1:
            return  # never kill the last survivor: the job must finish
        node.fail()
        self.counters.node_crashes += 1
        self.cluster.trace.mark(self.sim.now, f"crash:{node.name}")
        if self.sim.obs is not None:
            self.sim.obs.instant(f"crash {node.name}", ("driver", "faults"),
                                 cat="fault", node=node.name)
        if self._active_phase is not None:
            self._active_phase.handle_crash(node)

    def _retire_watchers(self, _event) -> None:
        """Cancel pending crash timeouts once the job finishes, so
        recovery scaffolding never inflates the measured makespan."""
        for t in self._watch_timeouts:
            t.cancel()

    # -- stage execution ------------------------------------------------------
    def _run_stage(self, stage: JobStage, stage_index: int,
                   input_bytes: float):
        """Process generator executing one MR job; returns output bytes."""
        timing = StageTiming(stage=stage.name, input_bytes=input_bytes)
        self.stage_timings.append(timing)
        obs = self.sim.obs
        # Work counters: one bump per completed stage window.  Captured
        # once per stage; None keeps every site a single ``is not None``
        # test.
        profiler = prof.ACTIVE

        # Job setup ("others" in the breakdown figures).
        t0 = self.sim.now
        setup_span = (obs.begin(f"{stage.name}.setup", ("driver", "stages"),
                                cat="stage") if obs is not None else None)
        yield from self._framework(self._master(),
                                   self.conf.job_setup_instructions,
                                   f"{stage.name}.setup")
        timing.setup_s = self.sim.now - t0
        if setup_span is not None:
            obs.end(setup_span)
        if profiler is not None:
            profiler.count("driver.stage.setup.calls")

        # Input placement: instantaneous, mirrors pre-staged datasets.
        file = f"{self.spec.name}.s{stage_index}.in"
        blocks = self.hdfs.load_input(file, input_bytes)

        # Map phase: blocks queue at their primary replica's node when
        # that node may host maps; otherwise they round-robin over the
        # eligible nodes (phase-aware placement trades locality for the
        # preferred core type, paying the remote-read cost).
        t_map = self.sim.now
        timing.map_start = t_map
        map_nodes = [n for n in self.cluster.live_nodes
                     if self._map_machines is None
                     or n.spec.name in self._map_machines]
        if not map_nodes:
            raise SimulationError("no live node eligible for map tasks")
        eligible = {n.name for n in map_nodes}
        mphase = _PhaseRunner(self, stage, "map")
        for node in map_nodes:
            mphase.add_queue(node.name)
        spill = 0
        for block in blocks:
            primary = block.replicas[0] if block.replicas else (
                map_nodes[0].name)
            if primary not in eligible:
                primary = map_nodes[spill % len(map_nodes)].name
                spill += 1
            mphase.add_task(f"s{stage_index}.m{block.index}", block, primary)
        self._spawn_workers(mphase, map_nodes, self._map_slots,
                            self.conf.map_slots_per_node)
        map_span = (obs.begin(f"{stage.name}.map", ("driver", "stages"),
                              cat="stage", tasks=len(mphase.order),
                              slots=sum(mphase.slots.values()))
                    if obs is not None else None)
        self._active_phase = mphase
        try:
            yield mphase.done_event
        finally:
            self._active_phase = None
        timing.map_s = self.sim.now - t_map
        if map_span is not None:
            obs.end(map_span)
        if profiler is not None:
            profiler.count("driver.stage.map.calls")

        # Replay the completion log in winning order so the float
        # accumulation matches the old inline bookkeeping bit for bit.
        map_out: Dict[str, float] = {}
        for rec in mphase.log:
            name, nbytes, _dur = rec.completion
            map_out[name] = map_out.get(name, 0.0) + nbytes

        # Reduce phase.
        total_map_out = sum(map_out.values())
        if stage.has_reduce and total_map_out > 0:
            t_red = self.sim.now
            timing.reduce_start = t_red
            # Reducer count is provisioned with the container capacity
            # (YARN sizes the reduce wave to the cluster): the workload's
            # reduces_per_node is calibrated for the default four slots.
            reduce_nodes = [n for n in self.cluster.live_nodes
                            if self._reduce_machines is None
                            or n.spec.name in self._reduce_machines]
            if not reduce_nodes:
                raise SimulationError(
                    "no live node eligible for reduce tasks")
            node0 = reduce_nodes[0]
            slots0 = min(self._map_slots or self.conf.map_slots_per_node
                         or node0.n_cores, node0.n_cores)
            n_red = max(1, round(stage.reduces_per_node
                                 * len(reduce_nodes) * slots0 / 4.0))
            share = {name: nbytes / n_red for name, nbytes in map_out.items()}
            rphase = _PhaseRunner(self, stage, "reduce")
            for node in reduce_nodes:
                rphase.add_queue(node.name)
            for r in range(n_red):
                node = reduce_nodes[r % len(reduce_nodes)]
                rphase.add_task(f"s{stage_index}.r{r}", share, node.name)
            self._spawn_workers(rphase, reduce_nodes, self._reduce_slots,
                                self.conf.reduce_slots_per_node)
            red_span = (obs.begin(f"{stage.name}.reduce",
                                  ("driver", "stages"), cat="stage",
                                  tasks=len(rphase.order),
                                  slots=sum(rphase.slots.values()))
                        if obs is not None else None)
            self._active_phase = rphase
            try:
                yield rphase.done_event
            finally:
                self._active_phase = None
            timing.reduce_s = self.sim.now - t_red
            if red_span is not None:
                obs.end(red_span)
            if profiler is not None:
                profiler.count("driver.stage.reduce.calls")
            stage_output = 0.0
            for rec in rphase.log:
                stage_output += rec.completion[1]
        else:
            # Map-only stage (the paper's Sort): map output is the job
            # output and goes to HDFS with full replication — the fan-out
            # below is the dominant extra I/O of such jobs.
            if total_map_out > 0:
                t_rep = self.sim.now
                rep_procs = []
                for node in self.cluster.nodes:
                    if not node.alive:
                        continue
                    nbytes = map_out.get(node.name, 0.0)
                    if nbytes > 0:
                        rep_procs.append(self.sim.process(self._write_output(
                            f"{file}.out", nbytes, node, stage)))
                if rep_procs:
                    yield self.sim.all_of(rep_procs)
                timing.map_s += self.sim.now - t_rep
            stage_output = total_map_out

        # Job cleanup.
        t1 = self.sim.now
        cleanup_span = (obs.begin(f"{stage.name}.cleanup",
                                  ("driver", "stages"), cat="stage")
                        if obs is not None else None)
        yield from self._framework(self._master(),
                                   self.conf.job_cleanup_instructions,
                                   f"{stage.name}.cleanup")
        timing.cleanup_s = self.sim.now - t1
        if cleanup_span is not None:
            obs.end(cleanup_span)
        if profiler is not None:
            profiler.count("driver.stage.cleanup.calls")
        timing.output_bytes = stage_output
        return stage_output

    def _record_uncore(self, makespan: float) -> None:
        """Charge the per-node uncore/DRAM job-active floor.

        Map and reduce windows come from the stage timings; "other" is
        the complement of their merged union within ``[0, makespan]``
        (setup, cleanup, inter-stage gaps), so windows never overlap and
        every simulated second is charged exactly once per node.  A
        crashed node stops drawing power at its failure time.
        """
        windows = []
        for t in self.stage_timings:
            if t.map_s > 0:
                windows.append((t.map_start, t.map_start + t.map_s, "map"))
            if t.reduce_s > 0:
                windows.append((t.reduce_start,
                                t.reduce_start + t.reduce_s, "reduce"))
        for start, end in complement([(s, e) for s, e, _ in windows],
                                     0.0, makespan):
            windows.append((start, end, "other"))
        for node in self.cluster.nodes:
            limit = (node.failed_at if node.failed_at is not None
                     else makespan)
            for start, end, phase in windows:
                end = min(end, limit)
                if end > start:
                    self.cluster.trace.add(start, end, node.name, "uncore",
                                           "job.active", activity=1.0,
                                           phase=phase)

    def _run_job(self):
        original = self.data_per_node_bytes * len(self.cluster.nodes)
        previous = original
        for index, stage in enumerate(self.spec.stages):
            source = original if stage.input_source == "original" else previous
            stage_input = max(1.0, source * stage.input_fraction)
            previous = yield from self._run_stage(stage, index, stage_input)
        return previous

    # -- public ---------------------------------------------------------------
    def run(self) -> JobResult:
        for nf in self.plan.node_faults:
            if nf.crash_at_s is not None:
                self.sim.process(self._crash_watcher(
                    self.cluster.node(nf.node), nf.crash_at_s))
        done = self.sim.process(self._run_job())
        # Registering a callback makes the process *store* a failure
        # instead of re-raising it inside the event loop, so run() can
        # re-raise below with the root cause chained on.
        done.add_callback(self._retire_watchers)
        self.sim.run()
        if not done.ok:
            raise RuntimeError("job process failed") from done.exception
        execution_time = self.sim.now
        self._record_uncore(execution_time)
        energy = integrate_energy(self.cluster.trace,
                                  self.cluster.node_power(),
                                  makespan=execution_time)
        obs = self.sim.obs
        if obs is not None:
            from ..obs.spans import JobTrace, NodeInfo
            engine_stats = {"events_dispatched": float(self.sim.event_count)}
            engine_stats.update({k: v for k, v in obs.meta.items()
                                 if k.startswith("engine.")})
            obs.job = JobTrace(
                workload=self.spec.name,
                machine=self.cluster.nodes[0].spec.name,
                makespan=execution_time,
                intervals=self.cluster.trace.intervals,
                marks=list(self.cluster.trace.marks),
                nodes=[NodeInfo(n.name, n.spec.name, n.n_cores, n.failed_at)
                       for n in self.cluster.nodes],
                node_power=self.cluster.node_power(),
                stages=list(self.stage_timings),
                counters=self.counters,
                energy=energy,
                engine=engine_stats)
        profiler = prof.ACTIVE
        if profiler is not None:
            profiler.count("driver.run.calls")
        phase_seconds = {
            "map": sum(t.map_s for t in self.stage_timings),
            "reduce": sum(t.reduce_s for t in self.stage_timings),
        }
        phase_seconds["other"] = max(
            0.0, execution_time - phase_seconds["map"] - phase_seconds["reduce"])
        node0 = self.cluster.nodes[0]
        return JobResult(
            workload=self.spec.name,
            machine=node0.spec.name,
            n_nodes=len(self.cluster.nodes),
            cores_per_node=node0.n_cores,
            freq_ghz=node0.freq_ghz,
            block_size_mb=self.conf.block_size_mb,
            data_per_node_bytes=self.data_per_node_bytes,
            execution_time_s=execution_time,
            phase_seconds=phase_seconds,
            energy=energy,
            counters=self.counters,
            stages=self.stage_timings,
        )


def simulate_job(machine_spec: Union[str, MachineSpec],
                 workload_spec: Union[str, WorkloadSpec], *,
                 n_nodes: int = 3,
                 freq_ghz: float = 1.8,
                 block_size_mb: Optional[float] = None,
                 data_per_node_gb: float = 1.0,
                 cores_per_node: Optional[int] = None,
                 conf: JobConf = DEFAULT_CONF,
                 map_slots_per_node: Optional[int] = None,
                 reduce_slots_per_node: Optional[int] = None,
                 fault_plan: Optional[FaultPlan] = None,
                 obs: Optional[object] = None,
                 slot_plan: Optional[Dict[str, int]] = None) -> JobResult:
    """Run one Hadoop application on a fresh homogeneous cluster.

    This is the reproduction's workhorse: every figure and table runs
    through it (directly or via the sweep harness).

    Args:
        machine_spec: ``"atom"`` / ``"xeon"`` or a :class:`MachineSpec`.
        workload_spec: registered workload name or a :class:`WorkloadSpec`.
        n_nodes: cluster size (the paper uses 3).
        freq_ghz: core frequency operating point.
        block_size_mb: HDFS block size; defaults to ``conf``'s value.
        data_per_node_gb: input data per node (the paper's 1/10/20 GB).
        cores_per_node: active cores per node (Table 3's M sweep);
            defaults to the machine's full core count.
        conf: base job configuration.
        map_slots_per_node / reduce_slots_per_node: slot overrides;
            default to the active core count (mappers = cores, §3.5).
        fault_plan: injected failures; overrides ``conf.fault_plan``.
        obs: optional :class:`repro.obs.Tracer`; when given it is
            attached to the fresh simulator (its clock becomes simulated
            time) and, on completion, carries the run's
            :class:`~repro.obs.JobTrace`.  ``None`` (the default)
            records nothing and changes nothing.
        slot_plan: per-node slot lease (node name → leased slots) from
            a cluster-level scheduler; see :class:`HadoopJobRunner`.
    """
    mspec = machine(machine_spec) if isinstance(machine_spec, str) else machine_spec
    wspec = workload(workload_spec) if isinstance(workload_spec, str) else workload_spec
    if block_size_mb is not None:
        conf = conf.with_block_size_mb(block_size_mb)
    if fault_plan is not None:
        conf = conf.override(fault_plan=fault_plan)
    sim = Simulator()
    if obs is not None:
        obs.attach(sim)
    cluster = Cluster.homogeneous(sim, mspec, n_nodes, freq_ghz,
                                  cores_per_node=cores_per_node)
    runner = HadoopJobRunner(cluster, wspec, conf,
                             data_per_node_gb * GB,
                             map_slots_per_node=map_slots_per_node,
                             reduce_slots_per_node=reduce_slots_per_node,
                             slot_plan=slot_plan)
    return runner.run()
