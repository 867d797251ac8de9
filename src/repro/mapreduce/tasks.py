"""Map and reduce task models.

Each task attempt moves real byte counts through the cluster's
disk/NIC resources and charges CPU time through the analytical core
model.  Its body is a plain generator of steps, run by callbacks
(:class:`_Attempt`); the slot process that launched it waits once, for
the whole attempt.  The attempt is also the join of its own transfers
(the join protocol of ``hdfs/filesystem.py``): the body starts each
transfer with the attempt as its join, and the transfer's last leg
posts the attempt to bill it.  A map task reads its block chunk by
chunk over one resident HDFS reader (``hdfs/filesystem.py``), whose
legs are built once and re-posted for every chunk, and yields one
prebuilt step for all its full chunks.  The central mechanism is the
*overlap credit* of the read/compute pipeline: per transfer the task
pays

    t_disk + max(0, t_cpu − io_overlap · t_disk)

where ``io_overlap`` is a property of the core (§DESIGN.md note 2): a big
OoO core with aggressive read-ahead hides most I/O behind compute and is
effectively disk-bound on I/O-heavy jobs, while the little core's
CPU-coupled I/O path makes it compute-bound on the same jobs — the
mechanism behind the paper's 15.4× Sort gap and Atom's higher frequency
sensitivity (§3.1.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Generator, Optional

from ..arch.cores import CpuProfile, scale_profile
from ..arch.presets import FRAMEWORK_PROFILE
from ..cluster.server import ServerNode
from ..hdfs.blocks import Block
from ..hdfs.filesystem import HDFS, Join
from ..obs import prof
from ..sim.engine import SimulationError
from ..workloads.base import IO_PATH_PROFILE, JobStage
from .config import JobConf
from .shuffle import plan_reduce_merge, plan_spills


__all__ = ["RunCounters", "MapTask", "ReduceTask", "TaskAttemptError"]

#: Residual core activity while a task sits in an I/O wait (OS + polling).
_WAIT_ACTIVITY = 0.06

#: Partition size at which a reduce profile's working set is 1x.
_REDUCE_WS_REF_BYTES = 128 * 1024 * 1024

#: Spills and merges move already-serialized bytes on the local disk and
#: skip HDFS checksumming, so they exert far less pressure on the
#: CPU-coupled I/O path than HDFS reads/writes of the same size.
_SPILL_IO_FACTOR = 0.4

#: Trace kinds of the wait and compute intervals of each overlapped
#: transfer kind, built once rather than per chunk.
_IO_KINDS = {kind: (kind + ".iowait", kind + ".compute") for kind in (
    "map.read", "map.spill", "map.merge", "shuffle", "reduce.spill",
    "reduce.merge", "reduce.write")}


class TaskAttemptError(RuntimeError):
    """An injected task-attempt failure (the attempt, not the job).

    Raised from a task's body when the attempt crosses its fault-plan
    failure point, it reaches the slot process out of ``run()``; the
    driver catches it and retries the task up to
    ``JobConf.max_attempts`` times.
    """

    def __init__(self, task_id: str, attempt: int, progress: float):
        super().__init__(
            f"attempt {attempt} of task {task_id} failed at "
            f"{progress:.0%} progress")
        self.task_id = task_id
        self.attempt = attempt
        self.progress = progress


@dataclass
class RunCounters:
    """Whole-run accounting used for IPC and data-flow reporting.

    ``map_tasks``/``reduce_tasks`` count *successful* task executions
    (a map re-executed after its output died with a node counts twice,
    mirroring Hadoop's relaunch counters).  The attempt-level fields are
    maintained by the driver and stay zero on fault-free runs.
    """

    instructions: float = 0.0
    cycles: float = 0.0
    map_tasks: int = 0
    reduce_tasks: int = 0
    input_bytes: float = 0.0
    map_output_bytes: float = 0.0
    spill_bytes: float = 0.0
    shuffle_bytes: float = 0.0
    output_bytes: float = 0.0
    spills: int = 0
    # -- fault/recovery accounting (driver-maintained) ------------------
    map_attempts: int = 0
    reduce_attempts: int = 0
    failed_attempts: int = 0
    killed_attempts: int = 0
    speculative_attempts: int = 0
    speculative_wins: int = 0
    node_crashes: int = 0
    lost_map_outputs: int = 0
    #: Slot-seconds burnt by attempts that did not produce the winning
    #: result (failed, killed, or lost to a crash) — the recovery
    #: overhead the fault sweep charges against EDP.
    wasted_task_seconds: float = 0.0
    #: Slot-seconds of the attempts whose results the job actually used.
    task_seconds: float = 0.0

    @property
    def wasted_fraction(self) -> float:
        """Share of all task slot-seconds burnt on non-winning attempts."""
        total = self.wasted_task_seconds + self.task_seconds
        return self.wasted_task_seconds / total if total > 0 else 0.0

    @property
    def ipc(self) -> float:
        """Aggregate instructions per cycle across all cores and tasks."""
        return self.instructions / self.cycles if self.cycles else 0.0

    def charge(self, instructions: float, cycles: float) -> None:
        if not (0.0 <= instructions < math.inf and 0.0 <= cycles < math.inf):
            raise ValueError("counters only accumulate non-negative, finite "
                             "work")
        self.instructions += instructions
        self.cycles += cycles


class _TaskBase:
    """Shared machinery: compute charging and disk I/O with overlap credit."""

    phase = "other"

    def __init__(self, task_id: str, node: ServerNode, hdfs: HDFS,
                 stage: JobStage, conf: JobConf, counters: RunCounters,
                 *, attempt: int = 0, time_scale: float = 1.0,
                 failure_point: Optional[float] = None):
        if time_scale < 1.0:
            raise ValueError("time_scale must be >= 1")
        self.task_id = task_id
        self.node = node
        self.hdfs = hdfs
        self.stage = stage
        self.conf = conf
        self.counters = counters
        self.sim = node.sim
        self.trace = hdfs.cluster.trace
        #: Which retry of the task this execution is (0 = first try).
        self.attempt = attempt
        #: Straggler factor (fault plan) — every compute second stretches
        #: by this much.
        self.time_scale = time_scale
        #: Combined slowdown on compute time for this attempt: the
        #: straggler factor times the node's own ``compute_scale``, which
        #: the driver degrades before it builds any task.
        self.slowdown = time_scale * node.compute_scale
        #: Progress fraction at which this attempt dies with
        #: :class:`TaskAttemptError` (None = attempt succeeds).
        self.failure_point = failure_point
        #: Coarse progress fraction in [0, 1], updated at milestone
        #: granularity — what the speculative scheduler reads.
        self.progress = 0.0

    def _progress_to(self, p: float) -> None:
        """Advance the progress estimate, dying at the failure point.

        The failure fires when progress *crosses* the threshold, so the
        attempt has already burnt the simulated time and energy up to
        that milestone — wasted work the recovery accounting picks up.
        """
        crossed = (self.failure_point is not None
                   and self.progress < self.failure_point <= p)
        self.progress = p
        if crossed:
            raise TaskAttemptError(self.task_id, self.attempt, p)

    # -- CPU ------------------------------------------------------------
    def _compute(self, profile: CpuProfile, instructions: float, kind: str,
                 device: str = "core") -> Optional[tuple]:
        """The step that charges pure CPU time for *instructions* of
        *profile* code, or None (no step) for no instructions."""
        if instructions <= 0:
            return None
        perf = self.node.core_perf(profile)
        seconds = perf.seconds_for(instructions) * self.slowdown
        # The runner posts in place, so the step's delay is checked here.
        if not 0.0 <= seconds < math.inf:
            raise SimulationError(f"compute time is negative, infinite or "
                                  f"NaN: {seconds!r}")
        return (seconds, kind, 1.0 if device == "fw" else perf.activity,
                device, instructions)

    def _price_io(self, nbytes: float, user_ipb: float,
                  user_profile: Optional[CpuProfile]):
        """``(instructions, cpu_seconds, blended_activity)`` to process
        *nbytes*: the framework I/O path (checksum/deserialize, scaled
        by the core's ``io_path_overhead``) plus optional user code."""
        core = self.node.spec.core
        io_instr = nbytes * self.stage.io_ipb * core.io_path_overhead
        io_perf = self.node.core_perf(IO_PATH_PROFILE)
        t_io = io_perf.seconds_for(io_instr)
        instr = io_instr
        t_cpu = t_io
        act_weight = t_io * io_perf.activity
        if user_ipb > 0 and user_profile is not None:
            user_instr = nbytes * user_ipb
            user_perf = self.node.core_perf(user_profile)
            t_user = user_perf.seconds_for(user_instr)
            instr += user_instr
            t_cpu += t_user
            act_weight += t_user * user_perf.activity
        activity = act_weight / t_cpu if t_cpu > 0 else 0.0
        return instr, t_cpu, activity

    def _startup(self) -> Optional[tuple]:
        """Task launch overhead (JVM spawn, localization, reporting)."""
        return self._compute(FRAMEWORK_PROFILE,
                             self.conf.task_startup_instructions,
                             f"{self.phase}.startup", device="fw")

    def _steps(self, join: Join) -> Generator:
        """The attempt's body: yields its steps one at a time, starting
        each transfer with *join* as its join."""
        raise NotImplementedError

    def run(self) -> Generator:
        """The attempt, as a process step: it waits once, for its runner."""
        yield _Attempt(self).done
        return self.output_bytes


class _Attempt(Join):
    """A task attempt's steps, run by callbacks; the join of its transfers.

    The task's body (:meth:`_TaskBase._steps`) is a plain generator.  It
    yields one step at a time: a compute ``(seconds, kind, activity,
    device, instructions)``, None for a compute of no instructions
    (skipped), or a transfer ``(kind, nbytes, user_ipb, user_profile)``
    that it has just started with the attempt as its join.  The
    transfer's last leg posts the attempt where the transfer's join
    fires, and :meth:`joined` records the wait interval and applies the
    overlap credit: the CPU bill of the bytes hides behind the transfer
    up to the core's ``io_overlap``, and the residual compute still
    runs.  The runner posts itself in place for a residual or a compute
    (fault plans keep slowdowns finite, and :meth:`_TaskBase._compute`
    checks its delay), records the interval, charges the counters and
    asks the body for its next step.  These are the calendar positions,
    in the order, that a process yielding an event per transfer and a
    timeout per compute would take.

    What stays fixed for the attempt is read once: the node's clock,
    the compute slowdown, the core's overlap and the fold handles of
    the node's core in the task's phase (``sim/trace.py``), so a record
    finds its sums by device and activity.  The last transfer step is
    kept with what it costs: its CPU bill, the scaled CPU time, its
    cycles, its two interval kinds and the residual's fold handle.  A
    map attempt yields one step tuple for all its full chunks, so these
    are derived again only when the step changes, and the node's
    ``io_bills`` is asked only then.

    The runner finds the task's process as ``Simulator.active_process``
    and resumes it synchronously, once, through :attr:`done`: when the
    body ends, or with the :class:`TaskAttemptError` it raised.  Once
    the process stops waiting on :attr:`done` (an interrupt), the next
    callback drops the body and every callback does nothing, so no
    further step starts.  The body's frame is the one thing that refers
    back to the attempt, and it goes when the body ends or is dropped,
    so a finished attempt is in no reference cycle.
    """

    __slots__ = ("task", "process", "done", "_next", "transfer", "t0",
                 "kind", "fold", "instr", "cycles", "freq_hz", "slowdown",
                 "overlap", "core", "last", "io_instr", "io_cpu", "io_act",
                 "io_cycles", "io_fold", "wait_kind", "compute_kind")

    def __init__(self, task: _TaskBase):
        sim = self.sim = task.sim
        self.process = sim.active_process
        if self.process is None:
            raise SimulationError("a task attempt must run inside a process")
        self.callbacks = None
        self.legs = 0
        self.task = task
        node = task.node
        self.freq_hz = node.freq_hz
        self.slowdown = task.slowdown
        self.overlap = node.spec.core.io_overlap
        self.core = task.trace.fold_handles(node.name, "core", task.phase)
        self.last = None
        self.done = sim.event()
        self._next = task._steps(self).__next__
        self._step()

    def _step(self) -> None:
        """Run the body to its next step and start that step."""
        try:
            step = self._next()
            while step is None:
                step = self._next()
        except StopIteration:
            self.done.fire()
            return
        except TaskAttemptError as exc:
            self.done.fire(exc)
            return
        sim = self.sim
        self.t0 = now = sim.now
        if step[0].__class__ is float:
            seconds, self.kind, activity, device, self.instr = step
            if device == "core":
                self.fold = self.core[activity]
            else:
                task = self.task
                self.fold = task.trace.fold_handles(
                    task.node.name, device, task.phase)[activity]
            self.cycles = seconds * self.freq_hz
            profiler = prof.ACTIVE
            if profiler is not None:
                profiler.count("engine.compute_posts")
            self.callbacks = self._computed
            sim.calendar[now + seconds].append(self)
        else:
            self.transfer = step

    def _bill(self, step: tuple) -> None:
        """Keep what transfer *step* costs, for as long as it is the
        last step.

        The CPU bill depends only on the node, the stage's ``io_ipb``
        and the step, so it is priced once per distinct value
        (:meth:`_TaskBase._price_io`) and kept in the node's
        ``io_bills``; the attempt's slowdown is applied here.
        """
        task = self.task
        kind, nbytes, user_ipb, user_profile = step
        bills = task.node.io_bills
        key = (task.stage.io_ipb, nbytes, user_ipb, user_profile)
        bill = bills.get(key)
        if bill is None:
            bill = bills[key] = task._price_io(nbytes, user_ipb, user_profile)
        self.io_instr, t_cpu, self.io_act = bill
        t_cpu *= self.slowdown
        self.io_cpu = t_cpu
        self.io_cycles = t_cpu * self.freq_hz
        self.io_fold = self.core[self.io_act]
        self.wait_kind, self.compute_kind = _IO_KINDS[kind]
        self.last = step

    def joined(self, _attempt: "_Attempt") -> None:
        """Bill the transfer that just finished, with overlap credit,
        and record its wait interval."""
        if self.process.target is not self.done:
            self._next = None
            return
        if self.transfer is not self.last:
            self._bill(self.transfer)
        t0 = self.t0
        sim = self.sim
        now = sim.now
        t_wait = now - t0
        t_cpu = self.io_cpu
        # ``max(0.0, x)`` and ``min(1.0, y)`` as comparisons: the same
        # floats, NaN included, without the builtin calls.
        residual = t_cpu - self.overlap * t_wait
        if not residual > 0.0:
            residual = 0.0
        # Activity during the wait window accounts for the compute that
        # executed under the transfer, conserving compute energy.
        if t_wait > 0:
            hidden = t_cpu - residual
            wait_act = _WAIT_ACTIVITY + (hidden / t_wait) * self.io_act
            if not wait_act < 1.0:
                wait_act = 1.0
            self.core[wait_act].add(t0, now, self.wait_kind,
                                    self.task.task_id)
        if residual > 0:
            self.kind = self.compute_kind
            self.fold = self.io_fold
            self.instr = self.io_instr
            self.cycles = self.io_cycles
            self.t0 = now
            profiler = prof.ACTIVE
            if profiler is not None:
                profiler.count("engine.residual_posts")
            self.callbacks = self._computed
            sim.calendar[now + residual].append(self)
        else:
            self.task.counters.charge(self.io_instr, self.io_cycles)
            self._step()

    def _computed(self, _attempt: "_Attempt") -> None:
        """Record and charge the compute that just ran."""
        if self.process.target is not self.done:
            self._next = None
            return
        task = self.task
        self.fold.add(self.t0, self.sim.now, self.kind, task.task_id)
        task.counters.charge(self.instr, self.cycles)
        self._step()


class MapTask(_TaskBase):
    """One map task processing one HDFS block.

    Lifecycle (while holding a map slot): startup → chunked
    read+deserialize+map → sort/spill → merge → final output to local
    disk for the reducers.
    """

    phase = "map"

    def __init__(self, task_id: str, node: ServerNode, hdfs: HDFS,
                 stage: JobStage, conf: JobConf, counters: RunCounters,
                 block: Block, **attempt_kw):
        super().__init__(task_id, node, hdfs, stage, conf, counters,
                         **attempt_kw)
        self.block = block
        self.output_bytes = 0.0

    def _steps(self, join: Join) -> Generator:
        yield self._startup()
        hdfs = self.hdfs
        stage = self.stage
        reader = hdfs.reader(join, hdfs.pick_source(self.block, self.node),
                             self.node, self.task_id, self.phase,
                             stage.io_path_factor)

        # Chunked read/compute pipeline over the block, on one resident
        # reader.  The read loop covers progress 0 → 0.9;
        # sort/spill/merge is the final 10%.
        total = remaining = self.block.size_bytes
        chunk_bytes = self.conf.chunk_bytes
        full = ("map.read", chunk_bytes, stage.map_ipb, stage.map_profile)
        while remaining > 0:
            chunk = min(chunk_bytes, remaining)
            remaining -= chunk
            reader.read(chunk)
            yield full if chunk == chunk_bytes else (
                "map.read", chunk, stage.map_ipb, stage.map_profile)
            self._progress_to(0.9 * (total - remaining) / total)
        self.counters.input_bytes += total

        # Map-side sort, spill and merge.
        out = total * stage.map_output_ratio
        self.output_bytes = out
        self.counters.map_output_bytes += out
        if out > 0:
            plan = plan_spills(out, self.conf.io_sort_bytes,
                               stage.sort_ipb, self.conf.merge_factor)
            self.counters.spills += plan.n_spills
            self.counters.spill_bytes += plan.disk_write_bytes
            yield self._compute(IO_PATH_PROFILE, plan.sort_instructions,
                                "map.sort")
            io_factor = stage.io_path_factor * _SPILL_IO_FACTOR
            if plan.disk_write_bytes > 0:
                hdfs.write_local(
                    join, self.node, plan.disk_write_bytes,
                    task_id=self.task_id, phase=self.phase, kind="map.spill",
                    io_factor=io_factor)
                yield "map.spill", plan.disk_write_bytes, 0.0, None
            if plan.disk_read_bytes > 0:
                hdfs.read_local(
                    join, self.node, plan.disk_read_bytes,
                    task_id=self.task_id, phase=self.phase, kind="map.merge",
                    io_factor=io_factor)
                yield "map.merge", plan.disk_read_bytes, 0.0, None
        self._progress_to(1.0)
        self.counters.map_tasks += 1


class ReduceTask(_TaskBase):
    """One reduce task: shuffle → merge → reduce → replicated HDFS write."""

    phase = "reduce"

    def __init__(self, task_id: str, node: ServerNode, hdfs: HDFS,
                 stage: JobStage, conf: JobConf, counters: RunCounters,
                 source_bytes: Dict[str, float], **attempt_kw):
        """*source_bytes*: node name → bytes this reducer fetches from it."""
        super().__init__(task_id, node, hdfs, stage, conf, counters,
                         **attempt_kw)
        self.source_bytes = dict(source_bytes)
        self.output_bytes = 0.0

    def _steps(self, join: Join) -> Generator:
        yield self._startup()
        hdfs = self.hdfs
        partition = sum(self.source_bytes.values())

        # Shuffle: fetch each node's contribution (local disk or network).
        # Shuffle covers progress 0 → 0.6; merge 0.8, user code 0.9,
        # output write 1.0.
        fetched = 0.0
        for source_name in sorted(self.source_bytes):
            nbytes = self.source_bytes[source_name]
            if nbytes <= 0:
                continue
            hdfs.read_span(join, source_name, self.node, nbytes,
                           task_id=self.task_id, phase=self.phase,
                           io_factor=self.stage.io_path_factor)
            yield "shuffle", nbytes, 0.0, None
            fetched += nbytes
            if partition > 0:
                self._progress_to(0.6 * fetched / partition)
        self.counters.shuffle_bytes += partition

        # Reduce-side merge.
        merge = plan_reduce_merge(partition, self.conf.merge_memory_bytes,
                                  self.stage.sort_ipb)
        yield self._compute(IO_PATH_PROFILE, merge.merge_instructions,
                            "reduce.merge")
        if merge.disk_write_bytes > 0:
            io_factor = self.stage.io_path_factor * _SPILL_IO_FACTOR
            hdfs.write_local(
                join, self.node, merge.disk_write_bytes, task_id=self.task_id,
                phase=self.phase, kind="reduce.spill", io_factor=io_factor)
            yield "reduce.spill", merge.disk_write_bytes, 0.0, None
            hdfs.read_local(
                join, self.node, merge.disk_read_bytes, task_id=self.task_id,
                phase=self.phase, kind="reduce.merge.read",
                io_factor=io_factor)
            yield "reduce.merge", merge.disk_read_bytes, 0.0, None
        self._progress_to(0.8)

        # User reduce function.  Aggregation state (count tables, merge
        # heaps) grows with the partition, so the profile's working set
        # scales with data size — the mechanism behind the paper's
        # observation that growing inputs expose the little core's memory
        # subsystem (§3.3).
        if self.stage.reduce_profile is not None:
            ws_factor = max(1.0, (partition / _REDUCE_WS_REF_BYTES) ** 0.5)
            profile = scale_profile(self.stage.reduce_profile,
                                    working_set_factor=min(ws_factor, 6.0))
            yield self._compute(
                profile, partition * self.stage.reduce_ipb, "reduce.user")
        self._progress_to(0.9)

        # Replicated output write.
        out = partition * self.stage.reduce_output_ratio
        self.output_bytes = out
        self.counters.output_bytes += out
        if out > 0:
            hdfs.write(join, f"{self.task_id}.out", out, self.node,
                       task_id=self.task_id, phase=self.phase,
                       io_factor=self.stage.io_path_factor,
                       replication=self.stage.output_replication)
            yield "reduce.write", out, 0.0, None
        self._progress_to(1.0)
        self.counters.reduce_tasks += 1
