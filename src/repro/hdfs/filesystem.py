"""HDFS facade: block reads and replicated writes on the DES engine.

Ties the NameNode's placement metadata to the cluster's disk, NIC and
I/O-path resources.  Every byte that crosses a node's storage or network
boundary also transits that node's *I/O path* — the CPU-coupled
kernel/JVM machinery (checksumming, serialization, buffer copies) whose
node-level throughput scales with core frequency.  On the big core this
path is far faster than the disk and never binds; on the little core it
*is* the bottleneck for I/O-heavy jobs, which is how the model reproduces
the paper's large Sort gap (§3.1.1).

The byte-moving methods are plain calls that start the transfer at once
and count off a :class:`Join` the caller hands in.  Each leg — a chain
of device transfers, or one node's I/O-path transit — is a
:class:`_Leg` driven by callbacks, and records the activity intervals
the power model consumes.  A leg is a calendar entry it posts itself,
so it allocates no events.

The join protocol.  A data-path call sets ``join.legs`` to the number
of legs it starts, and each leg calls ``join.count_off(leg)`` from its
own count-off entry.  The last count-off posts the join itself at the
current time, in the bucket position where an event's ``succeed()``
would go, and the join's :meth:`Join.joined` runs there.  So a
transfer allocates no event and registers no callback: a task attempt
is the join of its own transfers (``mapreduce/tasks.py``), a fan-out
boot is the join of the operation it started, and where a process
waits (the driver's map-only output) an :class:`EventJoin` fires its
event from that position.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional, Tuple

from ..cluster.server import Cluster, ServerNode
from ..obs import prof
from ..sim.engine import Entry, Simulator
from ..sim.resources import BandwidthDevice, Transfer
from .blocks import Block, split_input
from .namenode import NameNode

__all__ = ["HDFS", "Join", "EventJoin"]

#: One device step of a leg: (node, device, trace device label, bytes,
#: trace kind).
_Step = Tuple[ServerNode, BandwidthDevice, str, float, str]


class HDFS:
    """A simulated HDFS instance over a cluster."""

    def __init__(self, cluster: Cluster, block_size_bytes: float,
                 replication: int = 3, seed: int = 7,
                 page_cache_hit: float = 0.0):
        if block_size_bytes <= 0:
            raise ValueError("block size must be positive")
        if not 0.0 <= page_cache_hit < 1.0:
            raise ValueError("page-cache hit fraction must be in [0, 1)")
        self.cluster = cluster
        self.sim: Simulator = cluster.sim
        self.block_size_bytes = block_size_bytes
        #: Fraction of disk traffic absorbed by the OS page cache (reads
        #: served from cache, writes deferred to background writeback).
        #: Small datasets on 8 GB nodes are largely cache-resident, which
        #: is why the big core looks so good at 1 GB/node and
        #: progressively loses that edge as data outgrows DRAM (the
        #: paper's §3.3 data-size observation, most visible for Sort).
        self.page_cache_hit = page_cache_hit
        self.namenode = NameNode([n.name for n in cluster.nodes],
                                 replication=replication, seed=seed)

    # -- metadata -----------------------------------------------------------
    def load_input(self, file: str, total_bytes: float) -> List[Block]:
        """Pre-load an input file (no simulated time passes).

        Mirrors the paper's methodology: datasets are staged into HDFS
        before the measured run starts.
        """
        profiler = prof.ACTIVE
        if profiler is not None:
            profiler.count("hdfs.load_input.calls")
        blocks = split_input(file, total_bytes, self.block_size_bytes)
        return self.namenode.register_file(file, blocks)

    def num_map_tasks(self, file: str) -> int:
        """The §3.1.1 law: one map task per block."""
        return len(self.namenode.blocks_of(file))

    def pick_source(self, block: Block, reader: ServerNode) -> str:
        """Pick a *live* replica to serve a read of *block* on *reader*.

        Identical to :meth:`NameNode.pick_replica` while every node is
        up; once nodes crash, their replicas stop being eligible.  Raises
        ``ValueError`` when no live replica remains (genuine data loss —
        a job on replication-1 data cannot survive its only holder).
        """
        return self.namenode.pick_replica(
            block, reader.name, exclude=self.cluster.dead_node_names)

    # -- legs ---------------------------------------------------------------
    def _with_iopath(self, join: "Join", nodes: List[ServerNode],
                     nbytes: float, steps: List[_Step],
                     task_id: Optional[str], phase: str,
                     io_factor: float = 1.0) -> None:
        """Run the device *steps* concurrently with each node's I/O-path
        transit, each a leg that counts off *join* when it has finished.

        The device chain and the CPU path pipeline against each other, so
        the elapsed time is the max of the two (plus queueing on both).
        The legs are built in place, with no ``__init__`` frame, and post
        themselves for their boots now, the device chain first.
        """
        profiler = prof.ACTIVE
        if profiler is not None:
            profiler.count("engine.leg_boots", 1 + len(nodes))
            profiler.count("engine.device_steps", len(steps) + len(nodes))
            profiler.count("engine.count_offs", 1 + len(nodes))
            profiler.count("engine.join_fires")
        join.legs = 1 + len(nodes)
        chains = [steps]
        for node in nodes:
            chains.append([(node, node.iopath, "fw", nbytes * io_factor,
                            "iopath")])
        trace = self.cluster.trace
        sim = self.sim
        bucket = sim.calendar[sim.now]
        for chain in chains:
            leg = _Leg.__new__(_Leg)
            leg.trace = trace
            leg.steps = chain
            leg.task_id = task_id
            leg.phase = phase
            leg.join = join
            leg.callbacks = _Leg.boot
            bucket.append(leg)

    def fan_out(self, join: "Join", starts: List[Callable[["Join"], None]]
                ) -> None:
        """Call each of *starts* from a boot of its own at the current
        time, with that boot as its join; each boot counts off *join*
        once its own join has fired.  *starts* must not be empty.

        Each boot is a :class:`_Boot`: it takes the calendar positions
        of a process that called its start, waited on the operation and
        finished, and *join* fires one hop after the last of them.
        """
        profiler = prof.ACTIVE
        if profiler is not None:
            profiler.count("engine.fan_out_boots", len(starts))
            profiler.count("engine.count_offs", len(starts))
            profiler.count("engine.join_fires")
        join.legs = len(starts)
        sim = self.sim
        for start in starts:
            _Boot(sim, start, join)

    # -- data path ------------------------------------------------------------
    def read_span(self, join: "Join", source_name: str, reader: ServerNode,
                  nbytes: float, task_id: Optional[str] = None,
                  phase: str = "map", io_factor: float = 1.0) -> None:
        """Read *nbytes* of a replica on *source_name* from *reader*,
        counting off *join*.

        Local reads hit the local disk; remote reads pay the source disk
        plus both NICs.  The page cache absorbs its share of the disk
        bytes, and the disk step goes when it absorbs them all.
        """
        obs = self.sim.obs
        if obs is not None:
            # Chunk-level hot path: meta counters only, no per-read spans.
            obs.count("hdfs.reads")
            obs.count("hdfs.read_bytes", nbytes)
            if source_name != reader.name:
                obs.count("hdfs.remote_reads")
        disk = nbytes * (1.0 - self.page_cache_hit)
        if source_name == reader.name:
            self._with_iopath(
                join, [reader], nbytes,
                [(reader, reader.disk, "disk", disk, "hdfs.read")]
                if disk > 0 else [], task_id, phase, io_factor)
            return
        source = self.cluster.node(source_name)
        steps = ([(source, source.disk, "disk", disk, "hdfs.read.remote")]
                 if disk > 0 else [])
        steps.append((source, source.nic, "nic", nbytes, "hdfs.xmit"))
        steps.append((reader, reader.nic, "nic", nbytes, "hdfs.recv"))
        self._with_iopath(join, [source, reader], nbytes, steps, task_id,
                          phase, io_factor)

    def read_local(self, join: "Join", node: ServerNode, nbytes: float,
                   task_id: Optional[str] = None, phase: str = "map",
                   kind: str = "local.read", io_factor: float = 1.0) -> None:
        """Read *nbytes* from the node's local disk (spill merges etc.),
        counting off *join*."""
        disk = nbytes * (1.0 - self.page_cache_hit)
        self._with_iopath(join, [node], nbytes,
                          [(node, node.disk, "disk", disk, kind)]
                          if disk > 0 else [], task_id, phase, io_factor)

    def write_local(self, join: "Join", node: ServerNode, nbytes: float,
                    task_id: Optional[str] = None, phase: str = "map",
                    kind: str = "local.write", io_factor: float = 1.0
                    ) -> None:
        """Write *nbytes* to local disk (map outputs, spills), counting
        off *join*."""
        disk = nbytes * (1.0 - self.page_cache_hit)
        self._with_iopath(join, [node], nbytes,
                          [(node, node.disk, "disk", disk, kind)]
                          if disk > 0 else [], task_id, phase, io_factor)

    def write(self, join: "Join", file_hint: str, nbytes: float,
              writer: ServerNode, task_id: Optional[str] = None,
              phase: str = "reduce", io_factor: float = 1.0,
              replication: Optional[int] = None) -> None:
        """Replicated HDFS write from *writer*, counting off *join*.

        The replication pipeline streams, so the local write and the
        remote legs proceed concurrently; *join* fires when all have
        finished.  A traced write's span ends where *join* fires.
        """
        obs = self.sim.obs
        if obs is not None:
            obs.count("hdfs.writes")
            obs.count("hdfs.write_bytes", nbytes)
            span = obs.begin(f"write {file_hint}", (writer.name, "hdfs"),
                             cat="hdfs", bytes=nbytes, task=task_id)
        placed = self.namenode.place_block(
            Block(file_hint, 0, nbytes), writer=writer.name)
        n_replicas = (replication if replication is not None
                      else self.namenode.replication)
        replica_names = list(placed.replicas[:max(1, n_replicas)])
        if obs is not None:
            join = _Spanned(self.sim, join, partial(
                obs.end, span, replicas=len(replica_names)))

        # The local write and each replica's pipeline start from boots
        # of their own, one after another.
        group = partial(self._with_iopath, nbytes=nbytes, task_id=task_id,
                        phase=phase, io_factor=io_factor)
        disk = nbytes * (1.0 - self.page_cache_hit)
        starts = [partial(group, nodes=[writer], steps=(
            [(writer, writer.disk, "disk", disk, "hdfs.write")]
            if disk > 0 else []))]
        for name in replica_names[1:]:
            target = self.cluster.node(name)
            steps = [(writer, writer.nic, "nic", nbytes, "hdfs.repl.xmit"),
                     (target, target.nic, "nic", nbytes, "hdfs.repl.recv")]
            if disk > 0:
                steps.append((target, target.disk, "disk", disk,
                              "hdfs.repl.write"))
            starts.append(partial(group, nodes=[target], steps=steps))
        self.fan_out(join, starts)


class Join(Entry):
    """The join of the legs of one operation (see the module docstring).

    The data-path call sets :attr:`legs`; each leg calls
    :meth:`count_off`, and the last one posts the join at the current
    time, where :meth:`joined` runs.  A join is in the calendar only
    from its last count-off until :meth:`joined` has run, so it can be
    handed to the next operation from there on.
    """

    __slots__ = ("sim", "legs")

    def count_off(self, _entry: Entry) -> None:
        """Count off one leg; the last posts the join."""
        self.legs -= 1
        if not self.legs:
            sim = self.sim
            self.callbacks = self.joined
            sim.calendar[sim.now].append(self)

    def joined(self, _join: "Join") -> None:
        """Runs where the last count-off posted the join."""
        raise NotImplementedError


class EventJoin(Join):
    """A join a process can wait on: :attr:`event` fires, in this frame,
    where the join fires (``yield join.event``)."""

    __slots__ = ("event",)

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.callbacks = None
        self.legs = 0
        self.event = sim.event()

    def joined(self, _join: "Join") -> None:
        self.event.fire()


class _Spanned(Join):
    """The join a traced write's boots count off: where it fires it ends
    the write's span, then runs the caller's join's :meth:`Join.joined`
    in the same frame, so the caller sees no extra calendar entry."""

    __slots__ = ("join", "end_span")

    def __init__(self, sim: Simulator, join: Join,
                 end_span: Callable[[], object]):
        self.sim = sim
        self.callbacks = None
        self.join = join
        self.end_span = end_span

    def joined(self, _join: "Join") -> None:
        self.end_span()
        join = self.join
        join.joined(join)


class _Boot(Join):
    """One operation of a fan-out, run by callbacks.

    Posts itself for its boot at the current time and calls its start
    there, with itself as the operation's join.  Where that join fires
    it re-posts itself once to count off the fan-out's join.
    """

    __slots__ = ("start", "join")

    def __init__(self, sim: Simulator, start: Callable[[Join], None],
                 join: Join):
        self.sim = sim
        self.start = start
        self.join = join
        self.callbacks = self._boot
        sim.calendar[sim.now].append(self)

    def _boot(self, _boot: "_Boot") -> None:
        self.start(self)

    def joined(self, _boot: "_Boot") -> None:
        sim = self.sim
        self.callbacks = self.join.count_off
        sim.calendar[sim.now].append(self)


class _Leg(Transfer):
    """One leg of a data-path operation, run by callbacks.

    A leg is its own calendar entry and its own device transfer: it
    posts itself for its boot at the current time, hands itself to each
    step's device in turn — recording each step's trace interval and
    starting the next step as it completes — and then posts itself to
    count off its join.  It takes
    the same calendar positions, in the same order, as a process that
    ran the steps would: a boot event, each step's device events, a
    completion event.  :meth:`HDFS._with_iopath` builds legs in place.
    """

    __slots__ = ("trace", "steps", "task_id", "phase", "join", "_next")

    def boot(self) -> None:
        """The boot callback (the leg is the entry it is called with)."""
        steps = self.steps
        if steps:
            self._next = 1
            _node, device, _label, self.nbytes, _kind = steps[0]
            device.transfer(self)
        else:
            join = self.join
            sim = join.sim
            self.callbacks = join.count_off
            sim.calendar[sim.now].append(self)

    def done(self) -> None:
        steps = self.steps
        i = self._next
        node, device, label, nbytes, kind = steps[i - 1]
        sim = device.sim
        end = sim.now
        # The service completion's own expression, so the start is exact.
        start = end - (device.latency + nbytes / device.bandwidth)
        self.trace.add(start, end, node.name, label, kind, 1.0,
                       self.task_id, self.phase)
        # The next step, or the count-off, run here rather than relayed.
        if i == len(steps):
            self.callbacks = self.join.count_off
            sim.calendar[end].append(self)
        else:
            self._next = i + 1
            _node, device, _label, self.nbytes, _kind = steps[i]
            device.transfer(self)
