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
and return an event that fires when it has finished; a task process
waits with ``yield hdfs.read_span(...)``.  Each leg — a chain of device
transfers, or one node's I/O-path transit — is a :class:`_Leg` driven by
callbacks, and records the activity intervals the power model consumes.
A leg is a calendar entry it posts itself, so it allocates no events.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, List, Optional, Tuple

from ..cluster.server import Cluster, ServerNode
from ..obs import prof
from ..sim.engine import Entry, Event, Simulator
from ..sim.resources import BandwidthDevice, Transfer
from .blocks import Block, split_input
from .namenode import NameNode

__all__ = ["HDFS"]

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
    def _disk(self, node: ServerNode, nbytes: float, kind: str) -> List[_Step]:
        """The disk step for *nbytes*, or none if the page cache absorbs it."""
        nbytes *= (1.0 - self.page_cache_hit)
        return [(node, node.disk, "disk", nbytes, kind)] if nbytes > 0 else []

    def _with_iopath(self, nodes: List[ServerNode], nbytes: float,
                     steps: List[_Step], task_id: Optional[str],
                     phase: str, io_factor: float = 1.0) -> Event:
        """Run the device *steps* concurrently with each node's I/O-path
        transit; the returned event fires when all have finished.

        The device chain and the CPU path pipeline against each other, so
        the elapsed time is the max of the two (plus queueing on both).
        """
        join = _Join(self.sim, 1 + len(nodes))
        _Leg(self, steps, task_id, phase, join)
        for node in nodes:
            _Leg(self, [(node, node.iopath, "fw", nbytes * io_factor, "iopath")],
                 task_id, phase, join)
        return join

    def fan_out(self, starts: List[Callable[[], Event]]) -> Event:
        """Call each of *starts* from a boot of its own at the current
        time; the returned event fires once every event they return has
        fired.  *starts* must not be empty.

        Each boot is a :class:`_Boot`: it takes the calendar positions
        of a process that called its start, waited on the event and
        finished, and the join fires one hop after the last of them.
        """
        join = _Join(self.sim, len(starts))
        for start in starts:
            _Boot(self.sim, start, join)
        return join

    # -- data path ------------------------------------------------------------
    def read_span(self, source_name: str, reader: ServerNode, nbytes: float,
                  task_id: Optional[str] = None, phase: str = "map",
                  io_factor: float = 1.0) -> Event:
        """Read *nbytes* of a replica on *source_name* from *reader*.

        Local reads hit the local disk; remote reads pay the source disk
        plus both NICs.
        """
        obs = self.sim.obs
        if obs is not None:
            # Chunk-level hot path: meta counters only, no per-read spans.
            obs.count("hdfs.reads")
            obs.count("hdfs.read_bytes", nbytes)
            if source_name != reader.name:
                obs.count("hdfs.remote_reads")
        if source_name == reader.name:
            return self._with_iopath(
                [reader], nbytes, self._disk(reader, nbytes, "hdfs.read"),
                task_id, phase, io_factor)
        source = self.cluster.node(source_name)
        steps = self._disk(source, nbytes, "hdfs.read.remote")
        steps.append((source, source.nic, "nic", nbytes, "hdfs.xmit"))
        steps.append((reader, reader.nic, "nic", nbytes, "hdfs.recv"))
        return self._with_iopath([source, reader], nbytes, steps, task_id,
                                 phase, io_factor)

    def read_local(self, node: ServerNode, nbytes: float,
                   task_id: Optional[str] = None, phase: str = "map",
                   kind: str = "local.read", io_factor: float = 1.0
                   ) -> Event:
        """Read *nbytes* from the node's local disk (spill merges etc.)."""
        return self._with_iopath([node], nbytes,
                                 self._disk(node, nbytes, kind), task_id,
                                 phase, io_factor)

    def write_local(self, node: ServerNode, nbytes: float,
                    task_id: Optional[str] = None, phase: str = "map",
                    kind: str = "local.write", io_factor: float = 1.0
                    ) -> Event:
        """Write *nbytes* to local disk (map outputs, spills)."""
        return self._with_iopath([node], nbytes,
                                 self._disk(node, nbytes, kind), task_id,
                                 phase, io_factor)

    def write(self, file_hint: str, nbytes: float, writer: ServerNode,
              task_id: Optional[str] = None, phase: str = "reduce",
              io_factor: float = 1.0, replication: Optional[int] = None
              ) -> Event:
        """Replicated HDFS write from *writer*.

        The replication pipeline streams, so the local write and the
        remote legs proceed concurrently; the returned event fires when
        all have finished.
        """
        obs = self.sim.obs
        span = None
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

        # The local write and each replica's pipeline start from boots
        # of their own, one after another.
        groups = [partial(self._with_iopath, [writer], nbytes,
                          self._disk(writer, nbytes, "hdfs.write"), task_id,
                          phase, io_factor)]
        for name in replica_names[1:]:
            target = self.cluster.node(name)
            steps = [(writer, writer.nic, "nic", nbytes, "hdfs.repl.xmit"),
                     (target, target.nic, "nic", nbytes, "hdfs.repl.recv")]
            steps += self._disk(target, nbytes, "hdfs.repl.write")
            groups.append(partial(self._with_iopath, [target], nbytes, steps,
                                  task_id, phase, io_factor))
        join = self.fan_out(groups)
        if span is not None:
            join.add_callback(
                lambda _join: obs.end(span, replicas=len(replica_names)))
        return join


class _Join(Event):
    """Fires once each of its :attr:`legs` has counted itself off."""

    __slots__ = ("legs",)

    def __init__(self, sim: Simulator, legs: int):
        # Event's state set here, not by super().__init__(): one frame
        # per join instead of two.
        self.sim = sim
        self.callbacks = None
        self._triggered = False
        self._processed = False
        self.value = None
        self._exc = None
        self._cancelled = False
        self.legs = legs

    def count_off(self, _leg: "_Leg") -> None:
        self.legs -= 1
        if not self.legs:
            if self._triggered or self._cancelled:
                self.succeed()   # raises succeed's error for either
            # Inlined ``self.succeed()``.
            self._triggered = True
            sim = self.sim
            sim.calendar[sim.now].append(self)


class _Boot(Entry):
    """One operation of a fan-out, run by callbacks.

    Posts itself for its boot at the current time, calls its start
    there, re-posts itself once when the event the start returned
    fires, and then counts off its join.
    """

    __slots__ = ("start", "join")

    def __init__(self, sim: Simulator, start: Callable[[], Event],
                 join: _Join):
        self.start = start
        self.join = join
        self.callbacks = self._boot
        sim.calendar[sim.now].append(self)

    def _boot(self, _boot: "_Boot") -> None:
        self.start().add_callback(self._joined)

    def _joined(self, event: Event) -> None:
        sim = event.sim
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
    completion event.
    """

    __slots__ = ("trace", "steps", "task_id", "phase", "join", "_next")

    def __init__(self, hdfs: HDFS, steps: List[_Step],
                 task_id: Optional[str], phase: str, join: _Join):
        # Entry's state set here, not by super().__init__(): two frames
        # per leg cost about 2% of a cold cell.  The boot sets nbytes and
        # _next.
        self.trace = hdfs.cluster.trace
        self.steps = steps
        self.task_id = task_id
        self.phase = phase
        self.join = join
        sim = hdfs.sim
        self.callbacks = self._boot
        sim.calendar[sim.now].append(self)

    def _boot(self, _leg: "_Leg") -> None:
        steps = self.steps
        if steps:
            self._next = 1
            _node, device, _label, self.nbytes, _kind = steps[0]
            device.transfer(self)
        else:
            sim = self.join.sim
            self.callbacks = self.join.count_off
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
