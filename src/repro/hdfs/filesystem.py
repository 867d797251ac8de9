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

Paths.  Every data-path call moves its bytes over a :class:`_Path`:
the legs of a :class:`_Route`, a device chain beside one I/O-path
transit per node.  A route is built once per HDFS and trace, at its
first use, with each step's fold handle (``sim/trace.py``), and it
builds its legs' step lists once per distinct transfer size.
:meth:`_Path.post` is the one place legs are posted.  A map attempt
reads its block over one resident path (:meth:`HDFS.reader`): the
attempt's legs are built once, and each read re-posts the same legs,
at the positions fresh legs took, with the full chunk's or the last
chunk's step lists.  Another read while the legs are still in flight
raises :class:`~repro.sim.engine.SimulationError`, so a leg is in the
calendar at most once.  :meth:`HDFS.read_span` is one read of a
reader built for it.

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
from typing import Callable, Dict, List, Optional, Tuple

from ..cluster.server import Cluster, ServerNode
from ..obs import prof
from ..sim.engine import Entry, SimulationError, Simulator
from ..sim.resources import BandwidthDevice, Transfer
from .blocks import Block, split_input
from .namenode import NameNode

__all__ = ["HDFS", "Join", "EventJoin"]

#: One step of a path's device chain, as a data-path call names it:
#: (node, device, trace device label, trace kind).
_ChainStep = Tuple[ServerNode, BandwidthDevice, str, str]


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
        #: Routes by (source, node, kind, phase, io_factor), and the
        #: trace their fold handles belong to (a cluster's trace may be
        #: replaced before anything records).
        self._routes: Dict[tuple, _Route] = {}
        self._routes_trace = None

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

    # -- paths ------------------------------------------------------------
    def reader(self, join: "Join", source_name: str, node: ServerNode,
               task_id: Optional[str] = None, phase: str = "map",
               io_factor: float = 1.0) -> "_Path":
        """A resident read path from the replica on *source_name* to
        *node*, counting off *join* (see the module docstring)."""
        return _Path(self.sim, join, self._route(
            source_name, node.name, "hdfs.read", phase, io_factor), task_id,
            source_name != node.name)

    def _route(self, source_name: str, node_name: str, kind: str,
               phase: str, io_factor: float) -> "_Route":
        """The route of a transfer from *source_name*'s side to
        *node_name*'s, built at its first use (see :class:`_Route`).

        On one node it is that disk's *kind* operation.  Between two,
        ``hdfs.read`` reads the source's disk over both NICs, and any
        other *kind* is a replica's pipeline, which writes the target's
        disk.  The page cache absorbs its share of the disk bytes, and
        the disk step goes when it absorbs them all.
        """
        trace = self.cluster.trace
        if trace is not self._routes_trace:
            self._routes_trace = trace
            self._routes = {}
        key = (source_name, node_name, kind, phase, io_factor)
        route = self._routes.get(key)
        if route is not None:
            return route
        node = self.cluster.node(node_name)
        if source_name == node_name:
            chain = [(node, node.disk, "disk", kind)]
            nodes = [node]
        else:
            source = self.cluster.node(source_name)
            if kind == "hdfs.read":
                chain = [(source, source.disk, "disk", "hdfs.read.remote"),
                         (source, source.nic, "nic", "hdfs.xmit"),
                         (node, node.nic, "nic", "hdfs.recv")]
                nodes = [source, node]
            else:
                chain = [(source, source.nic, "nic", "hdfs.repl.xmit"),
                         (node, node.nic, "nic", "hdfs.repl.recv"),
                         (node, node.disk, "disk", kind)]
                nodes = [node]
        route = self._routes[key] = _Route(
            trace, chain, nodes, phase, io_factor,
            1.0 - self.page_cache_hit)
        return route

    def _transfer(self, join: "Join", source_name: str, node_name: str,
                  kind: str, nbytes: float, task_id: Optional[str],
                  phase: str, io_factor: float) -> None:
        """Move *nbytes* once over a path of its own, counting off
        *join*."""
        _Path(self.sim, join, self._route(source_name, node_name, kind,
                                          phase, io_factor),
              task_id).post(nbytes)

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
        counting off *join*: one read of a :meth:`reader` path."""
        self.reader(join, source_name, reader, task_id, phase,
                    io_factor).read(nbytes)

    def read_local(self, join: "Join", node: ServerNode, nbytes: float,
                   task_id: Optional[str] = None, phase: str = "map",
                   kind: str = "local.read", io_factor: float = 1.0) -> None:
        """Read *nbytes* from the node's local disk (spill merges etc.),
        counting off *join*."""
        self._transfer(join, node.name, node.name, kind, nbytes, task_id,
                       phase, io_factor)

    def write_local(self, join: "Join", node: ServerNode, nbytes: float,
                    task_id: Optional[str] = None, phase: str = "map",
                    kind: str = "local.write", io_factor: float = 1.0
                    ) -> None:
        """Write *nbytes* to local disk (map outputs, spills), counting
        off *join*."""
        self._transfer(join, node.name, node.name, kind, nbytes, task_id,
                       phase, io_factor)

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
        group = partial(self._transfer, source_name=writer.name,
                        nbytes=nbytes, task_id=task_id, phase=phase,
                        io_factor=io_factor)
        starts = [partial(group, node_name=writer.name, kind="hdfs.write")]
        starts += [partial(group, node_name=name, kind="hdfs.repl.write")
                   for name in replica_names[1:]]
        self.fan_out(join, starts)


class Join(Entry):
    """The join of the legs of one operation (see the module docstring).

    The data-path call sets :attr:`legs`; each leg calls
    :meth:`count_off`, and the last one posts the join at the current
    time, where :meth:`joined` runs.  A join is in the calendar only
    from its last count-off until :meth:`joined` has run, so it can be
    handed to the next operation from there on.  :attr:`legs` is 0
    between operations (a join's constructor sets it), so a path's
    :meth:`_Path.post` refuses a join whose legs are still in flight.
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
        self.legs = 0
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
        self.legs = 0
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


class _Route:
    """What every path of one route shares (:meth:`HDFS._route`): a
    device chain of ``(node, device, trace label, kind)`` steps beside
    one I/O-path transit per node, each step with its fold handle
    (``sim/trace.py``), and the legs' step lists by transfer size.  The
    device chain and the CPU path pipeline against each other, so a
    transfer takes the longer of the two (plus queueing on both)."""

    __slots__ = ("chain", "iopaths", "disk_share", "io_factor", "sizes")

    def __init__(self, trace, chain: List[_ChainStep],
                 nodes: List[ServerNode], phase: str, io_factor: float,
                 disk_share: float):
        handles = trace.fold_handles
        self.chain = [(device, label == "disk", kind,
                       handles(node.name, label, phase)[1.0])
                      for node, device, label, kind in chain]
        self.iopaths = [(node.iopath, handles(node.name, "fw", phase)[1.0])
                        for node in nodes]
        self.disk_share = disk_share
        self.io_factor = io_factor
        self.sizes: Dict[float, List[list]] = {}

    def steps(self, nbytes: float) -> List[list]:
        """Each leg's steps for a transfer of *nbytes*: the device chain
        first, then each I/O-path transit."""
        steps = self.sizes.get(nbytes)
        if steps is None:
            disk = nbytes * self.disk_share
            transit = nbytes * self.io_factor
            steps = [[(device, disk if is_disk else nbytes, kind, fold)
                      for device, is_disk, kind, fold in self.chain
                      if not is_disk or disk > 0]]
            steps += [[(device, transit, "iopath", fold)]
                      for device, fold in self.iopaths]
            self.sizes[nbytes] = steps
        return steps


class _Path:
    """The legs of a route, built once and posted for each transfer: once
    by a data-path call, once per chunk by a map attempt's reader
    (:meth:`HDFS.reader`).  *remote* is None for a path that is not a
    read, else whether the replica is on another node: a read is counted
    on an attached tracer."""

    __slots__ = ("sim", "join", "route", "legs", "nbytes", "remote")

    def __init__(self, sim: Simulator, join: "Join", route: _Route,
                 task_id: Optional[str], remote: Optional[bool] = None):
        self.sim = sim
        self.join = join
        self.route = route
        self.nbytes = None
        self.remote = remote
        # Built in place, with no ``__init__`` frame per leg.
        legs = self.legs = []
        for _ in range(1 + len(route.iopaths)):
            leg = _Leg.__new__(_Leg)
            leg.task_id = task_id
            leg.join = join
            legs.append(leg)

    def post(self, nbytes: float) -> None:
        """Move *nbytes* over the path: point the legs at the route's
        steps for *nbytes*, set ``join.legs`` and post every leg for its
        boot now, the device chain first.  Raises
        :class:`SimulationError` if the join's legs from an earlier post
        are still in flight, so a leg is in the calendar at most once."""
        join = self.join
        if join.legs:
            raise SimulationError("a path's legs are still in flight")
        obs = self.sim.obs
        if obs is not None and self.remote is not None:
            # Chunk-level hot path: meta counters only, no per-read spans.
            obs.count("hdfs.reads")
            obs.count("hdfs.read_bytes", nbytes)
            if self.remote:
                obs.count("hdfs.remote_reads")
        legs = self.legs
        if nbytes != self.nbytes:
            self.nbytes = nbytes
            for leg, steps in zip(legs, self.route.steps(nbytes)):
                leg.steps = steps
        profiler = prof.ACTIVE
        if profiler is not None:
            profiler.count("engine.leg_boots", len(legs))
            profiler.count("engine.device_steps",
                           sum(len(leg.steps) for leg in legs))
            profiler.count("engine.count_offs", len(legs))
            profiler.count("engine.join_fires")
        join.legs = len(legs)
        boot = _Leg.boot
        for leg in legs:
            leg.callbacks = boot
        sim = self.sim
        sim.calendar[sim.now].extend(legs)

    #: A reader's name for :meth:`post`: it reads *nbytes* of the
    #: replica.
    read = post


class _Leg(Transfer):
    """One leg of a data-path operation, run by callbacks.

    A leg is its own calendar entry and its own device transfer: it
    posts itself for its boot, hands itself to each step's device in
    turn — recording each step's trace interval through the step's fold
    handle and starting the next step as it completes — and then posts
    itself to count off its join.  It takes the same calendar
    positions, in the same order, as a process that ran the steps
    would: a boot event, each step's device events, a completion event.
    A :class:`_Path` builds its legs and posts them.
    """

    __slots__ = ("steps", "task_id", "join", "_next")

    def boot(self) -> None:
        """The boot callback (the leg is the entry it is called with)."""
        steps = self.steps
        if steps:
            self._next = 1
            device, self.nbytes, _kind, _fold = steps[0]
            device.transfer(self)
        else:
            join = self.join
            sim = join.sim
            self.callbacks = join.count_off
            sim.calendar[sim.now].append(self)

    def done(self) -> None:
        steps = self.steps
        i = self._next
        device, nbytes, kind, fold = steps[i - 1]
        sim = device.sim
        end = sim.now
        # The service completion's own expression, so the start is exact.
        fold.add(end - (device.latency + nbytes / device.bandwidth), end,
                 kind, self.task_id)
        # The next step, or the count-off, run here rather than relayed.
        if i == len(steps):
            self.callbacks = self.join.count_off
            sim.calendar[end].append(self)
        else:
            self._next = i + 1
            device, self.nbytes, _kind, _fold = steps[i]
            device.transfer(self)
