"""Server nodes and clusters.

A :class:`ServerNode` instantiates one machine preset inside a simulation:
the disk, the NIC and the CPU-coupled I/O path become
:class:`~repro.sim.resources.BandwidthDevice` queues, and the node carries
its core count, DVFS operating point and power context.  A
:class:`Cluster` is a set of nodes sharing one simulator and one trace
recorder — the paper's testbeds are 3-node homogeneous clusters, and the
scheduling study (§3.5) uses heterogeneous big+little mixes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from ..arch.cores import CorePerf, CpuProfile
from ..arch.dvfs import GHZ, OperatingPoint
from ..arch.power import NodePower, node_uplift
from ..arch.presets import MachineSpec
from ..sim.engine import SimulationError, Simulator
from ..sim.resources import BandwidthDevice
from ..sim.trace import TraceRecorder

__all__ = ["ServerNode", "Cluster"]


class ServerNode:
    """One server inside a running simulation."""

    def __init__(self, sim: Simulator, spec: MachineSpec, name: str,
                 freq_ghz: float, cores: Optional[int] = None):
        self.sim = sim
        self.spec = spec
        self.name = name
        freq_hz = freq_ghz * GHZ
        if not spec.dvfs.supports(freq_hz):
            raise SimulationError(
                f"{spec.name} does not support {freq_ghz} GHz")
        self._op: OperatingPoint = spec.dvfs.operating_point(freq_hz)
        n_cores = cores if cores is not None else spec.cores_per_node
        if not 1 <= n_cores <= spec.cores_per_node:
            raise SimulationError(
                f"{name}: {n_cores} cores outside 1..{spec.cores_per_node}")
        self.n_cores = n_cores
        self.disk = BandwidthDevice(
            sim, spec.disk.bandwidth_bytes_s, spec.disk.latency_s,
            channels=spec.disk.channels, name=f"{name}.disk")
        self.nic = BandwidthDevice(
            sim, spec.nic.bandwidth_bytes_s, spec.nic.latency_s,
            name=f"{name}.nic")
        # The CPU-coupled Hadoop I/O path (kernel + JVM checksumming and
        # copies): a node-level throughput ceiling that scales with the
        # core clock and, sublinearly (locks, interrupt steering), with
        # the number of active cores.  Little cores bind here; big cores
        # bind on the disk.
        core_scale = (n_cores / spec.cores_per_node) ** 0.8
        self.iopath = BandwidthDevice(
            sim, spec.io_path_bw_per_ghz * freq_ghz * core_scale, 0.0,
            name=f"{name}.iopath")
        self.power = NodePower(spec.power, self._op)
        #: Core-model results by profile.  The core and the operating
        #: point are fixed for the node's life, so each distinct profile
        #: is evaluated once; both types are frozen, so equal-valued
        #: profiles share an entry.
        self._perf: Dict[CpuProfile, CorePerf] = {}
        #: The task model's CPU bills for processing a byte count, by
        #: the model's own key.  Like ``_perf`` they depend only on the
        #: core and the operating point besides the key, and every full
        #: chunk of a job repeats one.
        self.io_bills: Dict[tuple, tuple] = {}
        #: Up/down state for the fault model: a crashed node stops
        #: accepting tasks and is excluded from replica selection.
        self.alive = True
        self.failed_at: Optional[float] = None
        #: Compute-degradation factor (>= 1) multiplying every compute
        #: time on this node — thermal throttling, a noisy co-tenant.
        self.compute_scale = 1.0

    def fail(self) -> None:
        """Mark the node as crashed at the current simulated time."""
        if self.alive:
            self.alive = False
            self.failed_at = self.sim.now

    # -- performance shortcuts -------------------------------------------
    @property
    def op(self) -> OperatingPoint:
        """The DVFS operating point, fixed at construction.

        Read-only: the power context and the core-model memo are both
        built from it.
        """
        return self._op

    @property
    def freq_hz(self) -> float:
        return self._op.freq_hz

    @property
    def freq_ghz(self) -> float:
        return self._op.freq_ghz

    def core_perf(self, profile: CpuProfile) -> CorePerf:
        """Evaluate a CPU profile on this node's core at its frequency.

        Memoized per node: the core model runs once per distinct profile.
        """
        try:
            return self._perf[profile]
        except KeyError:
            perf = self._perf[profile] = self.spec.core.evaluate(
                profile, self._op.freq_hz)
            return perf

    def __repr__(self) -> str:  # pragma: no cover
        return (f"<ServerNode {self.name} {self.spec.name} "
                f"{self.n_cores}c @ {self.freq_ghz:.1f} GHz>")


class Cluster:
    """A set of server nodes sharing a simulator and a trace recorder.

    The trace keeps its rows only when a tracer is attached to *sim*
    (``sim.obs``), which reads them into its job trace.  Otherwise it
    folds each row into energy with the nodes' power models as it is
    recorded and keeps none.  Code that reads the rows of an untraced
    run replaces ``cluster.trace`` with a plain
    :class:`~repro.sim.trace.TraceRecorder` before anything records.
    """

    def __init__(self, sim: Simulator, nodes: Sequence[ServerNode]):
        if not nodes:
            raise SimulationError("cluster needs at least one node")
        names = [n.name for n in nodes]
        if len(set(names)) != len(names):
            raise SimulationError("duplicate node names in cluster")
        self.sim = sim
        self.nodes: List[ServerNode] = list(nodes)
        self.trace = TraceRecorder(
            uplift=None if sim.obs is not None else node_uplift(
                self.node_power()))

    # -- constructors ------------------------------------------------------
    @classmethod
    def homogeneous(cls, sim: Simulator, spec: MachineSpec, n_nodes: int,
                    freq_ghz: float, cores_per_node: Optional[int] = None
                    ) -> "Cluster":
        """The paper's standard setup: n identical nodes (3 by default)."""
        if n_nodes < 1:
            raise SimulationError("need at least one node")
        nodes = [ServerNode(sim, spec, f"{spec.name}{i}", freq_ghz,
                            cores=cores_per_node)
                 for i in range(n_nodes)]
        return cls(sim, nodes)

    @classmethod
    def heterogeneous(cls, sim: Simulator,
                      groups: Iterable[Dict]) -> "Cluster":
        """Mixed cluster from group dicts.

        Each group is ``{"spec": MachineSpec, "n_nodes": int,
        "freq_ghz": float, "cores_per_node": Optional[int]}``.
        """
        nodes: List[ServerNode] = []
        for gi, group in enumerate(groups):
            spec = group["spec"]
            for i in range(group["n_nodes"]):
                nodes.append(ServerNode(
                    sim, spec, f"{spec.name}{gi}-{i}", group["freq_ghz"],
                    cores=group.get("cores_per_node")))
        return cls(sim, nodes)

    # -- lookups ------------------------------------------------------------
    def node(self, name: str) -> ServerNode:
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(f"no node named {name!r}")

    @property
    def live_nodes(self) -> List[ServerNode]:
        """Nodes that have not crashed (in cluster order)."""
        return [n for n in self.nodes if n.alive]

    @property
    def dead_node_names(self) -> frozenset:
        return frozenset(n.name for n in self.nodes if not n.alive)

    def node_power(self) -> Dict[str, NodePower]:
        """node name → power context, as the energy integrator expects."""
        return {n.name: n.power for n in self.nodes}

    def nodes_of(self, spec_name: str) -> List[ServerNode]:
        return [n for n in self.nodes if n.spec.name == spec_name]
