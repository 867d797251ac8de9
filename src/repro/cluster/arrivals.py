"""Seed-deterministic job-arrival streams for the datacenter simulation.

A datacenter run replays a fixed sequence of :class:`JobRequest`\\ s —
who submits what, when, and how big.  Streams come from two sources:

* :func:`poisson_stream` — a synthetic open-arrival process.  Inter-
  arrival gaps are exponential and every per-job attribute (workload,
  node count, data size, submitting user) is a weighted draw, all
  derived from SHA-256 label hashing (:func:`repro.sim.faults.unit_draw`)
  — the same discipline as the fault plans, so a stream is a pure
  function of its :class:`ArrivalConfig` and is bit-identical across
  processes, platforms and ``--jobs`` widths.
* :func:`parse_trace` — a CSV trace, for replaying a recorded or
  hand-written submission schedule.  :func:`trace_csv` is its exact
  inverse, so streams round-trip through files.

The stream is *pure data*: nothing here touches the simulator, the
filesystem or a clock.  The datacenter runner
(:mod:`repro.cluster.datacenter`) turns it into arrival events.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Tuple

from ..sim.faults import unit_draw

__all__ = ["JobRequest", "ArrivalConfig", "poisson_stream", "parse_trace",
           "trace_csv"]


@dataclass(frozen=True)
class JobRequest:
    """One job submission: identity, timing and resource ask.

    Attributes:
        job_id: unique, monotonically increasing submission number.
        submit_s: simulated submission time.
        workload: registered workload name (e.g. ``"wordcount"``).
        nodes: whole nodes the job asks for (leases are exclusive).
        data_per_node_gb: HDFS input per granted node, as in
            :class:`~repro.core.characterization.RunKey`.
        user: submitting principal; ``<queue>-<name>`` by convention
            (the capacity scheduler groups on the prefix before ``-``).
    """

    job_id: int
    submit_s: float
    workload: str
    nodes: int
    data_per_node_gb: float
    user: str

    def __post_init__(self):
        if self.job_id < 0:
            raise ValueError("job_id must be non-negative")
        if self.submit_s < 0:
            raise ValueError("submit time must be non-negative")
        if self.nodes < 1:
            raise ValueError("a job needs at least one node")
        if self.data_per_node_gb <= 0:
            raise ValueError("data size must be positive")
        if not self.workload or not self.user:
            raise ValueError("workload and user must be non-empty")

    @property
    def queue(self) -> str:
        """Capacity-scheduler queue: the user prefix before ``-``."""
        return self.user.split("-", 1)[0]


#: Default workload mix: every Table 2 application, weighted toward the
#: micro-benchmarks the way short batch jobs dominate real clusters.
DEFAULT_MIX: Tuple[Tuple[str, float], ...] = (
    ("wordcount", 3.0), ("sort", 2.0), ("grep", 2.0), ("terasort", 2.0),
    ("naive_bayes", 2.0), ("fp_growth", 1.0),
)


@dataclass(frozen=True)
class ArrivalConfig:
    """Everything a synthetic arrival stream is derived from.

    Attributes:
        seed: master seed; every draw hashes it with per-job labels.
        n_jobs: number of submissions in the stream.
        jobs_per_1000s: mean arrival rate of the Poisson process.
        workload_mix: ``(workload, weight)`` pairs for the workload draw.
        node_choices: uniform choice set for the per-job node ask.
        size_choices_gb: uniform choice set for data per node.
        users: uniform choice set for the submitting user.
    """

    seed: int = 0
    n_jobs: int = 60
    jobs_per_1000s: float = 120.0
    workload_mix: Tuple[Tuple[str, float], ...] = DEFAULT_MIX
    node_choices: Tuple[int, ...] = (2, 3, 4, 6)
    size_choices_gb: Tuple[float, ...] = (0.25, 0.5, 1.0)
    users: Tuple[str, ...] = ("prod-ana", "prod-etl", "batch-sci",
                              "batch-adhoc")

    def __post_init__(self):
        if self.n_jobs < 1:
            raise ValueError("need at least one job")
        if not 0.0 < self.jobs_per_1000s < math.inf:
            raise ValueError(f"arrival rate must be positive and finite, "
                             f"got {self.jobs_per_1000s!r}")
        if not self.workload_mix or any(w <= 0 for _, w in self.workload_mix):
            raise ValueError("workload_mix needs positive weights")
        if not self.node_choices or any(n < 1 for n in self.node_choices):
            raise ValueError("node_choices must be >= 1")
        if not self.size_choices_gb or any(g <= 0
                                           for g in self.size_choices_gb):
            raise ValueError("size_choices_gb must be positive")
        if not self.users:
            raise ValueError("need at least one user")


def _weighted(u: float, pairs: Sequence[Tuple[str, float]]) -> str:
    """Map a unit draw onto a weighted choice list."""
    total = sum(w for _, w in pairs)
    mark = u * total
    acc = 0.0
    for name, weight in pairs:
        acc += weight
        if mark < acc:
            return name
    return pairs[-1][0]


def poisson_stream(config: ArrivalConfig) -> Tuple[JobRequest, ...]:
    """The deterministic synthetic stream for *config*.

    Inter-arrival gaps are exponential with the configured mean rate
    (the same ``-log(1 - u) / lambda`` transform as
    :meth:`repro.sim.faults.FaultPlan.with_crash_rate`); workload, node
    count, size and user are independent per-job draws.  Submission
    times are rounded to milliseconds so printed schedules stay
    readable without perturbing determinism.
    """
    lam = config.jobs_per_1000s / 1000.0
    jobs = []
    now = 0.0
    for i in range(config.n_jobs):
        job = str(i)
        gap = -math.log(1.0 - unit_draw(config.seed, "arrival", job)) / lam
        now = round(now + gap, 3)
        workload = _weighted(unit_draw(config.seed, "workload", job),
                             config.workload_mix)
        nodes = config.node_choices[
            int(unit_draw(config.seed, "nodes", job)
                * len(config.node_choices))]
        size = config.size_choices_gb[
            int(unit_draw(config.seed, "size", job)
                * len(config.size_choices_gb))]
        user = config.users[
            int(unit_draw(config.seed, "user", job) * len(config.users))]
        jobs.append(JobRequest(
            job_id=i, submit_s=now, workload=workload, nodes=nodes,
            data_per_node_gb=size, user=user))
    return tuple(jobs)


#: Column order of the CSV trace format (also its header line).
TRACE_COLUMNS = ("job_id", "submit_s", "workload", "nodes",
                 "data_per_node_gb", "user")


def trace_csv(stream: Sequence[JobRequest]) -> str:
    """Render *stream* as CSV text (the :func:`parse_trace` format)."""
    lines = [",".join(TRACE_COLUMNS)]
    for req in stream:
        # repr() is the shortest exact float form, so a stream survives
        # the file round-trip bit-identically even past 1000 s.
        lines.append(f"{req.job_id},{req.submit_s!r},{req.workload},"
                     f"{req.nodes},{req.data_per_node_gb!r},{req.user}")
    return "\n".join(lines) + "\n"


def parse_trace(text: str) -> Tuple[JobRequest, ...]:
    """Parse a CSV trace into a stream (pure; callers do the file I/O).

    The format is the :data:`TRACE_COLUMNS` header followed by one line
    per submission.  Rows must be sorted by submission time — arrival
    replay depends on it — and job ids must be unique.
    """
    lines = [ln.strip() for ln in text.splitlines()
             if ln.strip() and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty trace")
    header = tuple(c.strip() for c in lines[0].split(","))
    if header != TRACE_COLUMNS:
        raise ValueError(f"trace header must be {','.join(TRACE_COLUMNS)}; "
                         f"got {','.join(header)}")
    jobs = []
    for lineno, line in enumerate(lines[1:], start=2):
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(TRACE_COLUMNS):
            raise ValueError(f"trace line {lineno}: expected "
                             f"{len(TRACE_COLUMNS)} columns, got {len(cells)}")
        try:
            jobs.append(JobRequest(
                job_id=int(cells[0]), submit_s=float(cells[1]),
                workload=cells[2], nodes=int(cells[3]),
                data_per_node_gb=float(cells[4]), user=cells[5]))
        except ValueError as exc:
            raise ValueError(f"trace line {lineno}: {exc}") from None
    ids = [r.job_id for r in jobs]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate job_id in trace")
    if any(b.submit_s < a.submit_s
           for a, b in zip(jobs, jobs[1:])):
        raise ValueError("trace must be sorted by submit_s")
    return tuple(jobs)
