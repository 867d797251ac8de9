"""Analytical core performance model (big vs little).

The paper contrasts a *big* out-of-order core (Xeon E5-2420, Sandy Bridge,
4-wide) with a *little* narrow core (Atom C2758, Silvermont, 2-wide).  We
model a core as:

    CPI(w, f) = CPI_base(w) + CPI_branch(w) + CPI_mem(w, f)

* ``CPI_base = 1 / min(issue_width, ilp(w))`` — the core can only exploit
  as much instruction-level parallelism as the workload offers; this is the
  mechanism behind Fig. 1's observation that Hadoop code (low ILP) narrows
  the Xeon/Atom IPC gap relative to SPEC.
* ``CPI_branch = branch_mpki/1000 × pipeline_depth`` — mispredictions
  flush a pipeline-depth worth of work.
* ``CPI_mem`` folds the cache-hierarchy stall model
  (:mod:`repro.arch.caches`), scaled by the core's *stall-hiding* ability:
  an out-of-order window plus memory-level parallelism overlaps a large
  fraction of miss latency (Xeon), a small in-order-ish window does not
  (Atom).  Exposed latency per miss is
  ``latency × (1 − stall_hide) / mlp``.

The resulting IPC drives every execution-time number in the simulator, and
the *activity factor* ``CPI_base_total / CPI`` (useful-issue fraction)
drives the dynamic-power model: a core stalled on DRAM burns less dynamic
power than one retiring four instructions per cycle.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .caches import CacheHierarchy, MissCurve

__all__ = ["CpuProfile", "CoreSpec", "CorePerf", "scale_profile"]


@dataclass(frozen=True)
class CpuProfile:
    """Microarchitecture-independent description of a code region.

    Attributes:
        name: label for reports.
        ilp: exploitable instruction-level parallelism (instructions the
            code can issue per cycle on an infinitely wide machine).
        apki: data-memory accesses per kilo-instruction that exercise the
            cache hierarchy.
        working_set_bytes: characteristic working-set size ``S0`` of the
            power-law miss curve.
        locality_alpha: locality exponent of the miss curve (higher =
            friendlier to caches).
        branch_mpki: branch mispredictions per kilo-instruction.
        frontend_mpki: instruction-cache misses per kilo-instruction that
            escape the L1i.  Scale-out/Hadoop code has a famously large
            instruction footprint; frontend misses stall even wide OoO
            cores, which is one mechanism behind the paper's Fig. 1
            (Hadoop IPC collapses more on the big core than SPEC's).
    """

    name: str
    ilp: float
    apki: float
    working_set_bytes: float
    locality_alpha: float
    branch_mpki: float = 1.0
    frontend_mpki: float = 0.0

    def __post_init__(self):
        if self.ilp <= 0:
            raise ValueError(f"{self.name}: ilp must be positive")
        if self.apki < 0 or self.branch_mpki < 0 or self.frontend_mpki < 0:
            raise ValueError(f"{self.name}: event rates must be non-negative")

    def __hash__(self) -> int:
        # Profiles key every node's core_perf memo and the task I/O
        # bills, so the generated dataclass hash (a fresh field tuple
        # per call) is computed once per instance instead.  The value is
        # salted per process (``name`` is a str): __getstate__ keeps it
        # out of pickles.
        try:
            return self._hash
        except AttributeError:
            values = (self.name, self.ilp, self.apki, self.working_set_bytes,
                      self.locality_alpha, self.branch_mpki,
                      self.frontend_mpki)
            object.__setattr__(  # detlint: disable=DET001 -- a dict key only
                self, "_hash", hash(values))
            return self._hash

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    @property
    def miss_curve(self) -> MissCurve:
        return MissCurve(self.working_set_bytes, self.locality_alpha)

    @classmethod
    def characterized(cls, name: str, *, ilp: float, apki: float,
                      l1_miss_ratio: float, locality_alpha: float,
                      branch_mpki: float = 1.0, frontend_mpki: float = 0.0
                      ) -> "CpuProfile":
        """Build a profile from an L1-anchored memory characterization.

        ``l1_miss_ratio`` is the fraction of data accesses missing a
        reference 32 KiB first-level cache; the power-law scale is derived
        from it (see :meth:`MissCurve.from_l1_miss_ratio`).
        """
        curve = MissCurve.from_l1_miss_ratio(l1_miss_ratio, locality_alpha)
        return cls(name=name, ilp=ilp, apki=apki,
                   working_set_bytes=curve.working_set_bytes,
                   locality_alpha=locality_alpha, branch_mpki=branch_mpki,
                   frontend_mpki=frontend_mpki)


def scale_profile(profile: CpuProfile, *, working_set_factor: float = 1.0,
                  name: Optional[str] = None) -> CpuProfile:
    """Derive a profile with a scaled working set (e.g. bigger inputs)."""
    if working_set_factor <= 0:
        raise ValueError("working_set_factor must be positive")
    return replace(
        profile,
        name=name or profile.name,
        working_set_bytes=profile.working_set_bytes * working_set_factor,
    )


@dataclass(frozen=True)
class CoreSpec:
    """Static microarchitectural parameters of one core type.

    Attributes:
        name: marketing name (``"Xeon E5-2420"``).
        microarch: microarchitecture family (``"Sandy Bridge"``).
        issue_width: sustained instructions issued per cycle.
        pipeline_depth: misprediction penalty in cycles.
        out_of_order: whether the core reorders aggressively.
        stall_hide: fraction of miss latency hidden by the OoO window /
            prefetchers (0 = fully exposed, 1 = fully hidden).
        mlp: overlapped outstanding misses (memory-level parallelism).
        hierarchy: the data-cache hierarchy in front of DRAM.
        io_overlap: fraction of I/O wait the core overlaps with useful
            compute on the Hadoop I/O path (read-ahead, OoO, fast kernel
            path); the task model consumes this.
        io_path_overhead: multiplier on per-byte I/O-processing
            instructions (checksum, copy, deserialize) relative to the
            reference implementation — little cores pay relatively more.
        frontend_penalty_cycles: cycles lost per instruction-cache miss;
            defaults to the second cache level's latency.  Deep frontends
            feeding a wide backend (Sandy Bridge) lose more per miss, one
            reason Hadoop's huge instruction footprint hurts the big core
            disproportionately (Fig. 1).
    """

    name: str
    microarch: str
    issue_width: int
    pipeline_depth: int
    out_of_order: bool
    stall_hide: float
    mlp: float
    hierarchy: CacheHierarchy
    io_overlap: float = 0.5
    io_path_overhead: float = 1.0
    frontend_penalty_cycles: Optional[float] = None

    def __post_init__(self):
        if self.issue_width < 1:
            raise ValueError(f"{self.name}: issue width must be >= 1")
        if not 0.0 <= self.stall_hide < 1.0:
            raise ValueError(f"{self.name}: stall_hide must be in [0, 1)")
        if self.mlp < 1.0:
            raise ValueError(f"{self.name}: mlp must be >= 1")
        if not 0.0 <= self.io_overlap <= 1.0:
            raise ValueError(f"{self.name}: io_overlap must be in [0, 1]")

    # -- the model ---------------------------------------------------------
    def cpi_base(self, profile: CpuProfile) -> float:
        """Issue-limited CPI ignoring memory and branch stalls."""
        return 1.0 / min(float(self.issue_width), profile.ilp)

    def cpi_branch(self, profile: CpuProfile) -> float:
        """CPI contribution of branch mispredictions."""
        return profile.branch_mpki / 1000.0 * self.pipeline_depth

    def cpi_frontend(self, profile: CpuProfile) -> float:
        """CPI contribution of instruction-cache misses.

        Frontend misses are served from the second cache level and cannot
        be hidden by the out-of-order window (the core has nothing to
        issue), so no stall-hiding is applied.
        """
        penalty = self.frontend_penalty_cycles
        if penalty is None:
            if len(self.hierarchy.levels) > 1:
                penalty = self.hierarchy.levels[1].latency_cycles
            else:
                penalty = self.pipeline_depth
        return profile.frontend_mpki / 1000.0 * penalty

    def cpi_memory(self, profile: CpuProfile, freq_hz: float) -> float:
        """CPI contribution of cache/DRAM stalls at *freq_hz*."""
        stall_s = self.hierarchy.stall_seconds_per_access(
            profile.miss_curve, freq_hz)
        exposed = stall_s * (1.0 - self.stall_hide) / self.mlp
        return profile.apki / 1000.0 * exposed * freq_hz

    def evaluate(self, profile: CpuProfile, freq_hz: float) -> "CorePerf":
        """Full performance evaluation of *profile* at *freq_hz*."""
        if freq_hz <= 0:
            raise ValueError("frequency must be positive")
        base = (self.cpi_base(profile) + self.cpi_branch(profile)
                + self.cpi_frontend(profile))
        mem = self.cpi_memory(profile, freq_hz)
        cpi = base + mem
        return CorePerf(
            core=self.name,
            profile=profile.name,
            freq_hz=freq_hz,
            cpi=cpi,
            cpi_base=base,
            cpi_memory=mem,
        )


@dataclass(frozen=True)
class CorePerf:
    """Result of evaluating a :class:`CpuProfile` on a :class:`CoreSpec`."""

    core: str
    profile: str
    freq_hz: float
    cpi: float
    cpi_base: float
    cpi_memory: float

    @property
    def ipc(self) -> float:
        """Instructions retired per cycle."""
        return 1.0 / self.cpi

    @property
    def activity(self) -> float:
        """Useful-issue fraction of cycles; feeds the dynamic-power model."""
        return self.cpi_base / self.cpi

    def seconds_for(self, instructions: float) -> float:
        """Wall time to retire *instructions* on one core."""
        if instructions < 0:
            raise ValueError("instruction count must be non-negative")
        return instructions * self.cpi / self.freq_hz
