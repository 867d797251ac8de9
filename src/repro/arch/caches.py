"""Cache hierarchy model.

The reproduction does not simulate individual cache lines; the paper's
arguments only need the *first-order* contrast between the two hierarchies
(Table 1 of the paper):

* Atom C2758 — two levels: 24 KiB L1d, 1 MiB L2 slice, no L3;
* Xeon E5-2420 — three levels: 32 KiB L1d, 256 KiB L2, 15 MiB shared L3.

We therefore use the classic power-law ("square-root rule") miss curve:
the fraction of accesses that miss *beyond* a cache of size ``S`` is

    f(S) = min(1, (S0 / S) ** alpha)

where ``S0`` is the workload's characteristic working-set size and
``alpha`` its locality exponent.  ``f`` is monotone non-increasing in
``S``, which property tests assert.  Misses *served by* level ``i`` are
then ``f(S_{i-1}) - f(S_i)`` (with ``f(S_0)`` the L1 miss ratio), and
last-level misses go to DRAM.

Each level declares whether its access latency lives in the *core clock
domain* (latency fixed in cycles — it shrinks in seconds as frequency
rises; true of private L2s on both parts and of Sandy Bridge's
ring/L3) or in the *wall-clock domain* (fixed nanoseconds; true of DRAM).
This split is what gives the two servers their different frequency
sensitivity, a central observation of the paper (§3.1.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

__all__ = ["CacheLevel", "CacheHierarchy", "MissCurve", "KIB", "MIB"]

KIB = 1024
MIB = 1024 * 1024


@dataclass(frozen=True)
class CacheLevel:
    """One level of the data-cache hierarchy.

    Attributes:
        name: human-readable label (``"L1d"``, ``"L2"``, ``"L3"``).
        size_bytes: capacity in bytes.
        latency_cycles: load-to-use latency of this level in core cycles
            (used when ``core_clock_domain``) .
        latency_ns: load-to-use latency in nanoseconds (used when the level
            is *not* in the core clock domain).
        core_clock_domain: True if the latency scales with core frequency.
    """

    name: str
    size_bytes: float
    latency_cycles: float = 0.0
    latency_ns: float = 0.0
    core_clock_domain: bool = True

    def __post_init__(self):
        if self.size_bytes <= 0:
            raise ValueError(f"{self.name}: cache size must be positive")
        if self.core_clock_domain and self.latency_cycles <= 0:
            raise ValueError(f"{self.name}: core-domain level needs latency_cycles")
        if not self.core_clock_domain and self.latency_ns <= 0:
            raise ValueError(f"{self.name}: wall-domain level needs latency_ns")

    def latency_seconds(self, freq_hz: float) -> float:
        """Latency in seconds at the given core frequency."""
        if self.core_clock_domain:
            return self.latency_cycles / freq_hz
        return self.latency_ns * 1e-9


@dataclass(frozen=True)
class MissCurve:
    """Power-law global miss curve ``f(S) = min(1, (S0/S)^alpha)``."""

    working_set_bytes: float
    alpha: float

    def __post_init__(self):
        if self.working_set_bytes <= 0:
            raise ValueError("working set must be positive")
        if self.alpha <= 0:
            raise ValueError("locality exponent must be positive")

    def miss_ratio_beyond(self, size_bytes: float) -> float:
        """Fraction of accesses that miss beyond a cache of *size_bytes*."""
        if size_bytes <= 0:
            return 1.0
        ratio = (self.working_set_bytes / size_bytes) ** self.alpha
        return min(1.0, ratio)

    @classmethod
    def from_l1_miss_ratio(cls, miss_ratio: float, alpha: float,
                           ref_bytes: float = 32 * KIB) -> "MissCurve":
        """Build a curve from an intuitive anchor.

        ``miss_ratio`` is the fraction of accesses missing a *ref_bytes*
        cache (default 32 KiB, a typical L1).  The characteristic size
        ``S0`` follows from inverting the power law.
        """
        if not 0.0 < miss_ratio <= 1.0:
            raise ValueError("miss ratio must be in (0, 1]")
        s0 = ref_bytes * miss_ratio ** (1.0 / alpha)
        return cls(s0, alpha)


class CacheHierarchy:
    """An ordered stack of :class:`CacheLevel` backed by DRAM.

    DRAM latency is composite: a wall-clock part (the DIMMs themselves,
    fixed nanoseconds) plus an optional core-clock part
    (``dram_latency_cycles``) for parts whose on-die fabric and memory
    controller clock with the cores — true of the Atom C2758 SoC, and the
    reason the little core's memory-bound time still shrinks as frequency
    rises (the paper's higher Atom frequency sensitivity, §3.1.1).
    """

    def __init__(self, levels: Sequence[CacheLevel], dram_latency_ns: float,
                 dram_latency_cycles: float = 0.0):
        if not levels:
            raise ValueError("hierarchy needs at least one cache level")
        sizes = [lv.size_bytes for lv in levels]
        if sizes != sorted(sizes):
            raise ValueError("cache levels must be ordered smallest to largest")
        if dram_latency_ns <= 0:
            raise ValueError("DRAM latency must be positive")
        if dram_latency_cycles < 0:
            raise ValueError("DRAM cycle latency must be non-negative")
        self.levels: Tuple[CacheLevel, ...] = tuple(levels)
        self.dram_latency_ns = dram_latency_ns
        self.dram_latency_cycles = dram_latency_cycles

    def dram_latency_seconds(self, freq_hz: float) -> float:
        """Total DRAM access latency at the given core frequency."""
        return self.dram_latency_ns * 1e-9 + self.dram_latency_cycles / freq_hz

    @property
    def depth(self) -> int:
        return len(self.levels)

    def l1_miss_ratio(self, curve: MissCurve) -> float:
        """Fraction of accesses missing the first level."""
        return curve.miss_ratio_beyond(self.levels[0].size_bytes)

    def stall_seconds_per_access(self, curve: MissCurve, freq_hz: float) -> float:
        """Average stall seconds per *memory access* (not per instruction).

        Sums, over every level past L1 plus DRAM, the fraction of accesses
        served there times that level's latency at the given frequency.
        """
        if freq_hz <= 0:
            raise ValueError("frequency must be positive")
        total = 0.0
        prev_miss = curve.miss_ratio_beyond(self.levels[0].size_bytes)
        for level in self.levels[1:]:
            this_miss = curve.miss_ratio_beyond(level.size_bytes)
            served = max(0.0, prev_miss - this_miss)
            total += served * level.latency_seconds(freq_hz)
            prev_miss = this_miss
        total += prev_miss * self.dram_latency_seconds(freq_hz)
        return total

    def describe(self) -> str:
        """One-line summary, e.g. ``L1d 24K -> L2 1M -> DRAM``."""
        def fmt(nbytes: float) -> str:
            if nbytes >= MIB:
                return f"{nbytes / MIB:g}M"
            return f"{nbytes / KIB:g}K"
        parts = [f"{lv.name} {fmt(lv.size_bytes)}" for lv in self.levels]
        return " -> ".join(parts + ["DRAM"])
