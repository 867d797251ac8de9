"""Time-series counters and histograms for the observability subsystem.

A :class:`Counter` is a step function over (simulated or wall) time: the
instrumented code pushes ``(time, value)`` samples and the exporters
render them as Perfetto counter tracks, timeline CSV columns, or ASCII
charts.  Samples are deduplicated (a sample that does not change the
value is dropped, and two samples at the same timestamp collapse to the
latest), so counters stay compact even when updated from hot scheduler
paths.

Counters never touch the wall clock themselves — the caller supplies
every timestamp — which is what keeps traces byte-identical across
``--jobs`` widths: simulated time is the only clock that ever reaches a
job trace.

A :class:`LogHistogram` is the distribution companion, and the one
histogram type in ``repro.obs``: fixed log-scale buckets over positive
durations plus a running sum, so the ``/metrics`` registry
(:mod:`repro.obs.registry`) and the load generator both report
p50/p95/p99 latencies, totals and means with O(1) recording cost and a
bounded, mergeable memory footprint.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, List, Optional, Tuple

__all__ = ["Counter", "LogHistogram"]


class Counter:
    """A named step-function counter: ``samples`` is [(time, value), ...]."""

    __slots__ = ("name", "unit", "value", "samples")

    def __init__(self, name: str, unit: str = ""):
        self.name = name
        self.unit = unit
        self.value: float = 0.0
        self.samples: List[Tuple[float, float]] = []

    def set(self, time: float, value: float) -> None:
        """Record that the counter holds *value* from *time* on."""
        self.value = value
        s = self.samples
        if s:
            last_t, last_v = s[-1]
            if last_t == time:          # same instant: keep the latest value
                s[-1] = (time, value)
                return
            if last_v == value:         # no step: sample adds no information
                return
        s.append((time, value))

    def add(self, time: float, delta: float) -> None:
        """Step the counter by *delta* at *time*."""
        self.set(time, self.value + delta)

    def value_at(self, time: float) -> float:
        """Counter value in effect at *time* (0 before the first sample).

        Sample timestamps are strictly increasing (dedup collapses equal
        instants), so a right-bisect lands just past the last sample at
        or before *time* — O(log n), where the old linear scan made the
        per-interval power-counter folding quadratic on long traces.
        """
        i = bisect.bisect_right(self.samples, (time, math.inf))
        return self.samples[i - 1][1] if i else 0.0

    def max_in(self, start: float, end: float) -> float:
        """Maximum value the step function takes inside ``[start, end]``."""
        out = self.value_at(start)
        lo = bisect.bisect_left(self.samples, (start, -math.inf))
        hi = bisect.bisect_right(self.samples, (end, math.inf))
        for _t, v in self.samples[lo:hi]:
            out = max(out, v)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Counter {self.name}={self.value} "
                f"({len(self.samples)} samples)>")


class LogHistogram:
    """Fixed-bucket log-scale histogram of positive values (seconds).

    Buckets span :data:`MIN_VALUE` × ``BASE**i`` for ``i`` in
    ``[0, N_BUCKETS)``; with ``BASE = sqrt(2)`` that is ~6.6 buckets per
    decade from 0.1 µs up past 1000 s — wide enough for any request
    latency, with ≤ ~19% relative quantization error
    per bucket (percentiles return the bucket's geometric midpoint).
    Values outside the range clamp to the edge buckets; exact ``min`` /
    ``max`` are tracked separately so clamping never hides an outlier,
    and ``sum`` keeps the exact running total (a Prometheus
    histogram's ``_sum``).
    """

    MIN_VALUE = 1e-7
    BASE = math.sqrt(2.0)
    N_BUCKETS = 80

    #: Exact bucket edges (``_EDGES[i]`` is bucket *i*'s inclusive low
    #: bound, ``_EDGES[i+1]`` its exclusive high) — filled in right
    #: after the class body.  Working from one shared table makes
    #: :meth:`bucket_of` and :meth:`bucket_bounds` agree at every edge
    #: by construction; the previous log-arithmetic ``bucket_of``
    #: picked up a half-ulp of division error and misfiled values
    #: sitting exactly on 79 of the 80 bucket boundaries.
    _EDGES: List[float] = []

    __slots__ = ("counts", "total", "sum", "min", "max")

    def __init__(self):
        self.counts: List[int] = [0] * self.N_BUCKETS
        self.total = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def bucket_of(self, value: float) -> int:
        """Index of the bucket *value* falls into (clamped to range).

        A right-bisect over the precomputed edge table: exact at every
        boundary and branch-free on the recording hot path (every
        observation calls it once).
        """
        if value <= self.MIN_VALUE:
            return 0
        i = bisect.bisect_right(self._EDGES, value) - 1
        return min(i, self.N_BUCKETS - 1)

    def bucket_bounds(self, index: int) -> Tuple[float, float]:
        """``[low, high)`` value bounds of bucket *index* — read from
        the same edge table :meth:`bucket_of` bisects, so the two can
        never disagree about which bucket owns a boundary."""
        return self._EDGES[index], self._EDGES[index + 1]

    def record(self, value: float, count: int = 1) -> None:
        """Record *count* observations of *value* (seconds)."""
        if count <= 0:
            return
        self.counts[self.bucket_of(value)] += count
        self.total += count
        self.sum += value * count
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    def observe(self, value: float) -> None:
        """Record one observation — the Prometheus spelling of
        :meth:`record`, for histogram children of a metrics family."""
        self.record(value)

    def merge(self, other: "LogHistogram") -> None:
        """Fold *other*'s observations into this histogram.

        Both sides must share the same bucket layout (same class
        constants); merging histograms with different shapes would
        silently misfile counts, so it raises instead.
        """
        if (len(other.counts) != len(self.counts)
                or other.MIN_VALUE != self.MIN_VALUE
                or other.BASE != self.BASE):
            raise ValueError(
                f"cannot merge histograms with different bucket layouts "
                f"({len(other.counts)} buckets, base {other.BASE}, "
                f"min {other.MIN_VALUE} vs {len(self.counts)}, "
                f"{self.BASE}, {self.MIN_VALUE})")
        for i, n in enumerate(other.counts):
            self.counts[i] += n
        self.total += other.total
        self.sum += other.sum
        if other.min is not None and (self.min is None
                                      or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None
                                      or other.max > self.max):
            self.max = other.max

    def percentile(self, p: float) -> float:
        """Approximate p-th percentile (``0 < p <= 100``).

        Returns the geometric midpoint of the bucket holding the p-th
        observation, clamped to the exact recorded ``[min, max]``; 0.0
        on an empty histogram.
        """
        if not 0.0 < p <= 100.0:
            raise ValueError(f"percentile must be in (0, 100], got {p!r}")
        if self.total == 0:
            return 0.0
        rank = math.ceil(self.total * p / 100.0)
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= rank:
                low, high = self.bucket_bounds(i)
                mid = math.sqrt(low * high)
                return min(max(mid, self.min), self.max)
        return self.max if self.max is not None else 0.0  # pragma: no cover

    def quantile(self, q: float) -> float:
        """Approximate q-th quantile for ``0 < q <= 1``.

        The fraction-spelled twin of :meth:`percentile` (``quantile(0.99)
        == percentile(99.0)``), for callers that carry quantiles as
        fractions (the load generator's latency reports).
        """
        if not 0.0 < q <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {q!r}")
        return self.percentile(q * 100.0)

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly snapshot (sparse buckets + summary quantiles)."""
        return {
            "total": self.total,
            "min_s": self.min,
            "max_s": self.max,
            "p50_s": self.percentile(50.0),
            "p95_s": self.percentile(95.0),
            "p99_s": self.percentile(99.0),
            "buckets": {str(i): n for i, n in enumerate(self.counts) if n},
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<LogHistogram n={self.total} "
                f"p50={self.percentile(50.0) if self.total else 0:.2g}s>")


# The table lives outside the class body because a class-scope
# comprehension cannot see class attributes (Python scoping).
LogHistogram._EDGES = [LogHistogram.MIN_VALUE * LogHistogram.BASE ** i
                       for i in range(LogHistogram.N_BUCKETS + 1)]
