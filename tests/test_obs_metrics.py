"""Unit tests for obs.metrics: Counter and the promoted LogHistogram API."""

import math

import pytest

from repro.obs.metrics import Counter, LogHistogram
from repro.obs.spans import Tracer


class TestCounter:
    def test_step_function_semantics(self):
        c = Counter("maps", "tasks")
        c.set(0.0, 2.0)
        c.add(1.0, 3.0)
        assert c.value == 5.0
        assert c.value_at(-1.0) == 0.0
        assert c.value_at(0.5) == 2.0
        assert c.value_at(1.0) == 5.0

    def test_dedup_keeps_samples_compact(self):
        c = Counter("x")
        c.set(0.0, 1.0)
        c.set(1.0, 1.0)            # no step: dropped
        c.set(2.0, 2.0)
        c.set(2.0, 3.0)            # same instant: collapsed
        assert c.samples == [(0.0, 1.0), (2.0, 3.0)]

    def test_registry_creates_on_first_use(self):
        tracer = Tracer()
        a = tracer.counter("a", "J")
        assert tracer.counter("a") is a
        assert tracer.counters == {"a": a} and a.unit == "J"


class TestBucketEdges:
    def test_bucket_of_agrees_with_bucket_bounds_everywhere(self):
        """The regression the boundary snap fixed: for every bucket,
        values at and just inside its exact bounds must land in it."""
        h = LogHistogram()
        for i in range(h.N_BUCKETS):
            low, high = h.bucket_bounds(i)
            assert h.bucket_of(low) == i, f"low edge of bucket {i}"
            below_high = math.nextafter(high, 0.0)
            assert h.bucket_of(below_high) == i, \
                f"value just below high edge of bucket {i}"
            if i + 1 < h.N_BUCKETS:
                assert h.bucket_of(high) == i + 1, \
                    f"high edge must open bucket {i + 1}"

    def test_out_of_range_values_clamp(self):
        h = LogHistogram()
        assert h.bucket_of(0.0) == 0
        assert h.bucket_of(1e-12) == 0
        assert h.bucket_of(1e12) == h.N_BUCKETS - 1

    def test_min_max_survive_clamping(self):
        h = LogHistogram()
        h.record(1e-12)
        h.record(1e12)
        assert h.min == 1e-12 and h.max == 1e12


class TestQuantiles:
    def test_quantile_matches_percentile(self):
        h = LogHistogram()
        for v in (0.001, 0.002, 0.004, 0.008, 0.016):
            h.record(v)
        for q in (0.5, 0.9, 0.95, 0.99, 1.0):
            assert h.quantile(q) == h.percentile(q * 100.0)

    def test_quantile_accuracy_within_bucket_width(self):
        h = LogHistogram()
        values = [0.0001 * (1.09 ** i) for i in range(200)]
        for v in values:
            h.record(v)
        values.sort()
        for q in (0.5, 0.95, 0.99):
            exact = values[min(int(q * len(values)), len(values) - 1)]
            approx = h.quantile(q)
            # one bucket is a factor of sqrt(2); allow one bucket of slack
            assert exact / h.BASE <= approx <= exact * h.BASE

    def test_quantile_domain_validation(self):
        h = LogHistogram()
        h.record(0.5)
        for bad in (0.0, -0.1, 1.0001):
            with pytest.raises(ValueError):
                h.quantile(bad)
        with pytest.raises(ValueError):
            h.percentile(0.0)

    def test_empty_histogram_quantile_is_zero(self):
        assert LogHistogram().quantile(0.99) == 0.0


class TestMerge:
    def test_merge_equals_recording_into_one(self):
        a, b, combined = LogHistogram(), LogHistogram(), LogHistogram()
        left = [0.001 * (1.3 ** i) for i in range(40)]
        right = [0.01 * (1.7 ** i) for i in range(25)]
        for v in left:
            a.record(v)
            combined.record(v)
        for v in right:
            b.record(v)
            combined.record(v)
        a.merge(b)
        assert a.counts == combined.counts
        assert a.total == combined.total
        assert a.min == combined.min and a.max == combined.max
        for q in (0.5, 0.95, 0.99, 1.0):
            assert a.quantile(q) == combined.quantile(q)

    def test_merge_into_empty_and_with_empty(self):
        a, b = LogHistogram(), LogHistogram()
        b.record(0.25, count=3)
        a.merge(b)                   # empty <- populated
        assert a.total == 3 and a.min == 0.25 and a.max == 0.25
        a.merge(LogHistogram())      # populated <- empty
        assert a.total == 3 and a.min == 0.25

    def test_merge_rejects_mismatched_layouts(self):
        a = LogHistogram()
        b = LogHistogram()
        b.counts = b.counts[:-1]     # simulate a different N_BUCKETS
        with pytest.raises(ValueError):
            a.merge(b)

    def test_merge_is_associative_on_quantiles(self):
        parts = []
        for seed in range(3):
            h = LogHistogram()
            for i in range(30):
                h.record(0.0005 * (1.4 ** ((seed * 31 + i * 7) % 37)))
            parts.append(h)
        left = LogHistogram()
        for h in parts:
            left.merge(h)
        right = LogHistogram()
        for h in reversed(parts):
            right.merge(h)
        assert left.counts == right.counts
        assert left.quantile(0.99) == right.quantile(0.99)


class TestSnapshot:
    def test_to_dict_round_trips_sparse_buckets(self):
        h = LogHistogram()
        h.record(0.002, count=5)
        h.record(7.5)
        d = h.to_dict()
        assert d["total"] == 6
        assert d["min_s"] == 0.002 and d["max_s"] == 7.5
        assert sum(d["buckets"].values()) == 6
        rebuilt = LogHistogram()
        for idx, n in d["buckets"].items():
            rebuilt.counts[int(idx)] = n
        assert rebuilt.counts == h.counts
