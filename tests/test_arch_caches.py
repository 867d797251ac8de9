"""Unit and property tests for the cache hierarchy model."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from repro.arch.caches import (KIB, MIB, CacheHierarchy, CacheLevel,
                               MissCurve)


def _hierarchy(dram_ns=80.0, dram_cycles=0.0):
    return CacheHierarchy(
        [CacheLevel("L1d", 32 * KIB, latency_cycles=4),
         CacheLevel("L2", 256 * KIB, latency_cycles=12),
         CacheLevel("L3", 15 * MIB, latency_cycles=30)],
        dram_latency_ns=dram_ns, dram_latency_cycles=dram_cycles)


class TestCacheLevel:
    def test_core_domain_latency_scales_with_frequency(self):
        level = CacheLevel("L2", 256 * KIB, latency_cycles=12)
        assert level.latency_seconds(2e9) == pytest.approx(6e-9)
        assert level.latency_seconds(1e9) == pytest.approx(12e-9)

    def test_wall_domain_latency_fixed(self):
        level = CacheLevel("Lw", 1 * MIB, latency_ns=50.0,
                           core_clock_domain=False)
        assert level.latency_seconds(1e9) == level.latency_seconds(3e9)

    def test_validation(self):
        with pytest.raises(ValueError):
            CacheLevel("bad", 0, latency_cycles=4)
        with pytest.raises(ValueError):
            CacheLevel("bad", 1024, latency_cycles=0)
        with pytest.raises(ValueError):
            CacheLevel("bad", 1024, core_clock_domain=False)


class TestMissCurve:
    def test_clamped_at_one_below_characteristic_size(self):
        curve = MissCurve(working_set_bytes=64 * KIB, alpha=0.5)
        assert curve.miss_ratio_beyond(32 * KIB) == 1.0

    def test_power_law_decay(self):
        curve = MissCurve(working_set_bytes=1 * KIB, alpha=1.0)
        assert curve.miss_ratio_beyond(2 * KIB) == pytest.approx(0.5)
        assert curve.miss_ratio_beyond(4 * KIB) == pytest.approx(0.25)

    def test_from_l1_anchor_roundtrip(self):
        curve = MissCurve.from_l1_miss_ratio(0.08, alpha=0.6)
        assert curve.miss_ratio_beyond(32 * KIB) == pytest.approx(0.08)

    def test_validation(self):
        with pytest.raises(ValueError):
            MissCurve(0, 0.5)
        with pytest.raises(ValueError):
            MissCurve(1024, 0)
        with pytest.raises(ValueError):
            MissCurve.from_l1_miss_ratio(0.0, 0.5)
        with pytest.raises(ValueError):
            MissCurve.from_l1_miss_ratio(1.5, 0.5)

    @given(st.floats(min_value=0.001, max_value=1.0),
           st.floats(min_value=0.1, max_value=2.0),
           st.floats(min_value=1.0, max_value=1e9),
           st.floats(min_value=1.0, max_value=1e9))
    def test_monotone_non_increasing_in_size(self, m1, alpha, s_a, s_b):
        curve = MissCurve.from_l1_miss_ratio(m1, alpha)
        small, big = min(s_a, s_b), max(s_a, s_b)
        assert curve.miss_ratio_beyond(small) >= curve.miss_ratio_beyond(big)

    @given(st.floats(min_value=0.001, max_value=1.0),
           st.floats(min_value=0.1, max_value=2.0),
           st.floats(min_value=1.0, max_value=1e12))
    def test_ratio_stays_in_unit_interval(self, m1, alpha, size):
        curve = MissCurve.from_l1_miss_ratio(m1, alpha)
        assert 0.0 <= curve.miss_ratio_beyond(size) <= 1.0


class TestCacheHierarchy:
    def test_levels_must_grow(self):
        with pytest.raises(ValueError):
            CacheHierarchy(
                [CacheLevel("L1", 64 * KIB, latency_cycles=4),
                 CacheLevel("L2", 32 * KIB, latency_cycles=12)],
                dram_latency_ns=80.0)

    def test_needs_a_level(self):
        with pytest.raises(ValueError):
            CacheHierarchy([], dram_latency_ns=80.0)

    def test_bigger_llc_reduces_stalls(self):
        small = CacheHierarchy(
            [CacheLevel("L1", 32 * KIB, latency_cycles=4),
             CacheLevel("L2", 1 * MIB, latency_cycles=17)],
            dram_latency_ns=100.0)
        big = _hierarchy(dram_ns=100.0)
        curve = MissCurve.from_l1_miss_ratio(0.2, 0.5)
        assert (big.stall_seconds_per_access(curve, 1.8e9)
                < small.stall_seconds_per_access(curve, 1.8e9))

    def test_core_domain_dram_component_scales_with_frequency(self):
        fixed = _hierarchy(dram_ns=100.0, dram_cycles=0.0)
        scaled = _hierarchy(dram_ns=50.0, dram_cycles=90.0)
        assert fixed.dram_latency_seconds(1e9) == pytest.approx(100e-9)
        assert scaled.dram_latency_seconds(1e9) == pytest.approx(140e-9)
        assert scaled.dram_latency_seconds(3e9) == pytest.approx(80e-9)

    def test_stall_seconds_decrease_with_frequency(self):
        h = _hierarchy()
        curve = MissCurve.from_l1_miss_ratio(0.2, 0.5)
        slow = h.stall_seconds_per_access(curve, 1.2e9)
        fast = h.stall_seconds_per_access(curve, 1.8e9)
        assert fast < slow  # core-domain components shrink

    def test_invalid_frequency(self):
        h = _hierarchy()
        curve = MissCurve.from_l1_miss_ratio(0.2, 0.5)
        with pytest.raises(ValueError):
            h.stall_seconds_per_access(curve, 0.0)

    def test_describe_mentions_all_levels(self):
        text = _hierarchy().describe()
        for token in ("L1d", "L2", "L3", "DRAM"):
            assert token in text

    @given(st.floats(min_value=0.01, max_value=0.9),
           st.floats(min_value=0.2, max_value=1.2))
    def test_stalls_non_negative(self, m1, alpha):
        h = _hierarchy()
        curve = MissCurve.from_l1_miss_ratio(m1, alpha)
        assert h.stall_seconds_per_access(curve, 1.8e9) >= 0.0
