"""Unit and property tests for the interval trace recorder."""

from __future__ import annotations

from math import inf, nan

import pytest
from hypothesis import given, strategies as st

from repro.sim.trace import (Interval, TraceRecorder, complement,
                             merge_intervals, total_overlap)

spans = st.tuples(st.floats(min_value=0, max_value=1000),
                  st.floats(min_value=0, max_value=1000)).map(
                      lambda t: (min(t), max(t)))


#: (start, end) pairs with a NaN or infinite end or duration.
NON_FINITE_SPANS = [(0.0, nan), (nan, 1.0), (nan, nan), (0.0, inf),
                    (-inf, 1.0), (inf, inf)]


def _iv(start, end, node="n0", device="core", kind="work", activity=1.0,
        phase="map"):
    return Interval(start, end, node, device, kind, activity, None, phase)


class TestInterval:
    def test_duration(self):
        assert _iv(1.0, 3.5).duration == pytest.approx(2.5)

    def test_backwards_interval_rejected(self):
        with pytest.raises(ValueError):
            _iv(5.0, 1.0)

    def test_activity_range_enforced(self):
        with pytest.raises(ValueError):
            _iv(0, 1, activity=1.5)
        with pytest.raises(ValueError):
            _iv(0, 1, activity=-0.1)

    def test_zero_length_allowed(self):
        assert _iv(2.0, 2.0).duration == 0.0

    @pytest.mark.parametrize("start, end", NON_FINITE_SPANS)
    def test_non_finite_interval_rejected(self, start, end):
        with pytest.raises(ValueError, match="not finite"):
            _iv(start, end)


class TestNonFiniteRecords:
    """Both recorder kinds refuse a NaN or infinite record.

    A folding recorder used to turn its joules total and every split
    into NaN from one such record.
    """

    def _recorders(self):
        return [TraceRecorder(), TraceRecorder(lambda node, dev, act: 2.0)]

    @pytest.mark.parametrize("start, end", NON_FINITE_SPANS)
    def test_add_rejects(self, start, end):
        for tr in self._recorders():
            with pytest.raises(ValueError, match="not finite"):
                tr.add(start, end, "n0", "core", "work")
            assert len(tr) == 0

    def test_fold_stays_finite(self):
        tr = self._recorders()[1]
        tr.add(0.0, 1.0, "n0", "core", "work")
        with pytest.raises(ValueError):
            tr.add(0.0, nan, "n0", "core", "work")
        assert tr.energy_fold() == (2.0, {"other": 2.0}, {"core": 2.0},
                                    {"n0": 2.0})


class TestTraceRecorder:
    def _populated(self):
        tr = TraceRecorder()
        tr.record(_iv(0, 2, node="a", device="core", phase="map"))
        tr.record(_iv(1, 4, node="a", device="disk", phase="map"))
        tr.record(_iv(3, 6, node="b", device="core", phase="reduce"))
        return tr

    def test_len_and_iter(self):
        tr = self._populated()
        assert len(tr) == 3
        assert len(list(tr)) == 3

    def test_filter_by_node(self):
        tr = self._populated()
        assert len(tr.filter(node="a")) == 2

    def test_filter_by_device_and_phase(self):
        tr = self._populated()
        assert len(tr.filter(device="core", phase="reduce")) == 1

    def test_filter_kind_prefix(self):
        tr = TraceRecorder()
        tr.add(0, 1, "n", "core", "map.compute")
        tr.add(1, 2, "n", "core", "map.sort")
        tr.add(2, 3, "n", "core", "reduce.user")
        assert len(tr.filter(kind="map")) == 2

    def test_span(self):
        tr = self._populated()
        assert tr.span() == (0.0, 6.0)

    def test_empty_span(self):
        assert TraceRecorder().span() == (0.0, 0.0)

    def test_busy_time_double_counts_overlap(self):
        tr = self._populated()
        assert tr.busy_time(node="a") == pytest.approx(5.0)

    def test_phase_window_coalesces(self):
        tr = self._populated()
        assert tr.phase_window("map") == (0.0, 4.0)

    def test_marks(self):
        tr = TraceRecorder()
        tr.mark(1.5, "job submitted")
        assert tr.marks == [(1.5, "job submitted")]


class TestMergeIntervals:
    def test_disjoint_preserved(self):
        assert merge_intervals([(0, 1), (2, 3)]) == [(0, 1), (2, 3)]

    def test_overlap_coalesced(self):
        assert merge_intervals([(0, 2), (1, 3)]) == [(0, 3)]

    def test_touching_coalesced(self):
        assert merge_intervals([(0, 1), (1, 2)]) == [(0, 2)]

    def test_empty_spans_dropped(self):
        assert merge_intervals([(1, 1), (2, 2)]) == []

    def test_zero_length_inside_span_dropped(self):
        assert merge_intervals([(0, 3), (1, 1)]) == [(0, 3)]

    def test_touching_after_merge_coalesced(self):
        # (0,1) and (1,2) only become adjacent once sorted.
        assert merge_intervals([(1, 2), (0, 1), (2, 2)]) == [(0, 2)]

    def test_backwards_span_raises(self):
        # Silently dropping a backwards span hid accounting bugs; it is
        # now a hard error.
        with pytest.raises(ValueError, match="backwards span"):
            merge_intervals([(5.0, 1.0)])

    def test_unsorted_input(self):
        assert merge_intervals([(5, 6), (0, 1), (0.5, 5.5)]) == [(0, 6)]

    @given(st.lists(spans, max_size=30))
    def test_output_is_disjoint_and_sorted(self, intervals):
        merged = merge_intervals(intervals)
        for (s1, e1), (s2, e2) in zip(merged, merged[1:]):
            assert e1 < s2
        for s, e in merged:
            assert s < e

    @given(st.lists(spans, max_size=30))
    def test_merge_is_idempotent(self, intervals):
        once = merge_intervals(intervals)
        assert merge_intervals(once) == once

    @given(st.lists(spans, max_size=30))
    def test_overlap_bounded_by_sum(self, intervals):
        covered = total_overlap(intervals)
        raw = sum(e - s for s, e in intervals)
        assert covered <= raw + 1e-9

    @given(st.lists(spans, max_size=30))
    def test_overlap_covers_each_span(self, intervals):
        covered = total_overlap(intervals)
        longest = max((e - s for s, e in intervals), default=0.0)
        assert covered >= longest - 1e-9


class TestComplement:
    def test_empty_spans_give_whole_window(self):
        assert complement([], 0.0, 10.0) == [(0.0, 10.0)]

    def test_gaps_between_spans(self):
        assert complement([(1, 2), (4, 6)], 0.0, 10.0) == \
            [(0.0, 1), (2, 4), (6, 10.0)]

    def test_full_coverage_gives_nothing(self):
        assert complement([(0, 5), (5, 10)], 0.0, 10.0) == []

    def test_spans_outside_window_clipped(self):
        assert complement([(-5, 1), (9, 20)], 0.0, 10.0) == [(1, 9)]

    def test_zero_length_spans_ignored(self):
        assert complement([(3, 3)], 0.0, 10.0) == [(0.0, 10.0)]

    def test_backwards_span_raises(self):
        with pytest.raises(ValueError):
            complement([(5.0, 1.0)], 0.0, 10.0)

    def test_backwards_window_raises(self):
        with pytest.raises(ValueError, match="empty window"):
            complement([], 5.0, 1.0)

    @given(st.lists(spans, max_size=30))
    def test_partitions_window_with_merge(self, intervals):
        lo, hi = 0.0, 1000.0
        gaps = complement(intervals, lo, hi)
        merged = merge_intervals(intervals)
        clipped = sum(min(e, hi) - max(s, lo)
                      for s, e in merged if e > lo and s < hi)
        assert sum(e - s for s, e in gaps) + clipped == \
            pytest.approx(hi - lo)
        for (s1, e1), (s2, e2) in zip(gaps, gaps[1:]):
            assert e1 <= s2
