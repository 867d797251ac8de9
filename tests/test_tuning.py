"""Tests for the configuration tuning advisor (extension)."""

from __future__ import annotations

import pytest

from repro.core.tuning import TuningAdvisor, TuningPoint


@pytest.fixture(scope="module")
def advisor(characterizer):
    # Micro grid keeps the module fast; full grids are exercised in
    # benchmarks via the figure drivers.
    return TuningAdvisor(characterizer, freqs_ghz=(1.2, 1.8),
                         blocks_mb=(64.0, 256.0))


class TestTuningPoint:
    def test_metric_family(self):
        p = TuningPoint(1.8, 64.0, 8, execution_time_s=10.0, energy_j=5.0)
        assert p.metric("ENERGY") == pytest.approx(5.0)
        assert p.metric("EDP") == pytest.approx(50.0)
        assert p.metric("ED2P") == pytest.approx(500.0)
        assert p.edp == p.metric("EDP")

    def test_unknown_goal(self):
        p = TuningPoint(1.8, 64.0, 8, 10.0, 5.0)
        with pytest.raises(KeyError):
            p.metric("FLOPS")


class TestEvaluate:
    def test_grid_size(self, advisor):
        points = advisor.evaluate("wordcount", "atom")
        assert len(points) == 4  # 2 freqs x 2 blocks

    def test_points_are_physical(self, advisor):
        for p in advisor.evaluate("grep", "xeon"):
            assert p.execution_time_s > 0
            assert p.energy_j > 0


class TestRecommend:
    def test_best_no_worse_than_default(self, advisor):
        for machine in ("atom", "xeon"):
            rec = advisor.recommend("wordcount", machine, goal="EDP")
            assert rec.improvement >= 1.0
            assert rec.goal == "EDP"

    def test_tuned_block_beats_default(self, advisor):
        """WC's EDP optimum is not the 64 MB default (§3.1.1)."""
        rec = advisor.recommend("wordcount", "atom", goal="EDP")
        assert rec.best.block_size_mb == 256.0

    def test_deadline_constrains_choice(self, advisor):
        loose = advisor.recommend("wordcount", "atom", goal="ENERGY")
        tight = advisor.recommend(
            "wordcount", "atom", goal="ENERGY",
            deadline_s=loose.default.execution_time_s * 1.01)
        assert tight.feasible
        assert (tight.best.execution_time_s
                <= loose.default.execution_time_s * 1.01)

    def test_impossible_deadline_flagged(self, advisor):
        rec = advisor.recommend("wordcount", "atom", deadline_s=0.001)
        assert not rec.feasible

