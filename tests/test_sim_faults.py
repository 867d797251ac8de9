"""Unit tests for the deterministic fault-injection plans."""

from __future__ import annotations

from math import inf, nan

import pytest
from hypothesis import given, strategies as st

from repro.sim.faults import FaultPlan, NodeFault, unit_draw


class TestUnitDraw:
    def test_in_unit_interval(self):
        for i in range(50):
            u = unit_draw(7, "label", str(i))
            assert 0.0 <= u < 1.0

    def test_deterministic(self):
        assert unit_draw(3, "fail", "s0.m1", "0") == unit_draw(
            3, "fail", "s0.m1", "0")

    def test_seed_sensitivity(self):
        assert unit_draw(1, "fail", "t") != unit_draw(2, "fail", "t")

    def test_label_sensitivity(self):
        assert unit_draw(1, "fail", "t0") != unit_draw(1, "fail", "t1")

    @given(st.integers(min_value=0, max_value=2 ** 32),
           st.text(max_size=20))
    def test_always_in_range(self, seed, label):
        assert 0.0 <= unit_draw(seed, label) < 1.0


class TestNodeFault:
    def test_defaults_are_healthy(self):
        nf = NodeFault("atom0")
        assert nf.crash_at_s is None
        assert nf.disk_slowdown == 1.0
        assert nf.compute_slowdown == 1.0

    def test_negative_crash_time_rejected(self):
        with pytest.raises(ValueError):
            NodeFault("atom0", crash_at_s=-1.0)

    def test_sub_unity_slowdowns_rejected(self):
        with pytest.raises(ValueError):
            NodeFault("atom0", disk_slowdown=0.5)
        with pytest.raises(ValueError):
            NodeFault("atom0", compute_slowdown=0.9)

    @pytest.mark.parametrize("bad", [nan, inf])
    def test_non_finite_crash_time_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            NodeFault("atom0", crash_at_s=bad)

    @pytest.mark.parametrize("bad", [nan, inf])
    @pytest.mark.parametrize("knob", ["disk_slowdown", "compute_slowdown"])
    def test_non_finite_slowdowns_rejected(self, knob, bad):
        """A NaN disk slowdown used to reach the calendar as a NaN
        service time; an infinite one divided by zero mid-run."""
        with pytest.raises(ValueError, match="finite"):
            NodeFault("atom0", **{knob: bad})


class TestFaultPlanValidation:
    def test_default_plan_is_quiet(self):
        assert FaultPlan().is_quiet

    def test_bad_probabilities_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(task_fail_prob=1.5)
        with pytest.raises(ValueError):
            FaultPlan(straggler_prob=-0.1)

    def test_bad_straggler_range_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(straggler_slowdown=(0.5, 2.0))
        with pytest.raises(ValueError):
            FaultPlan(straggler_slowdown=(4.0, 2.0))

    @pytest.mark.parametrize("bounds", [(nan, 2.0), (1.0, nan), (nan, nan),
                                        (2.0, inf), (inf, inf)])
    def test_non_finite_straggler_range_rejected(self, bounds):
        with pytest.raises(ValueError, match="< inf"):
            FaultPlan(straggler_slowdown=bounds)

    def test_duplicate_node_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(node_faults=(NodeFault("a0"), NodeFault("a0")))

    def test_slow_task_factor_below_one_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan(slow_tasks=(("s0.m0", 0.5),))

    @pytest.mark.parametrize("bad", [nan, inf])
    def test_non_finite_slow_task_factor_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            FaultPlan(slow_tasks=(("s0.m0", bad),))

    def test_quietness_sees_every_knob(self):
        assert not FaultPlan(task_fail_prob=0.1).is_quiet
        assert not FaultPlan(straggler_prob=0.1).is_quiet
        assert not FaultPlan(slow_tasks=(("t", 2.0),)).is_quiet
        assert not FaultPlan(
            node_faults=(NodeFault("a0", crash_at_s=5.0),)).is_quiet
        assert FaultPlan(node_faults=(NodeFault("a0"),)).is_quiet


class TestCrashRateConstructor:
    NODES = ("atom0", "atom1", "atom2")

    def test_zero_rate_is_quiet(self):
        plan = FaultPlan.with_crash_rate(5, self.NODES, 0.0)
        assert plan.node_faults == ()
        assert plan.is_quiet

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            FaultPlan.with_crash_rate(5, self.NODES, -1.0)

    @pytest.mark.parametrize("bad", [nan, inf])
    def test_non_finite_rate_rejected(self, bad):
        """A NaN rate used to give a quiet plan, an infinite one a
        crash of every node at t=0."""
        with pytest.raises(ValueError, match="finite"):
            FaultPlan.with_crash_rate(0, self.NODES, bad)

    def test_positive_rate_draws_per_node_times(self):
        plan = FaultPlan.with_crash_rate(5, self.NODES, 5.0)
        assert len(plan.node_faults) == 3
        for nf in plan.node_faults:
            assert nf.crash_at_s is not None
            assert nf.crash_at_s > 0
        assert not plan.is_quiet

    def test_deterministic_in_seed(self):
        a = FaultPlan.with_crash_rate(5, self.NODES, 5.0)
        b = FaultPlan.with_crash_rate(5, self.NODES, 5.0)
        c = FaultPlan.with_crash_rate(6, self.NODES, 5.0)
        assert a == b
        assert a != c

    def test_higher_rate_crashes_sooner(self):
        slow = FaultPlan.with_crash_rate(5, self.NODES, 1.0)
        fast = FaultPlan.with_crash_rate(5, self.NODES, 100.0)
        for s, f in zip(slow.node_faults, fast.node_faults):
            assert f.crash_at_s < s.crash_at_s

    def test_overrides_pass_through(self):
        plan = FaultPlan.with_crash_rate(5, self.NODES, 0.0,
                                         task_fail_prob=0.25)
        assert plan.task_fail_prob == 0.25


class TestPerAttemptDraws:
    def test_zero_prob_never_fails(self):
        plan = FaultPlan(seed=1, task_fail_prob=0.0)
        assert not any(plan.attempt_fails(f"t{i}", 0) for i in range(100))

    def test_unit_prob_always_fails(self):
        plan = FaultPlan(seed=1, task_fail_prob=1.0)
        assert all(plan.attempt_fails(f"t{i}", 0) for i in range(100))

    def test_draws_are_order_independent(self):
        plan = FaultPlan(seed=9, task_fail_prob=0.5)
        forward = [plan.attempt_fails("s0.m3", a) for a in range(8)]
        backward = [plan.attempt_fails("s0.m3", a) for a in reversed(range(8))]
        assert forward == list(reversed(backward))

    def test_failure_point_range(self):
        plan = FaultPlan(seed=2, task_fail_prob=1.0)
        for i in range(50):
            p = plan.failure_point(f"t{i}", 0)
            assert 0.05 <= p < 0.95

    def test_slow_tasks_hit_first_attempt_only(self):
        plan = FaultPlan(seed=0, slow_tasks=(("s0.m0", 4.0),))
        assert plan.slowdown("s0.m0", 0) == 4.0
        assert plan.slowdown("s0.m0", 1) == 1.0  # backup runs clean
        assert plan.slowdown("s0.m1", 0) == 1.0

    def test_straggler_factor_within_range(self):
        plan = FaultPlan(seed=4, straggler_prob=1.0,
                         straggler_slowdown=(2.0, 6.0))
        for i in range(50):
            factor = plan.slowdown(f"t{i}", 0)
            assert 2.0 <= factor <= 6.0

    def test_healthy_plan_never_slows(self):
        plan = FaultPlan(seed=4)
        assert all(plan.slowdown(f"t{i}", 0) == 1.0 for i in range(20))

    def test_node_lookups(self):
        nf = NodeFault("x1", crash_at_s=12.0)
        plan = FaultPlan(node_faults=(nf,))
        assert plan.node_fault("x1") is nf
        assert plan.node_fault("x0") is None
