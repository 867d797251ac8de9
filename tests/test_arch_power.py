"""Unit tests for the power model and energy integration."""

from __future__ import annotations

import pytest

from repro.arch.dvfs import OperatingPoint
from repro.arch.power import (EnergyBreakdown, NodePower, PowerSpec,
                              integrate_energy, node_uplift)
from repro.sim.trace import Interval, TraceRecorder


def _spec(**overrides):
    params = dict(base_watts=20.0, core_dynamic_coeff=2.0,
                  core_static_uplift=1.0, disk_active_uplift=5.0,
                  nic_active_uplift=2.0, idle_voltage=0.8,
                  job_active_uplift=3.0)
    params.update(overrides)
    return PowerSpec(**params)


def _power(freq_ghz=2.0, voltage=1.0):
    return NodePower(_spec(), OperatingPoint(freq_ghz * 1e9, voltage))


class TestPowerSpec:
    def test_negative_coefficient_rejected(self):
        with pytest.raises(ValueError):
            _spec(base_watts=-1.0)


class TestNodePower:
    def test_core_uplift_formula(self):
        power = _power(freq_ghz=2.0, voltage=1.0)
        # dyn = 2.0 * 1.0^2 * 2.0 * act; static = 1.0 * (1.0 - 0.8)
        assert power.core_uplift(1.0) == pytest.approx(4.0 + 0.2)
        assert power.core_uplift(0.5) == pytest.approx(2.0 + 0.2)

    def test_activity_validated(self):
        with pytest.raises(ValueError):
            _power().core_uplift(1.5)

    def test_device_uplifts(self):
        power = _power()
        for device, expected in (("disk", 5.0), ("nic", 2.0),
                                 ("uncore", 3.0)):
            iv = Interval(0, 1, "n", device, "k")
            assert power.interval_uplift(iv) == pytest.approx(expected)

    def test_fw_uses_fw_activity(self):
        power = _power()
        iv = Interval(0, 1, "n", "fw", "k")
        assert power.interval_uplift(iv) == pytest.approx(
            power.core_uplift(0.3))

    def test_unknown_device_rejected(self):
        with pytest.raises(ValueError):
            _power().interval_uplift(Interval(0, 1, "n", "gpu", "k"))

    def test_idle_is_base(self):
        assert _power().idle_watts == pytest.approx(20.0)


class TestIntegrateEnergy:
    def _trace(self):
        tr = TraceRecorder()
        tr.add(0, 10, "n0", "disk", "read", phase="map")
        tr.add(0, 4, "n0", "core", "compute", activity=1.0, phase="map")
        tr.add(10, 14, "n0", "nic", "shuffle", phase="reduce")
        return tr

    def test_hand_computed_total(self):
        power = _power(freq_ghz=2.0, voltage=1.0)
        breakdown = integrate_energy(self._trace(), {"n0": power},
                                     makespan=14.0)
        expected = (10 * 5.0          # disk
                    + 4 * (4.0 + 0.2)  # core at activity 1
                    + 4 * 2.0)         # nic
        assert breakdown.dynamic_joules == pytest.approx(expected)

    def test_phase_attribution(self):
        breakdown = integrate_energy(self._trace(), {"n0": _power()},
                                     makespan=14.0)
        assert breakdown.phase_energy("map") == pytest.approx(
            10 * 5.0 + 4 * 4.2)
        assert breakdown.phase_energy("reduce") == pytest.approx(8.0)
        assert breakdown.phase_energy("other") == 0.0

    def test_device_and_node_attribution(self):
        breakdown = integrate_energy(self._trace(), {"n0": _power()},
                                     makespan=14.0)
        assert breakdown.by_device["disk"] == pytest.approx(50.0)
        assert breakdown.by_node["n0"] == breakdown.dynamic_joules

    def test_average_dynamic_watts(self):
        breakdown = integrate_energy(self._trace(), {"n0": _power()},
                                     makespan=14.0)
        assert breakdown.average_dynamic_watts == pytest.approx(
            breakdown.dynamic_joules / 14.0)

    def test_total_includes_idle_floor(self):
        breakdown = integrate_energy(self._trace(), {"n0": _power()},
                                     makespan=14.0)
        assert breakdown.total_joules == pytest.approx(
            breakdown.dynamic_joules + 20.0 * 14.0)

    def test_makespan_defaults_to_span(self):
        breakdown = integrate_energy(self._trace(), {"n0": _power()})
        assert breakdown.makespan == pytest.approx(14.0)

    def test_empty_trace(self):
        breakdown = integrate_energy(TraceRecorder(), {"n0": _power()})
        assert breakdown.dynamic_joules == 0.0
        assert breakdown.average_dynamic_watts == 0.0


class TestStreamingFold:
    """A recorder built with an uplift folds as it records; the result
    must equal integrating the same rows afterwards, to the last bit."""

    RECORDS = (
        (0.0, 10.0, "n0", "disk", "read", 1.0, "t1", "map"),
        (0.0, 4.0, "n0", "core", "compute", 0.7, "t1", "map"),
        (0.1, 3.3, "n1", "fw", "startup", 1.0, None, "other"),
        (10.0, 14.0, "n1", "nic", "shuffle", 1.0, "t2", "reduce"),
        (4.0, 9.5, "n0", "core", "compute", 0.7, "t1", "map"),
        (0.0, 14.0, "n1", "uncore", "job.active", 1.0, None, "other"),
    )

    def _pair(self):
        power = {"n0": _power(), "n1": _power(freq_ghz=1.2, voltage=0.9)}
        kept = TraceRecorder()
        folded = TraceRecorder(uplift=node_uplift(power))
        for tr in (kept, folded):
            for record in self.RECORDS[:-1]:
                tr.add(*record)
            tr.record(Interval(*self.RECORDS[-1]))
        return power, kept, folded

    def test_fold_equals_integrated_rows(self):
        power, kept, folded = self._pair()
        assert repr(integrate_energy(folded, power, makespan=14.0)) == repr(
            integrate_energy(kept, power, makespan=14.0))

    def test_fold_keeps_no_rows(self):
        power, kept, folded = self._pair()
        assert len(kept) == len(self.RECORDS)
        assert len(folded) == 0
        assert folded.folds and not kept.folds
        with pytest.raises(ValueError, match="keeps no rows"):
            folded.span()
        with pytest.raises(ValueError, match="keeps no rows"):
            integrate_energy(folded, power)   # no span to default to
        with pytest.raises(ValueError, match="no energy fold"):
            kept.energy_fold()

    def test_fold_still_validates_records(self):
        _, _, folded = self._pair()
        with pytest.raises(ValueError, match="ends before it starts"):
            folded.add(2.0, 1.0, "n0", "core", "bad")

    def test_fold_result_does_not_alias_the_recorder(self):
        power, _, folded = self._pair()
        before = integrate_energy(folded, power, makespan=14.0)
        snapshot = repr(before)
        folded.add(14.0, 15.0, "n0", "disk", "late", phase="map")
        assert repr(before) == snapshot
