"""Unit and property tests for the analytical core model."""

from __future__ import annotations

import dataclasses
import os
import pickle
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.arch.caches import KIB, MIB, CacheHierarchy, CacheLevel
from repro.arch.cores import CoreSpec, CpuProfile, scale_profile
from repro.arch.presets import ATOM_C2758, XEON_E5_2420

GHZ = 1e9
ROOT = Path(__file__).resolve().parent.parent


def _profile(**overrides):
    params = dict(ilp=2.0, apki=400.0, l1_miss_ratio=0.08,
                  locality_alpha=0.6, branch_mpki=4.0, frontend_mpki=2.0)
    params.update(overrides)
    return CpuProfile.characterized("test", **params)


def _core(issue=4, hide=0.6, mlp=4.0, **overrides):
    hierarchy = CacheHierarchy(
        [CacheLevel("L1", 32 * KIB, latency_cycles=4),
         CacheLevel("L2", 256 * KIB, latency_cycles=12)],
        dram_latency_ns=80.0)
    params = dict(name="test-core", microarch="test", issue_width=issue,
                  pipeline_depth=14, out_of_order=True, stall_hide=hide,
                  mlp=mlp, hierarchy=hierarchy)
    params.update(overrides)
    return CoreSpec(**params)


class TestCpuProfile:
    def test_validation(self):
        with pytest.raises(ValueError):
            CpuProfile("bad", ilp=0, apki=100, working_set_bytes=1024,
                       locality_alpha=0.5)
        with pytest.raises(ValueError):
            CpuProfile("bad", ilp=1, apki=-1, working_set_bytes=1024,
                       locality_alpha=0.5)
        with pytest.raises(ValueError):
            CpuProfile("bad", ilp=1, apki=100, working_set_bytes=1024,
                       locality_alpha=0.5, frontend_mpki=-1)

    def test_characterized_anchors_l1(self):
        profile = _profile(l1_miss_ratio=0.12)
        assert profile.miss_curve.miss_ratio_beyond(
            32 * KIB) == pytest.approx(0.12)

    def test_scale_profile_grows_working_set(self):
        base = _profile()
        scaled = scale_profile(base, working_set_factor=4.0)
        assert scaled.working_set_bytes == pytest.approx(
            4.0 * base.working_set_bytes)
        assert scaled.locality_alpha == base.locality_alpha

    def test_hash_is_cached_but_never_pickled(self):
        # The cached hash is salted per process: a pickled profile must
        # recompute it on the far side, or a process with another
        # PYTHONHASHSEED could not find it as a dict key.
        profile = _profile()
        assert hash(profile) == hash(_profile())
        assert pickle.loads(pickle.dumps(profile)).__dict__ == {
            f.name: getattr(profile, f.name)
            for f in dataclasses.fields(profile)}
        probe = textwrap.dedent("""
            import pickle, sys
            from repro.arch.cores import CpuProfile
            shipped = pickle.loads(sys.stdin.buffer.read())
            local = CpuProfile.characterized(
                "test", ilp=2.0, apki=400.0, l1_miss_ratio=0.08,
                locality_alpha=0.6, branch_mpki=4.0, frontend_mpki=2.0)
            assert shipped == local
            assert {local: "hit"}[shipped] == "hit"
            assert {shipped: "hit"}[local] == "hit"
            print(hash("test"))
            """)
        salts = set()
        for seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", probe], input=pickle.dumps(profile),
                capture_output=True, check=True,
                env=dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                         PYTHONHASHSEED=seed))
            salts.add(int(proc.stdout))
        salts.add(hash("test"))
        assert len(salts) >= 2      # at least one child hashed differently

    def test_scale_profile_validation(self):
        with pytest.raises(ValueError):
            scale_profile(_profile(), working_set_factor=0.0)


class TestCoreSpecValidation:
    def test_bad_issue_width(self):
        with pytest.raises(ValueError):
            _core(issue=0)

    def test_bad_stall_hide(self):
        with pytest.raises(ValueError):
            _core(hide=1.0)

    def test_bad_mlp(self):
        with pytest.raises(ValueError):
            _core(mlp=0.5)


class TestCpiModel:
    def test_cpi_base_limited_by_issue_width(self):
        core = _core(issue=4)
        wide = _profile(ilp=8.0)
        assert core.cpi_base(wide) == pytest.approx(0.25)

    def test_cpi_base_limited_by_ilp(self):
        core = _core(issue=4)
        narrow = _profile(ilp=1.25)
        assert core.cpi_base(narrow) == pytest.approx(0.8)

    def test_branch_cpi(self):
        core = _core()
        assert core.cpi_branch(_profile(branch_mpki=5.0)) == pytest.approx(
            5.0 / 1000.0 * 14)

    def test_frontend_cpi_uses_l2_latency_by_default(self):
        core = _core()
        assert core.cpi_frontend(_profile(frontend_mpki=10.0)) == (
            pytest.approx(10.0 / 1000.0 * 12))

    def test_frontend_penalty_override(self):
        core = _core(frontend_penalty_cycles=30.0)
        assert core.cpi_frontend(_profile(frontend_mpki=10.0)) == (
            pytest.approx(0.3))

    def test_stall_hiding_reduces_memory_cpi(self):
        profile = _profile(l1_miss_ratio=0.3, locality_alpha=0.4)
        exposed = _core(hide=0.0).cpi_memory(profile, 1.8 * GHZ)
        hidden = _core(hide=0.8).cpi_memory(profile, 1.8 * GHZ)
        assert hidden == pytest.approx(exposed * 0.2)

    def test_mlp_divides_memory_cpi(self):
        profile = _profile(l1_miss_ratio=0.3, locality_alpha=0.4)
        one = _core(mlp=1.0).cpi_memory(profile, 1.8 * GHZ)
        four = _core(mlp=4.0).cpi_memory(profile, 1.8 * GHZ)
        assert four == pytest.approx(one / 4.0)

    def test_evaluate_composes_terms(self):
        core = _core()
        profile = _profile()
        perf = core.evaluate(profile, 1.8 * GHZ)
        expected = (core.cpi_base(profile) + core.cpi_branch(profile)
                    + core.cpi_frontend(profile)
                    + core.cpi_memory(profile, 1.8 * GHZ))
        assert perf.cpi == pytest.approx(expected)
        assert perf.ipc == pytest.approx(1.0 / expected)

    def test_invalid_frequency(self):
        with pytest.raises(ValueError):
            _core().evaluate(_profile(), 0.0)

    def test_seconds_for(self):
        perf = _core().evaluate(_profile(), 2 * GHZ)
        assert perf.seconds_for(2e9) == pytest.approx(perf.cpi)
        with pytest.raises(ValueError):
            perf.seconds_for(-1)

    def test_activity_in_unit_interval(self):
        perf = _core().evaluate(_profile(l1_miss_ratio=0.4,
                                         locality_alpha=0.3), 1.8 * GHZ)
        assert 0.0 < perf.activity <= 1.0

    @given(st.floats(min_value=1.0, max_value=3.0),
           st.floats(min_value=1.0, max_value=3.0))
    def test_ipc_never_exceeds_issue_width(self, f_a, ilp):
        core = _core(issue=4)
        perf = core.evaluate(_profile(ilp=ilp), f_a * GHZ)
        assert perf.ipc <= 4.0 + 1e-9

    @given(st.floats(min_value=1.2, max_value=1.8),
           st.floats(min_value=1.2, max_value=1.8))
    def test_wall_dram_makes_cpi_rise_with_frequency(self, f_lo, f_hi):
        """With fixed-ns DRAM, higher frequency means more stall cycles."""
        f_lo, f_hi = min(f_lo, f_hi), max(f_lo, f_hi)
        core = _core(hide=0.0)
        profile = _profile(l1_miss_ratio=0.3, locality_alpha=0.3)
        assert (core.cpi_memory(profile, f_hi * GHZ)
                >= core.cpi_memory(profile, f_lo * GHZ) - 1e-12)

    @given(st.floats(min_value=1.2, max_value=1.8))
    def test_time_still_improves_with_frequency(self, freq):
        """Seconds per instruction must not increase when f rises."""
        core = _core()
        profile = _profile(l1_miss_ratio=0.3, locality_alpha=0.3)
        t_ref = core.evaluate(profile, 1.2 * GHZ).seconds_for(1e9)
        t = core.evaluate(profile, freq * GHZ).seconds_for(1e9)
        assert t <= t_ref + 1e-12


class TestPresetCores:
    def test_xeon_beats_atom_on_every_profile(self):
        for profile in (_profile(), _profile(ilp=1.2),
                        _profile(l1_miss_ratio=0.3, locality_alpha=0.35)):
            xeon = XEON_E5_2420.core.evaluate(profile, 1.8 * GHZ)
            atom = ATOM_C2758.core.evaluate(profile, 1.8 * GHZ)
            assert xeon.ipc > atom.ipc

    def test_low_ilp_narrows_the_gap(self):
        """Fig. 1's mechanism: the 4-wide core can't use width on
        low-ILP Hadoop-like code."""
        high = _profile(ilp=3.5)
        low = _profile(ilp=1.2)
        def ratio(p):
            return (XEON_E5_2420.core.evaluate(p, 1.8 * GHZ).ipc
                    / ATOM_C2758.core.evaluate(p, 1.8 * GHZ).ipc)
        assert ratio(low) < ratio(high)

    def test_memory_heavy_code_widens_the_gap(self):
        """The L3 + OoO window help most when misses dominate (Sort)."""
        friendly = _profile(l1_miss_ratio=0.03, locality_alpha=0.7)
        hostile = _profile(l1_miss_ratio=0.30, locality_alpha=0.40)
        def ratio(p):
            return (XEON_E5_2420.core.evaluate(p, 1.8 * GHZ).ipc
                    / ATOM_C2758.core.evaluate(p, 1.8 * GHZ).ipc)
        assert ratio(hostile) > ratio(friendly)
