"""Tests for the K-Means extension workload."""

from __future__ import annotations

from repro.core.characterization import RunKey
from repro.core.metrics import edp
from repro.workloads.base import workload
from repro.workloads.kmeans import KMEANS_ITERATIONS


class TestPerformanceSpec:
    def test_registered_as_extension(self):
        spec = workload("kmeans")
        assert "extension" in spec.full_name
        assert len(spec.stages) == KMEANS_ITERATIONS

    def test_each_iteration_scans_original_input(self):
        spec = workload("kmeans")
        assert all(s.input_source == "original" for s in spec.stages)

    def test_little_core_friendly(self, characterizer):
        """KM is the most compute-dense app: Atom's EDP advantage should
        be at least as strong as WordCount's."""
        km_atom = characterizer.run(RunKey("atom", "kmeans"))
        km_xeon = characterizer.run(RunKey("xeon", "kmeans"))
        km_ratio = (edp(km_atom.dynamic_energy_j, km_atom.execution_time_s)
                    / edp(km_xeon.dynamic_energy_j,
                          km_xeon.execution_time_s))
        assert km_ratio < 1.0

    def test_iterations_visible_in_stage_timings(self, characterizer):
        r = characterizer.run(RunKey("xeon", "kmeans"))
        assert len(r.stages) == KMEANS_ITERATIONS
        assert all(t.map_s > 0 for t in r.stages)
