"""Tests for characterization, classifier, acceleration, cost, scheduler."""

from __future__ import annotations

import pytest

from repro.core.acceleration import (AccelConfig, accelerated_time,
                                     map_phase_speedup, speedup_ratio,
                                     sweep_acceleration)
from repro.core.characterization import (Characterizer, RunKey, cost_point,
                                         default_data_gb)
from repro.core.classifier import (classification_agrees, classify_measured,
                                   classify_spec, resource_mix)
from repro.core.cost import (PAPER_CORE_COUNTS, cost_table, spider_series)
from repro.core.scheduler import (BigestFirstPolicy, ExhaustiveOraclePolicy,
                                  LittlestFirstPolicy, PaperHeuristicPolicy,
                                  Placement, evaluate_policies)
from repro.workloads.base import Category


class TestCharacterizer:
    def test_caching_returns_same_object(self, characterizer):
        key = RunKey("atom", "wordcount")
        assert characterizer.run(key) is characterizer.run(key)

    def test_distinct_keys_distinct_runs(self, characterizer):
        a = characterizer.run(RunKey("atom", "wordcount", freq_ghz=1.2))
        b = characterizer.run(RunKey("atom", "wordcount", freq_ghz=1.8))
        assert a is not b

    def test_default_data_sizes(self, characterizer):
        assert default_data_gb("wordcount") == 1.0
        assert default_data_gb("naive_bayes") == 10.0

    def test_cost_point_area_prorated(self, characterizer):
        key = RunKey("atom", "wordcount", cores_per_node=4)
        point = cost_point(key, characterizer.run(key))
        assert point.area_mm2 == pytest.approx(80.0)  # 4 * 20 mm^2

    def test_describe_is_readable(self):
        text = RunKey("xeon", "sort", freq_ghz=1.4).describe()
        assert "sort" in text and "xeon" in text and "1.4" in text


class TestClassifier:
    def test_declared_classes(self):
        assert classify_spec("sort") == Category.IO
        assert classify_spec("wordcount") == Category.COMPUTE
        assert classify_spec("terasort") == Category.HYBRID

    def test_measured_agrees_with_declared(self, characterizer):
        for wl in ("wordcount", "sort", "grep", "terasort"):
            result = characterizer.run(RunKey("xeon", wl))
            assert classification_agrees(result), wl

    def test_resource_mix_positive(self, wc_results):
        mix = resource_mix(wc_results["xeon"])
        assert mix.compute_fraction > 0
        assert mix.io_fraction > 0

    def test_sort_heaviest_io_mix(self, characterizer):
        sort = resource_mix(characterizer.run(RunKey("xeon", "sort")))
        wc = resource_mix(characterizer.run(RunKey("xeon", "wordcount")))
        assert sort.io_to_compute > wc.io_to_compute


class TestAcceleration:
    def test_no_acceleration_changes_nothing_much(self, wc_results):
        config = AccelConfig(accel_rate=1.0, residual_fraction=1.0,
                             link_bandwidth_bytes_s=1e15)
        r = wc_results["xeon"]
        assert accelerated_time(r, config) == pytest.approx(
            r.execution_time_s, rel=1e-6)

    def test_acceleration_reduces_time(self, wc_results):
        r = wc_results["xeon"]
        fast = accelerated_time(r, AccelConfig(accel_rate=50))
        assert fast < r.execution_time_s

    def test_accelerated_time_monotone_in_rate(self, wc_results):
        r = wc_results["atom"]
        times = [accelerated_time(r, AccelConfig(accel_rate=k))
                 for k in (1, 2, 10, 100)]
        assert times == sorted(times, reverse=True)

    def test_map_phase_speedup_bounded(self, wc_results):
        r = wc_results["xeon"]
        s = map_phase_speedup(r, AccelConfig(accel_rate=100,
                                             residual_fraction=0.25))
        assert 1.0 < s <= 4.0  # residual 25% caps the Amdahl limit

    def test_speedup_ratio_requires_matching_workloads(
            self, wc_results, sort_results):
        with pytest.raises(ValueError):
            speedup_ratio(wc_results["atom"], sort_results["xeon"],
                          AccelConfig(accel_rate=10))

    def test_sweep_is_monotone_for_map_heavy_jobs(self, sort_results):
        points = sweep_acceleration(sort_results["atom"],
                                    sort_results["xeon"])
        values = [v for _r, v in points]
        assert values == sorted(values, reverse=True)
        assert values[-1] < 1.0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AccelConfig(accel_rate=0.5)
        with pytest.raises(ValueError):
            AccelConfig(accel_rate=2, residual_fraction=1.5)
        with pytest.raises(ValueError):
            AccelConfig(accel_rate=2, link_bandwidth_bytes_s=0)


class TestCostTable:
    @pytest.fixture(scope="class")
    def table(self, characterizer):
        return cost_table("wordcount", characterizer=characterizer)

    def test_all_cells_present(self, table):
        assert len(table.cells) == 2 * len(PAPER_CORE_COUNTS)

    def test_rows_positive(self, table):
        for metric in ("EDP", "ED2P", "EDAP", "ED2AP"):
            for machine in ("atom", "xeon"):
                assert all(v > 0 for v in table.row(metric, machine))

    def test_best_config_is_min(self, table):
        best = table.best_config("EDP")
        assert best.metric("EDP") == min(
            c.metric("EDP") for c in table.cells.values())

    def test_missing_cell(self, table):
        with pytest.raises(KeyError):
            table.cell("atom", 5)

    def test_spider_reference_is_unity(self, table):
        spider = spider_series(table)
        assert spider["8X"]["EDP"] == pytest.approx(1.0)
        assert spider["8X"]["ED2AP"] == pytest.approx(1.0)
        assert set(spider) == {"2A", "4A", "6A", "8A", "2X", "4X", "6X", "8X"}


class TestScheduler:
    def test_paper_policy_follows_pseudocode(self, characterizer):
        policy = PaperHeuristicPolicy()
        table = cost_table("wordcount", characterizer=characterizer)
        assert policy.decide("wordcount", "EDP", table) == Placement("atom", 8)
        assert policy.decide("sort", "EDP", table) == Placement("xeon", 4)
        assert policy.decide("grep", "ED2AP", table) == Placement("xeon", 2)
        assert policy.decide("grep", "EDP", table) == Placement("atom", 8)

    def test_oracle_has_no_regret(self, characterizer):
        reports = evaluate_policies(["wordcount", "sort"], goal="EDP",
                                    policies=[ExhaustiveOraclePolicy],
                                    characterizer=characterizer)
        assert reports[0].mean_regret == pytest.approx(1.0)

    def test_baselines_are_worse_than_oracle(self, characterizer):
        reports = evaluate_policies(
            ["wordcount", "sort", "grep"], goal="EDP",
            policies=[BigestFirstPolicy, LittlestFirstPolicy],
            characterizer=characterizer)
        for report in reports:
            assert report.mean_regret >= 1.0

    def test_paper_policy_beats_big_first_on_edp(self, characterizer):
        """Over the paper's full job mix the heuristic beats
        performance-max scheduling on energy efficiency (§3.5)."""
        workloads = ["wordcount", "sort", "grep", "terasort",
                     "naive_bayes", "fp_growth"]
        reports = {r.policy: r for r in evaluate_policies(
            workloads, goal="EDP",
            policies=[PaperHeuristicPolicy, BigestFirstPolicy],
            characterizer=characterizer)}
        assert (reports["paper-heuristic"].mean_regret
                < reports["big-first"].mean_regret)

    def test_invalid_goal_rejected(self, characterizer):
        table = cost_table("wordcount", characterizer=characterizer)
        with pytest.raises(ValueError):
            PaperHeuristicPolicy().decide("wordcount", "FLOPS", table)

    def test_placement_validation(self):
        with pytest.raises(ValueError):
            Placement("riscv", 4)
        with pytest.raises(ValueError):
            Placement("atom", 0)

    def test_placement_labels(self):
        assert Placement("atom", 8).label == "8A"
        assert Placement("xeon", 2).label == "2X"
