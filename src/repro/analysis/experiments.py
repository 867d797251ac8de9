"""Canned experiment drivers: one per figure/table of the paper.

Each experiment declares a :class:`Plan`: the grid cells it reads, and
a render step that turns their results into an :class:`Experiment`
printing the rows/series the paper plots.  :func:`run_plans` runs the
cells of any number of plans in one deduplicated
:meth:`~repro.core.characterization.Characterizer.run_many` (parallel,
cached), then renders each from the finished
:class:`~repro.core.characterization.Results`, which never simulate: a
render reading an undeclared cell raises ``KeyError``.  Each driver
``ALL_EXPERIMENTS[id](ch)`` runs its own plan so, and exposes the
function that makes the plan as ``driver.plan``.  ``benchmarks/`` calls the drivers
one-to-one and asserts the paper's qualitative shapes.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from collections.abc import Mapping
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from ..arch.presets import ATOM_C2758, XEON_E5_2420
from ..core.acceleration import AccelConfig, speedup_ratio, sweep_acceleration
from ..core.characterization import (PAPER_MICRO_GB, PAPER_REAL_GB, Cell,
                                     Characterizer, Results, RunKey,
                                     default_data_gb)
from ..core.cost import COST_METRICS, cost_keys, cost_table, spider_series
from ..core.metrics import edxp, geomean
from ..core.scheduler import evaluate_policies
from ..mapreduce.driver import JobResult
from ..sim.faults import FaultPlan
from ..workloads.base import MICRO_BENCHMARKS, REAL_WORLD
from ..workloads.traditional import (PARSEC_21, SPEC_CPU2006,
                                     run_traditional)
from .tables import format_series, format_table

__all__ = [
    "Experiment", "Plan", "run_plans", "run_experiments", "fig1_ipc",
    "fig2_edxp_suites", "fig3_exectime_micro", "fig4_exectime_real",
    "fig5_edp_real", "fig6_edp_micro", "fig7_phase_edp_micro",
    "fig8_phase_edp_real", "fig9_edp_ratio_block", "fig10_breakdown_micro",
    "fig11_breakdown_real", "fig12_edp_datasize",
    "fig13_phase_edp_datasize", "fig14_accel_sweep", "fig15_accel_freq",
    "fig16_accel_block", "table3_cost", "fig17_spider",
    "scheduling_case_study", "phase_scheduling_study", "tuning_study",
    "fault_sweep", "datacenter_study", "ALL_EXPERIMENTS",
]

MACHINES = ("atom", "xeon")
APPS = MICRO_BENCHMARKS + REAL_WORLD
FREQS = (1.2, 1.4, 1.6, 1.8)
MICRO_BLOCKS = (32.0, 64.0, 128.0, 256.0, 512.0)
REAL_BLOCKS = (64.0, 128.0, 256.0, 512.0)
DATA_SIZES_GB = (1.0, 10.0, 20.0)
FAULT_RATES = (0.0, 2.0, 5.0, 10.0)
FAULT_WORKLOADS = ("wordcount", "terasort")


@dataclass
class Experiment:
    """A regenerated paper artifact: structured data plus rendered text."""

    exp_id: str
    title: str
    data: Dict[str, Any] = field(default_factory=dict)
    sections: List[str] = field(default_factory=list)

    def render(self) -> str:
        head = f"== {self.exp_id}: {self.title} =="
        return "\n\n".join([head] + self.sections)


@dataclass(frozen=True)
class Plan:
    """The cells one experiment reads, and the step that renders them."""

    cells: Tuple[Cell, ...]
    render: Callable[[Results], Experiment]


def run_plans(ch: Characterizer, plans: Sequence[Plan]) -> List[Experiment]:
    """Run every plan's cells in one deduplicated ``run_many``, then
    render each plan from the results, in order."""
    cells = list(dict.fromkeys(cell for plan in plans for cell in plan.cells))
    results = Results(zip(cells, ch.run_many(cells)))
    return [plan.render(results) for plan in plans]


def run_experiments(ch: Characterizer, exp_ids: Sequence[str]
                    ) -> List[Experiment]:
    """The ``ALL_EXPERIMENTS`` entries *exp_ids*, at their default
    arguments, through one :func:`run_plans`."""
    return run_plans(ch, [ALL_EXPERIMENTS[i].plan(ch) for i in exp_ids])


def _driver(build: Callable[..., Plan]) -> Callable[..., Experiment]:
    """Make ``driver(ch=None, *args, **kwargs)``: build the plan from the
    same arguments, run it on *ch*, render; ``driver.plan`` is *build*."""
    @functools.wraps(build)
    def driver(ch: Optional[Characterizer] = None, *args, **kwargs):
        ch = ch if ch is not None else Characterizer()
        return run_plans(ch, [build(ch, *args, **kwargs)])[0]

    driver.plan = build
    return driver


class _GridResults(Mapping):
    """A grid's coordinates mapped to its cells' results, each read from
    the plan's results only when the render asks for it."""

    def __init__(self, grid: Mapping[Any, Cell], results: Results):
        self._grid, self._results = grid, results

    def __getitem__(self, coord) -> JobResult:
        return self._results[self._grid[coord]]

    def __iter__(self):
        return iter(self._grid)

    def __len__(self) -> int:
        return len(self._grid)


def _grid_plan(grid: Mapping[Any, Cell],
               render: Callable[[Mapping[Any, JobResult]], Experiment]
               ) -> Plan:
    """A plan whose cells are *grid*'s values; *render* receives the
    same coordinates mapped to the cells' results."""
    return Plan(tuple(grid[coord] for coord in grid),
                lambda results: render(_GridResults(grid, results)))


def _edp(result: JobResult, x: int = 1) -> float:
    return edxp(result.dynamic_energy_j, result.execution_time_s, x)


def _phase_edp(result: JobResult, phase: str, x: int = 1) -> float:
    return edxp(result.phase_energy(phase), result.phase_time(phase), x)


def _blocks(workload: str) -> Tuple[float, ...]:
    return MICRO_BLOCKS if workload in MICRO_BENCHMARKS else REAL_BLOCKS


# ---------------------------------------------------------------------------
# Fig. 1 / Fig. 2: traditional suites vs Hadoop
# ---------------------------------------------------------------------------

def _hadoop_grid(workloads: Sequence[str]) -> Dict[Tuple[str, str], RunKey]:
    return {(machine, wl): RunKey(machine, wl, freq_ghz=1.8,
                                  block_size_mb=64.0,
                                  data_per_node_gb=default_data_gb(wl))
            for machine in MACHINES for wl in workloads}


@_driver
def fig1_ipc(ch: Characterizer) -> Plan:
    """Fig. 1: average IPC of SPEC, PARSEC and Hadoop on both cores."""
    def render(hadoop: Mapping[Tuple[str, str], JobResult]) -> Experiment:
        suites = {"Avg_Spec": SPEC_CPU2006, "Avg_Parsec": PARSEC_21}
        specs = {"atom": ATOM_C2758, "xeon": XEON_E5_2420}
        ipc: Dict[Tuple[str, str], float] = {}
        for label, suite in suites.items():
            for machine in MACHINES:
                runs = [run_traditional(specs[machine], p)
                        for p in suite.values()]
                ipc[(label, machine)] = sum(r.ipc for r in runs) / len(runs)
        for machine in MACHINES:
            values = [hadoop[(machine, wl)].ipc for wl in APPS]
            ipc[("Avg_Hadoop", machine)] = sum(values) / len(values)
        rows = [[label, ipc[(label, "atom")], ipc[(label, "xeon")],
                 ipc[(label, "xeon")] / ipc[(label, "atom")]]
                for label in ("Avg_Spec", "Avg_Parsec", "Avg_Hadoop")]
        exp = Experiment(
            "F1", "IPC of SPEC, PARSEC and Hadoop on little/big core")
        exp.data["ipc"] = ipc
        exp.sections.append(format_table(
            ["suite", "Atom IPC", "Xeon IPC", "Xeon/Atom"], rows))
        return exp

    return _grid_plan(_hadoop_grid(APPS), render)


@_driver
def fig2_edxp_suites(ch: Characterizer) -> Plan:
    """Fig. 2: EDP/ED2P/ED3P ratio (Atom vs Xeon) per suite."""
    # Sort is excluded from the Hadoop average: its EDP gap (>10x in
    # favour of the big core; the paper's own Fig. 17 shows 150-440x)
    # would dominate any mean, and the paper's Fig. 2 scale (< 2.5)
    # shows the published average cannot contain it either.
    averaged = [wl for wl in APPS if wl != "sort"]

    def render(hadoop: Mapping[Tuple[str, str], JobResult]) -> Experiment:
        specs = {"atom": ATOM_C2758, "xeon": XEON_E5_2420}
        ratios: Dict[Tuple[str, int], float] = {}
        for label, suite in (("Avg_Spec", SPEC_CPU2006),
                             ("Avg_Parsec", PARSEC_21)):
            for x in (1, 2, 3):
                per_bench = []
                # Suite dicts are literals: insertion order is fixed, and
                # re-sorting would change the FP summation order behind
                # the published per-suite averages.
                for profile in suite.values():
                    runs = {m: run_traditional(specs[m], profile)
                            for m in MACHINES}
                    per_bench.append(
                        edxp(runs["atom"].dynamic_energy_j,
                             runs["atom"].seconds, x)
                        / edxp(runs["xeon"].dynamic_energy_j,
                               runs["xeon"].seconds, x))
                ratios[(label, x)] = geomean(per_bench)
        for x in (1, 2, 3):
            per_job = [_edp(hadoop[("atom", wl)], x)
                       / _edp(hadoop[("xeon", wl)], x) for wl in averaged]
            ratios[("Avg_Hadoop", x)] = geomean(per_job)
        rows = [[label] + [ratios[(label, x)] for x in (1, 2, 3)]
                for label in ("Avg_Spec", "Avg_Parsec", "Avg_Hadoop")]
        exp = Experiment("F2", "EDP/ED2P/ED3P of Atom vs Xeon per suite")
        exp.data["ratios"] = ratios
        exp.sections.append(format_table(
            ["suite", "EDP A/X", "ED2P A/X", "ED3P A/X"], rows))
        return exp

    return _grid_plan(_hadoop_grid(averaged), render)


# ---------------------------------------------------------------------------
# Fig. 3 / Fig. 4: execution time vs block size x frequency
# ---------------------------------------------------------------------------

def _exectime_plan(exp_id: str, title: str, workloads: Sequence[str],
                   blocks: Sequence[float], gb: float) -> Plan:
    grid = {(machine, wl, freq, block): RunKey(
                machine, wl, freq_ghz=freq, block_size_mb=block,
                data_per_node_gb=gb)
            for machine in MACHINES for wl in workloads
            for freq in FREQS for block in blocks}

    def render(results: Mapping[Tuple[str, str, float, float], JobResult]
               ) -> Experiment:
        exp = Experiment(exp_id, title)
        exp.data["grid"] = dict(results)
        for machine in MACHINES:
            rows = []
            for wl in workloads:
                for freq in FREQS:
                    rows.append([wl, freq] + [
                        results[(machine, wl, freq, b)].execution_time_s
                        for b in blocks])
            exp.sections.append(format_table(
                ["workload", "GHz"] + [f"{b:g}MB" for b in blocks], rows,
                title=f"execution time [s] on {machine}"))
        return exp

    return _grid_plan(grid, render)


@_driver
def fig3_exectime_micro(ch: Characterizer) -> Plan:
    """Fig. 3: micro-benchmark execution time vs HDFS block x frequency."""
    return _exectime_plan(
        "F3", "Execution time of Hadoop micro-benchmarks vs block/frequency",
        MICRO_BENCHMARKS, MICRO_BLOCKS, PAPER_MICRO_GB)


@_driver
def fig4_exectime_real(ch: Characterizer) -> Plan:
    """Fig. 4: real-world application execution time vs block x frequency."""
    return _exectime_plan(
        "F4", "Execution time of real-world applications vs block/frequency",
        REAL_WORLD, REAL_BLOCKS, PAPER_REAL_GB)


# ---------------------------------------------------------------------------
# Fig. 5-8: EDP vs frequency (entire app, then per phase)
# ---------------------------------------------------------------------------

def _freq_grid(workloads: Sequence[str]
               ) -> Dict[Tuple[str, str, float], RunKey]:
    """Each workload at 512 MB blocks and its default size, per
    (machine, workload, frequency)."""
    return {(machine, wl, freq): RunKey(
                machine, wl, freq_ghz=freq, block_size_mb=512.0,
                data_per_node_gb=default_data_gb(wl))
            for machine in MACHINES for wl in workloads for freq in FREQS}


def _edp_freq_plan(exp_id: str, title: str, workloads: Sequence[str],
                   per_phase: bool) -> Plan:
    def render(grid: Mapping[Tuple[str, str, float], JobResult]) -> Experiment:
        exp = Experiment(exp_id, title)
        series: Dict = {}
        for wl in workloads:
            # Paper normalization: EDP relative to Atom at 1.2 GHz, 512 MB.
            base = _edp(grid[("atom", wl, 1.2)])
            for machine in MACHINES:
                results = [grid[(machine, wl, f)] for f in FREQS]
                if per_phase:
                    for phase in ("map", "reduce"):
                        values = [_phase_edp(r, phase) / base
                                  for r in results]
                        if any(v > 0 for v in values):
                            series[(wl, machine, phase)] = values
                else:
                    series[(wl, machine, "entire")] = [
                        _edp(r) / base for r in results]
        exp.data["series"] = series
        exp.data["freqs"] = FREQS
        for (wl, machine, phase), values in sorted(series.items()):
            exp.sections.append(format_series(
                f"{wl} [{phase}] on {machine}", [f"{f}GHz" for f in FREQS],
                values, "frequency", "normalized EDP"))
        return exp

    return _grid_plan(_freq_grid(workloads), render)


@_driver
def fig5_edp_real(ch: Characterizer) -> Plan:
    """Fig. 5: EDP of the entire NB/FP applications vs frequency."""
    return _edp_freq_plan(
        "F5", "EDP of entire real-world applications vs frequency",
        REAL_WORLD, per_phase=False)


@_driver
def fig6_edp_micro(ch: Characterizer) -> Plan:
    """Fig. 6: EDP of the entire micro-benchmarks vs frequency."""
    return _edp_freq_plan(
        "F6", "EDP of entire Hadoop micro-benchmarks vs frequency",
        MICRO_BENCHMARKS, per_phase=False)


@_driver
def fig7_phase_edp_micro(ch: Characterizer) -> Plan:
    """Fig. 7: map/reduce-phase EDP of micro-benchmarks vs frequency."""
    return _edp_freq_plan(
        "F7", "Map/Reduce phase EDP of micro-benchmarks vs frequency",
        MICRO_BENCHMARKS, per_phase=True)


@_driver
def fig8_phase_edp_real(ch: Characterizer) -> Plan:
    """Fig. 8: map/reduce-phase EDP of NB/FP vs frequency."""
    return _edp_freq_plan(
        "F8", "Map/Reduce phase EDP of real-world applications vs frequency",
        REAL_WORLD, per_phase=True)


# ---------------------------------------------------------------------------
# Fig. 9: EDP gap vs block size
# ---------------------------------------------------------------------------

def _block_grid() -> Dict[Tuple[str, str, float], RunKey]:
    """Every workload at 1.8 GHz and its default size, per
    (machine, workload, block size)."""
    return {(machine, wl, block): RunKey(
                machine, wl, block_size_mb=block,
                data_per_node_gb=default_data_gb(wl))
            for machine in MACHINES for wl in APPS for block in _blocks(wl)}


@_driver
def fig9_edp_ratio_block(ch: Characterizer) -> Plan:
    """Fig. 9: Xeon-to-Atom EDP ratio vs HDFS block size at 1.8 GHz."""
    def render(grid: Mapping[Tuple[str, str, float], JobResult]) -> Experiment:
        exp = Experiment(
            "F9", "EDP gap (Xeon/Atom) vs HDFS block size @1.8GHz")
        series = {}
        for wl in APPS:
            blocks = _blocks(wl)
            values = [_edp(grid[("xeon", wl, b)])
                      / _edp(grid[("atom", wl, b)]) for b in blocks]
            series[wl] = (blocks, values)
            exp.sections.append(format_series(
                wl, [f"{b:g}MB" for b in blocks], values,
                "block size", "EDP Xeon/Atom"))
        exp.data["series"] = series
        return exp

    return _grid_plan(_block_grid(), render)


# ---------------------------------------------------------------------------
# Fig. 10-13: input data size sensitivity
# ---------------------------------------------------------------------------

def _datasize_grid(workloads: Sequence[str]
                   ) -> Dict[Tuple[str, str, float], RunKey]:
    return {(machine, wl, gb): RunKey(machine, wl, block_size_mb=512.0,
                                      data_per_node_gb=gb)
            for machine in MACHINES for wl in workloads
            for gb in DATA_SIZES_GB}


def _breakdown_plan(exp_id: str, title: str,
                    workloads: Sequence[str]) -> Plan:
    def render(grid: Mapping[Tuple[str, str, float], JobResult]) -> Experiment:
        exp = Experiment(exp_id, title)
        exp.data["grid"] = dict(grid)
        rows = []
        for wl in workloads:
            for machine in MACHINES:
                for gb in DATA_SIZES_GB:
                    r = grid[(machine, wl, gb)]
                    rows.append([
                        wl, machine, f"{gb:g}GB",
                        100 * r.phase_fraction("map"),
                        100 * r.phase_fraction("reduce"),
                        100 * r.phase_fraction("other"),
                        r.execution_time_s,
                    ])
        exp.sections.append(format_table(
            ["workload", "machine", "data", "map%", "reduce%", "others%",
             "total [s]"], rows))
        return exp

    return _grid_plan(_datasize_grid(workloads), render)


@_driver
def fig10_breakdown_micro(ch: Characterizer) -> Plan:
    """Fig. 10: execution-time breakdown vs data size (micro-benchmarks)."""
    return _breakdown_plan(
        "F10", "Execution time and phase breakdown vs input size (micro)",
        MICRO_BENCHMARKS)


@_driver
def fig11_breakdown_real(ch: Characterizer) -> Plan:
    """Fig. 11: execution-time breakdown vs data size (NB/FP)."""
    return _breakdown_plan(
        "F11", "Execution time and phase breakdown vs input size (real)",
        REAL_WORLD)


@_driver
def fig12_edp_datasize(ch: Characterizer) -> Plan:
    """Fig. 12: EDP of the entire application vs input data size."""
    def render(grid: Mapping[Tuple[str, str, float], JobResult]) -> Experiment:
        exp = Experiment("F12",
                         "EDP of entire applications vs input data size")
        exp.data["grid"] = dict(grid)
        for machine in MACHINES:
            rows = []
            for wl in APPS:
                base = _edp(grid[(machine, wl, 1.0)])
                rows.append([wl] + [_edp(grid[(machine, wl, gb)]) / base
                                    for gb in DATA_SIZES_GB])
            exp.sections.append(format_table(
                ["workload"] + [f"{g:g}GB" for g in DATA_SIZES_GB], rows,
                title=f"EDP on {machine}, normalized to 1 GB/node"))
        return exp

    return _grid_plan(_datasize_grid(APPS), render)


@_driver
def fig13_phase_edp_datasize(ch: Characterizer) -> Plan:
    """Fig. 13: map/reduce-phase EDP (Atom/Xeon) vs input data size."""
    def render(grid: Mapping[Tuple[str, str, float], JobResult]) -> Experiment:
        exp = Experiment(
            "F13", "Map/Reduce phase EDP of Atom vs Xeon per input data size")
        exp.data["grid"] = dict(grid)
        rows = []
        for wl in APPS:
            for gb in DATA_SIZES_GB:
                atom, xeon = grid[("atom", wl, gb)], grid[("xeon", wl, gb)]
                map_ratio = (_phase_edp(atom, "map") / _phase_edp(xeon, "map")
                             if xeon.phase_time("map") > 0 else float("nan"))
                if (xeon.phase_time("reduce") > 0
                        and atom.phase_time("reduce") > 0):
                    red_ratio = (_phase_edp(atom, "reduce")
                                 / _phase_edp(xeon, "reduce"))
                else:
                    red_ratio = float("nan")
                rows.append([wl, f"{gb:g}GB", map_ratio, red_ratio])
        exp.sections.append(format_table(
            ["workload", "data", "map EDP A/X", "reduce EDP A/X"], rows))
        return exp

    return _grid_plan(_datasize_grid(APPS), render)


# ---------------------------------------------------------------------------
# Fig. 14-16: acceleration
# ---------------------------------------------------------------------------

@_driver
def fig14_accel_sweep(ch: Characterizer) -> Plan:
    """Fig. 14: Eq. (1) speedup ratio vs mapper acceleration (1-100x)."""
    grid = {(machine, wl): RunKey(machine, wl, block_size_mb=512.0,
                                  data_per_node_gb=default_data_gb(wl))
            for machine in MACHINES for wl in APPS}

    def render(grid: Mapping[Tuple[str, str], JobResult]) -> Experiment:
        exp = Experiment(
            "F14", "Atom-vs-Xeon speedup after/before map acceleration")
        series = {}
        for wl in APPS:
            points = sweep_acceleration(grid[("atom", wl)],
                                        grid[("xeon", wl)])
            series[wl] = points
            exp.sections.append(format_series(
                wl, [f"{r:g}x" for r, _ in points], [v for _, v in points],
                "mapper acceleration", "speedup ratio"))
        exp.data["series"] = series
        return exp

    return _grid_plan(grid, render)


def _accel_plan(exp_id: str, axis_name: str, accel_rate: float,
                grid: Dict[Tuple[str, str, float], RunKey],
                axis: Callable[[str], Sequence[float]],
                label: Callable[[float], str], x_label: str) -> Plan:
    """Eq. (1) speedup ratio after acceleration along one grid axis."""
    def render(grid: Mapping[Tuple[str, str, float], JobResult]) -> Experiment:
        exp = Experiment(
            exp_id, f"Post-acceleration speedup ratio vs {axis_name} "
                    f"(accel {accel_rate:g}x)")
        config = AccelConfig(accel_rate=accel_rate)
        series = {}
        for wl in APPS:
            points = axis(wl)
            values = [speedup_ratio(grid[("atom", wl, v)],
                                    grid[("xeon", wl, v)], config)
                      for v in points]
            series[wl] = (points, values)
            exp.sections.append(format_series(
                wl, [label(v) for v in points], values, x_label,
                "speedup ratio"))
        exp.data["series"] = series
        return exp

    return _grid_plan(grid, render)


@_driver
def fig15_accel_freq(ch: Characterizer, accel_rate: float = 50.0) -> Plan:
    """Fig. 15: speedup ratio before/after acceleration vs frequency."""
    return _accel_plan("F15", "frequency", accel_rate, _freq_grid(APPS),
                       lambda wl: FREQS, lambda f: f"{f}GHz", "frequency")


@_driver
def fig16_accel_block(ch: Characterizer, accel_rate: float = 50.0) -> Plan:
    """Fig. 16: speedup ratio before/after acceleration vs block size."""
    return _accel_plan("F16", "HDFS block size", accel_rate, _block_grid(),
                       _blocks, lambda b: f"{b:g}MB", "block size")


# ---------------------------------------------------------------------------
# Table 3 / Fig. 17 / scheduling
# ---------------------------------------------------------------------------

def _cost_cells() -> Tuple[RunKey, ...]:
    """Table 3's core-count cells for every workload."""
    return tuple(key for wl in APPS for key in cost_keys(wl))


@_driver
def table3_cost(ch: Characterizer) -> Plan:
    """Table 3: EDxP / EDxAP for M in {2,4,6,8} cores on both machines."""
    def render(results: Results) -> Experiment:
        exp = Experiment(
            "T3", "Operational and capital cost vs number of cores/mappers")
        tables = {wl: cost_table(wl, results) for wl in APPS}
        exp.data["tables"] = tables
        for metric in COST_METRICS:
            rows = []
            for wl, table in tables.items():
                for machine in MACHINES:
                    rows.append([metric, wl, machine]
                                + table.row(metric, machine))
            exp.sections.append(format_table(
                ["metric", "workload", "machine", "M2", "M4", "M6", "M8"],
                rows))
        return exp

    return Plan(_cost_cells(), render)


@_driver
def fig17_spider(ch: Characterizer) -> Plan:
    """Fig. 17: cost metrics normalized to the 8-Xeon-core configuration."""
    def render(results: Results) -> Experiment:
        exp = Experiment(
            "F17", "Cost spider data normalized to 8 Xeon cores")
        spiders = {}
        for wl in APPS:
            spiders[wl] = spider_series(cost_table(wl, results))
            rows = [[label] + [values[m] for m in COST_METRICS]
                    for label, values in spiders[wl].items()]
            exp.sections.append(format_table(
                ["config"] + list(COST_METRICS), rows, title=wl))
        exp.data["spiders"] = spiders
        return exp

    return Plan(_cost_cells(), render)


@_driver
def scheduling_case_study(ch: Characterizer, goal: str = "EDP") -> Plan:
    """§3.5 case study: policies vs the exhaustive oracle on the job mix."""
    def render(results: Results) -> Experiment:
        workloads = list(APPS)
        reports = evaluate_policies(workloads, goal=goal,
                                    characterizer=results)
        exp = Experiment(
            "S1", f"Heterogeneous scheduling case study (goal {goal})")
        exp.data["reports"] = {r.policy: r for r in reports}
        rows = []
        for report in reports:
            for wl in workloads:
                rows.append([report.policy, wl, report.placements[wl].label,
                             report.costs[wl], report.regret(wl)])
        exp.sections.append(format_table(
            ["policy", "workload", "placement", goal, "regret"], rows))
        summary = [[r.policy, r.mean_regret] for r in reports]
        exp.sections.append(format_table(["policy", "mean regret"], summary))
        return exp

    return Plan(_cost_cells(), render)


@_driver
def phase_scheduling_study(ch: Characterizer,
                           data_per_node_gb: float = 2.0) -> Plan:
    """X1 (extension): per-phase big/little placement on a mixed cluster.

    A mixed-cluster job is not a grid cell (a :class:`RunKey` names one
    machine), so this plan declares no cells and its render simulates
    the placements through ``compare_phase_placements``, uncached.
    """
    def render(results: Results) -> Experiment:
        from ..core.phase_scheduler import compare_phase_placements
        exp = Experiment(
            "X1", "Phase-aware placement on a mixed big+little cluster "
                  "(extension)")
        placements = {}
        for wl in ("wordcount", "naive_bayes", "terasort"):
            placements[wl] = compare_phase_placements(
                wl, data_per_node_gb=data_per_node_gb, block_size_mb=128.0)
            rows = [[p, r.execution_time_s, r.dynamic_energy_j, r.edp]
                    for p, r in sorted(placements[wl].items(),
                                       key=lambda kv: kv[1].edp)]
            exp.sections.append(format_table(
                ["map/reduce placement", "time [s]", "energy [J]", "EDP"],
                rows, title=wl))
        exp.data["results"] = placements
        return exp

    return Plan((), render)


@_driver
def tuning_study(ch: Characterizer) -> Plan:
    """X2 (extension): configuration tuning recommendations per workload."""
    from ..core.tuning import TuningAdvisor
    keys = TuningAdvisor(ch).keys
    cells = tuple(key for wl in APPS for machine in MACHINES
                  for key in keys(wl, machine))

    def render(results: Results) -> Experiment:
        advisor = TuningAdvisor(results)
        exp = Experiment(
            "X2", "Configuration tuning advisor: best (freq, block) per goal "
                  "(extension)")
        rows = []
        recs = {}
        for wl in APPS:
            for machine in MACHINES:
                rec = advisor.recommend(wl, machine, goal="EDP")
                recs[(wl, machine)] = rec
                rows.append([wl, machine, f"{rec.best.freq_ghz:g}GHz",
                             f"{rec.best.block_size_mb:g}MB",
                             rec.improvement])
        exp.sections.append(format_table(
            ["workload", "machine", "best freq", "best block",
             "EDP gain vs default"], rows))
        exp.data["recommendations"] = recs
        return exp

    return Plan(cells, render)


@_driver
def fault_sweep(ch: Characterizer, *, seed: int = 0,
                rates: Sequence[float] = FAULT_RATES,
                workloads: Sequence[str] = FAULT_WORKLOADS,
                speculative: bool = False) -> Plan:
    """FT (extension): EDP and recovery overhead vs node-failure rate.

    For each failure rate (node crashes per 1000 simulated seconds) a
    :class:`~repro.sim.faults.FaultPlan` draws per-node crash times from
    *seed*, and both machines run the workloads under it — so the sweep
    compares how the big and little clusters absorb the recovery work
    (re-queued blocks, re-executed map attempts) in energy-delay terms.
    Rate 0 is the fault-free baseline and is byte-identical to the plain
    grid cell.

    Each rate's fault plan rides in its cells as a ``(RunKey, JobConf)``
    pair; the result cache keys every pair under its own conf.
    """
    n_nodes = 3
    grid: Dict[Tuple[str, str, float], Cell] = {}
    for rate in rates:
        for machine in MACHINES:
            nodes = [f"{machine}{i}" for i in range(n_nodes)]
            conf = ch.conf.override(
                fault_plan=FaultPlan.with_crash_rate(seed, nodes, rate),
                speculative_execution=speculative)
            for wl in workloads:
                grid[(machine, wl, rate)] = (
                    RunKey(machine, wl, n_nodes=n_nodes,
                           data_per_node_gb=default_data_gb(wl)), conf)

    def render(grid: Mapping[Tuple[str, str, float], JobResult]) -> Experiment:
        exp = Experiment(
            "FT", f"EDP and recovery overhead vs node-failure rate "
                  f"(extension, seed {seed})")
        exp.data["grid"] = dict(grid)
        exp.data["edp"] = {
            (machine, wl): (list(rates),
                            [_edp(grid[(machine, wl, r)]) for r in rates])
            for machine in MACHINES for wl in workloads}
        exp.data["recovery_overhead"] = {
            (machine, wl): (list(rates),
                            [grid[(machine, wl, r)].recovery_overhead
                             for r in rates])
            for machine in MACHINES for wl in workloads}
        for wl in workloads:
            rows = []
            for machine in MACHINES:
                for rate in rates:
                    result = grid[(machine, wl, rate)]
                    c = result.counters
                    rows.append([machine, rate, result.execution_time_s,
                                 result.dynamic_energy_j, _edp(result),
                                 c.map_attempts + c.reduce_attempts,
                                 c.node_crashes, result.wasted_task_seconds,
                                 result.recovery_overhead])
            exp.sections.append(format_table(
                ["machine", "crashes/1000s", "time [s]", "energy [J]", "EDP",
                 "attempts", "crashes", "wasted [s]", "overhead"],
                rows, title=wl))
        return exp

    return _grid_plan(grid, render)


@_driver
def datacenter_study(ch: Characterizer, *, seed: int = 0,
                     n_nodes: int = 48, little_frac: float = 0.5,
                     rack_size: int = 8,
                     policies: Sequence[str] = ("fifo", "fair", "capacity",
                                                "hetero"),
                     n_jobs: int = 24, jobs_per_1000s: float = 150.0,
                     node_choices: Sequence[int] = (2, 3, 4, 6),
                     size_choices_gb: Sequence[float] = (0.25, 0.5),
                     goal: str = "EDP", patience_s: float = 180.0,
                     freq_ghz: float = 1.8,
                     stream=None) -> Plan:
    """DC (extension): cluster-scheduler comparison on mixed racks.

    One seed-deterministic arrival stream replays on the same mixed
    big+little datacenter under each policy (FIFO, fair, capacity, and
    the paper's §3.5 heterogeneity-aware placement); the comparison
    table reports makespan, energy, cluster-wide EDP, waiting and
    fairness.  The plan holds every cell a policy could place — both
    pools times each distinct job shape — so every inner per-job run is
    simulated once, fans out over the characterizer's workers and lands
    in the disk cache; results are bit-identical at any worker count.

    Pass *stream* (a :class:`~repro.cluster.arrivals.JobRequest`
    sequence, e.g. from :func:`~repro.cluster.arrivals.parse_trace`) to
    replay a recorded trace instead of the synthetic Poisson stream.
    """
    from ..cluster.arrivals import ArrivalConfig, poisson_stream
    from ..cluster.datacenter import (DatacenterSpec, default_job_model,
                                      job_key, run_policies)
    spec = DatacenterSpec.mixed(n_nodes, little_frac=little_frac,
                                rack_size=rack_size, freq_ghz=freq_ghz)
    if stream is None:
        stream = poisson_stream(ArrivalConfig(
            seed=seed, n_jobs=n_jobs, jobs_per_1000s=jobs_per_1000s,
            node_choices=tuple(node_choices),
            size_choices_gb=tuple(size_choices_gb)))
    else:
        stream = tuple(stream)
    cells = tuple(dict.fromkeys(job_key(machine, req, freq_ghz)
                                for machine in MACHINES for req in stream))

    def render(results: Results) -> Experiment:
        runs = run_policies(
            spec, stream, tuple(policies),
            job_model=default_job_model(results, freq_ghz=freq_ghz),
            goal=goal, patience_s=patience_s)
        exp = Experiment(
            "DC", f"Datacenter scheduler comparison on {spec.total_nodes} "
                  f"mixed nodes, {len(stream)} jobs (extension, seed {seed})")
        exp.data["runs"] = runs
        summary_rows = []
        for name, run in runs.items():
            row = {"policy": name}
            row.update(run.summary())
            summary_rows.append(row)
        exp.data["summary"] = summary_rows
        exp.data["jobs"] = [dict(record, policy=name)
                            for name, run in runs.items()
                            for record in run.job_records()]
        header = list(summary_rows[0])
        exp.sections.append(format_table(
            header, [[row[k] for k in header] for row in summary_rows],
            title=f"{spec.pool_sizes()} nodes, {len(stream)} jobs, "
                  f"goal {goal}"))
        baseline = runs.get("fifo")
        if baseline is not None and baseline.cluster_edp > 0:
            rows = [[name, run.cluster_edp / baseline.cluster_edp,
                     run.makespan_s / baseline.makespan_s
                     if baseline.makespan_s > 0 else float("nan"),
                     run.total_dynamic_energy_j
                     / baseline.total_dynamic_energy_j
                     if baseline.total_dynamic_energy_j > 0
                     else float("nan")]
                    for name, run in runs.items()]
            exp.sections.append(format_table(
                ["policy", "EDP vs fifo", "makespan vs fifo",
                 "energy vs fifo"], rows, title="normalized to FIFO"))
            hetero = runs.get("hetero")
            if hetero is not None:
                little = int(hetero.summary()["little_pool_jobs"])
                energy = (hetero.total_dynamic_energy_j
                          / baseline.total_dynamic_energy_j)
                exp.sections.append(
                    f"study: the heterogeneity-aware policy places {little} "
                    f"of {len(stream)} jobs on the little-core pool and "
                    f"reaches {hetero.cluster_edp / baseline.cluster_edp:.2f}x"
                    f" FIFO's cluster EDP (energy {energy:.2f}x, makespan "
                    f"{hetero.makespan_s / baseline.makespan_s:.2f}x); the "
                    f"type-blind queue disciplines only reshuffle waiting. "
                    f"Full study: docs/SCHEDULING.md")
        return exp

    return Plan(cells, render)


#: Experiment id -> driver, for the CLI and the bench harness.
ALL_EXPERIMENTS: Dict[str, Callable[..., Experiment]] = {
    "F1": fig1_ipc, "F2": fig2_edxp_suites, "F3": fig3_exectime_micro,
    "F4": fig4_exectime_real, "F5": fig5_edp_real, "F6": fig6_edp_micro,
    "F7": fig7_phase_edp_micro, "F8": fig8_phase_edp_real,
    "F9": fig9_edp_ratio_block, "F10": fig10_breakdown_micro,
    "F11": fig11_breakdown_real, "F12": fig12_edp_datasize,
    "F13": fig13_phase_edp_datasize, "F14": fig14_accel_sweep,
    "F15": fig15_accel_freq, "F16": fig16_accel_block, "T3": table3_cost,
    "F17": fig17_spider, "S1": scheduling_case_study,
    "X1": phase_scheduling_study, "X2": tuning_study, "FT": fault_sweep,
    "DC": datacenter_study,
}
