"""The committed paper tables are a checked contract.

Every ``ALL_EXPERIMENTS`` entry is rendered through one shared
characterizer and compared byte for byte with
``benchmarks/results/<ID>.txt``, so a changed number shows up as a
review diff of the committed table instead of passing unseen.

Each experiment's :class:`~repro.analysis.experiments.Plan` is checked
against its render as well: the render reads every cell the plan
declares and nothing else, so plans and renders cannot drift apart.

Regenerate after an intentional model change with
``PYTHONPATH=src python tests/test_paper_tables.py`` and commit the
refreshed tables together with the change that moved them.
"""

from __future__ import annotations

import sys
from dataclasses import replace
from pathlib import Path
from typing import Dict

import pytest

from repro.analysis.experiments import ALL_EXPERIMENTS, run_experiments
from repro.core import characterization
from repro.core.characterization import Characterizer, Results

RESULTS = Path(__file__).resolve().parent.parent / "benchmarks" / "results"


def render_all(ch: Characterizer) -> Dict[str, str]:
    """Every experiment's table, as ``benchmarks/results/`` stores it."""
    return {exp_id: driver(ch).render() + "\n"
            for exp_id, driver in ALL_EXPERIMENTS.items()}


@pytest.fixture(scope="module")
def rendered(characterizer) -> Dict[str, str]:
    return render_all(characterizer)


def test_every_experiment_has_a_committed_table():
    committed = {path.stem for path in RESULTS.glob("*.txt")}
    assert committed == set(ALL_EXPERIMENTS)


@pytest.mark.parametrize("exp_id", list(ALL_EXPERIMENTS))
def test_table_matches_committed(rendered, exp_id):
    expected = (RESULTS / f"{exp_id}.txt").read_text(encoding="utf-8")
    assert rendered[exp_id] == expected


class _Recording(Results):
    """Results that remember which cells were read."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, cell):
        self.read.add(cell)
        return super().__getitem__(cell)


@pytest.fixture()
def simulated(characterizer, rendered, monkeypatch):
    """Replace simulation with a lookup into the shared ``characterizer``
    fixture (which holds every plan cell once ``rendered`` has run);
    returns the list of cells "simulated" since."""
    calls = []

    def lookup(key, conf):
        calls.append((key, conf))
        return characterizer.run((key, conf))

    monkeypatch.setattr(characterization, "simulate_cell", lookup)
    return calls


@pytest.mark.parametrize("exp_id", list(ALL_EXPERIMENTS))
def test_plan_cells_are_all_the_render_needs(rendered, simulated, exp_id):
    driver = ALL_EXPERIMENTS[exp_id]
    ch = Characterizer()
    plan = driver.plan(ch)
    ch.run_many(plan.cells)
    assert len(ch) == len(simulated) == len(set(plan.cells))
    simulated.clear()
    assert driver(ch).render() + "\n" == rendered[exp_id]
    assert simulated == []


@pytest.mark.parametrize("exp_id", list(ALL_EXPERIMENTS))
def test_render_reads_every_plan_cell(characterizer, rendered, exp_id):
    plan = ALL_EXPERIMENTS[exp_id].plan(characterizer)
    results = _Recording(zip(plan.cells, characterizer.run_many(plan.cells)))
    assert plan.render(results).render() + "\n" == rendered[exp_id]
    unread = set(plan.cells) - results.read
    if exp_id != "DC":
        assert unread == set()
        return
    # DC's plan holds each job shape on both pools, since the placement
    # is only known once the policies run; each shape is read on at least
    # one pool, and at the defaults 30 of the 40 cells are read.
    for key in unread:
        other = "xeon" if key.machine == "atom" else "atom"
        assert replace(key, machine=other) in results.read
    assert (len(results.read), len(set(plan.cells))) == (30, 40)


def test_run_experiments_simulates_each_cell_once(rendered, simulated):
    ch = Characterizer()
    experiments = run_experiments(ch, list(ALL_EXPERIMENTS))
    assert {e.exp_id: e.render() + "\n" for e in experiments} == rendered
    assert len(simulated) == len(set(simulated)) == len(ch)


if __name__ == "__main__":
    RESULTS.mkdir(parents=True, exist_ok=True)
    for exp_id, text in render_all(Characterizer()).items():
        (RESULTS / f"{exp_id}.txt").write_text(text, encoding="utf-8")
        print(f"wrote {RESULTS / exp_id}.txt", file=sys.stderr)
