"""One-shot reproduction report generator.

Renders every experiment (the 17 figures, Table 3, the scheduling case
study, the extensions) plus the quantitative claim validation into a
single markdown document — the artifact a reviewer would skim to judge
the reproduction.  Exposed via ``repro-hadoop report``.
"""

from __future__ import annotations

import io
from typing import Iterable, Optional, Sequence

from ..core.characterization import Characterizer
from .experiments import ALL_EXPERIMENTS, run_experiments
from .validation import validate

__all__ = ["generate_report"]


def generate_report(characterizer: Optional[Characterizer] = None,
                    experiment_ids: Optional[Sequence[str]] = None,
                    include_validation: bool = True) -> str:
    """Build the full markdown report; returns it as a string.

    Args:
        characterizer: shared measurement cache (created if omitted).
        experiment_ids: subset of experiment ids to include; defaults to
            all of them in registry order.
        include_validation: prepend the 15-claim validation table.
    """
    ch = characterizer if characterizer is not None else Characterizer()
    ids = list(experiment_ids) if experiment_ids else list(ALL_EXPERIMENTS)
    unknown = [i for i in ids if i not in ALL_EXPERIMENTS]
    if unknown:
        raise KeyError(f"unknown experiment ids: {unknown}")

    experiments = run_experiments(ch, ids)
    out = io.StringIO()
    out.write("# Reproduction report: Big vs little core for "
              "energy-efficient Hadoop computing\n\n")
    out.write("Generated by `repro-hadoop report`. Absolute numbers come "
              "from the calibrated simulator; see EXPERIMENTS.md for the "
              "paper-vs-measured discussion.\n\n")

    if include_validation:
        report = validate(ch)
        out.write("## Quantitative claim validation\n\n```\n")
        out.write(report.render())
        out.write("\n```\n\n")

    for experiment in experiments:
        out.write(f"## {experiment.exp_id}: {experiment.title}\n\n")
        for section in experiment.sections:
            out.write("```\n")
            out.write(section)
            out.write("\n```\n\n")
    return out.getvalue()
