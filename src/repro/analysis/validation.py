"""Programmatic paper-vs-measured validation.

EXPERIMENTS.md narrates the comparison; this module *computes* it.  Each
:class:`Claim` encodes one quantitative statement from the paper as a
measured quantity plus an acceptance band; :func:`validate` evaluates
them all against the characterization database and returns a structured
report the CLI (``repro-hadoop validate``) renders and tests assert on.

Bands are deliberately loose where the substrate differs from the
authors' testbed (see EXPERIMENTS.md for the reasoning per claim).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..arch.presets import ATOM_C2758, XEON_E5_2420
from ..core.characterization import Characterizer, RunKey, default_data_gb
from ..core.metrics import edxp
from ..workloads.base import MICRO_BENCHMARKS, REAL_WORLD
from ..workloads.traditional import SPEC_CPU2006, suite_average_ipc
from .tables import format_table

__all__ = ["Claim", "ClaimResult", "ValidationReport", "PAPER_CLAIMS",
           "validate"]


@dataclass(frozen=True)
class Claim:
    """One quantitative statement from the paper."""

    claim_id: str
    source: str                  # paper section/figure
    statement: str
    paper_value: Optional[float]
    band: Tuple[float, float]
    measure: Callable[[Characterizer], float]


@dataclass(frozen=True)
class ClaimResult:
    claim: Claim
    measured: float

    @property
    def ok(self) -> bool:
        lo, hi = self.claim.band
        return lo <= self.measured <= hi


@dataclass
class ValidationReport:
    results: List[ClaimResult]

    @property
    def passed(self) -> int:
        return sum(1 for r in self.results if r.ok)

    @property
    def total(self) -> int:
        return len(self.results)

    @property
    def all_ok(self) -> bool:
        return self.passed == self.total

    def render(self) -> str:
        rows = []
        for r in self.results:
            paper = ("-" if r.claim.paper_value is None
                     else f"{r.claim.paper_value:g}")
            lo, hi = r.claim.band
            rows.append([r.claim.claim_id, r.claim.source, paper,
                         f"{r.measured:.3g}", f"[{lo:g}, {hi:g}]",
                         "ok" if r.ok else "MISS"])
        table = format_table(
            ["claim", "source", "paper", "measured", "band", "verdict"],
            rows, title="paper-vs-measured validation")
        return f"{table}\n{self.passed}/{self.total} claims in band"


def _ratio(ch: Characterizer, wl: str, **kw) -> float:
    kw.setdefault("data_per_node_gb", default_data_gb(wl))
    atom = ch.run(RunKey("atom", wl, **kw))
    xeon = ch.run(RunKey("xeon", wl, **kw))
    return atom.execution_time_s / xeon.execution_time_s


def _edp_ratio(ch: Characterizer, wl: str, **kw) -> float:
    kw.setdefault("data_per_node_gb", default_data_gb(wl))
    atom = ch.run(RunKey("atom", wl, **kw))
    xeon = ch.run(RunKey("xeon", wl, **kw))
    return (edxp(atom.dynamic_energy_j, atom.execution_time_s, 1)
            / edxp(xeon.dynamic_energy_j, xeon.execution_time_s, 1))


def _hadoop_ipc(ch: Characterizer, machine: str) -> float:
    values = [ch.run(RunKey(machine, wl,
                            data_per_node_gb=default_data_gb(wl))).ipc
              for wl in MICRO_BENCHMARKS + REAL_WORLD]
    return sum(values) / len(values)


def _freq_gain(ch: Characterizer, machine: str, wl: str) -> float:
    slow = ch.run(RunKey(machine, wl, freq_ghz=1.2))
    fast = ch.run(RunKey(machine, wl, freq_ghz=1.8))
    return 1 - fast.execution_time_s / slow.execution_time_s


PAPER_CLAIMS: Tuple[Claim, ...] = (
    Claim("C01", "Fig.3", "Atom/Xeon time ratio, WordCount", 1.74,
          (1.3, 2.2), lambda ch: _ratio(ch, "wordcount")),
    Claim("C02", "Fig.3", "Atom/Xeon time ratio, Grep", 1.39,
          (1.2, 2.2), lambda ch: _ratio(ch, "grep")),
    Claim("C03", "Fig.3", "Atom/Xeon time ratio, TeraSort", 1.57,
          (1.3, 2.3), lambda ch: _ratio(ch, "terasort")),
    Claim("C04", "Fig.3", "Atom/Xeon time ratio, Sort (outlier)", 15.4,
          (4.0, 16.0), lambda ch: _ratio(ch, "sort")),
    Claim("C05", "Fig.1", "SPEC-to-Hadoop IPC drop on the big core", 2.16,
          (1.6, 2.7),
          lambda ch: suite_average_ipc(XEON_E5_2420, SPEC_CPU2006)
          / _hadoop_ipc(ch, "xeon")),
    Claim("C06", "Fig.1", "SPEC-to-Hadoop IPC drop on the little core",
          1.55, (1.2, 2.2),
          lambda ch: suite_average_ipc(ATOM_C2758, SPEC_CPU2006)
          / _hadoop_ipc(ch, "atom")),
    Claim("C07", "Fig.1", "Xeon/Atom Hadoop IPC gap", 1.43, (1.2, 2.0),
          lambda ch: _hadoop_ipc(ch, "xeon") / _hadoop_ipc(ch, "atom")),
    Claim("C08", "Fig.6", "EDP Atom/Xeon, WordCount (<1: Atom wins)", None,
          (0.2, 1.0), lambda ch: _edp_ratio(ch, "wordcount")),
    Claim("C09", "Fig.6", "EDP Atom/Xeon, Sort (>1: Xeon wins)", None,
          (2.0, 40.0), lambda ch: _edp_ratio(ch, "sort")),
    Claim("C10", "Fig.5", "EDP Atom/Xeon, Naive Bayes", None,
          (0.2, 1.0), lambda ch: _edp_ratio(ch, "naive_bayes")),
    Claim("C11", "§3.1.1", "frequency gain 1.2->1.8 GHz, Atom Sort",
          0.446, (0.2, 0.45),
          lambda ch: _freq_gain(ch, "atom", "sort")),
    Claim("C12", "§3.1.1", "frequency gain 1.2->1.8 GHz, Xeon Sort",
          None, (0.05, 0.35),
          lambda ch: _freq_gain(ch, "xeon", "sort")),
    Claim("C13", "§3.1.1", "WC slowdown at 512 vs 256 MB blocks", None,
          (1.2, 3.0),
          lambda ch: ch.run(RunKey("xeon", "wordcount",
                                   block_size_mb=512.0)).execution_time_s
          / ch.run(RunKey("xeon", "wordcount",
                          block_size_mb=256.0)).execution_time_s),
    Claim("C14", "Fig.9", "EDP gap growth 32->512 MB, WordCount", None,
          (1.0, 2.0),
          lambda ch: (1 / _edp_ratio(ch, "wordcount", block_size_mb=512.0))
          / (1 / _edp_ratio(ch, "wordcount", block_size_mb=32.0))),
    Claim("C15", "Table 3", "Sort Atom EDP gain from 2 to 8 cores", 5.0,
          (2.0, 12.0), lambda ch: _t3_gain(ch)),
)


def _t3_gain(ch: Characterizer) -> float:
    from ..core.cost import cost_table
    table = cost_table("sort", characterizer=ch)
    row = table.row("EDP", "atom")
    return row[0] / row[-1]


def validate(characterizer: Optional[Characterizer] = None,
             claims: Sequence[Claim] = PAPER_CLAIMS) -> ValidationReport:
    """Evaluate every claim; returns the structured report."""
    ch = characterizer if characterizer is not None else Characterizer()
    return ValidationReport(
        results=[ClaimResult(claim=c, measured=c.measure(ch))
                 for c in claims])
