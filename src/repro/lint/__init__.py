"""``repro.lint`` — AST-based determinism & simulation-purity linter.

The reproduction's headline guarantee is byte-identical sweep/trace/CSV
output at any ``--jobs``, on any platform, for the same seed.  Runtime
diff jobs in CI verify that property end-to-end but only *after* a full
sweep; this package catches the underlying bug classes statically, at
commit time: salted ``hash()`` (DET001), unseeded randomness (DET002),
wall-clock reads in model code (DET003), unordered iteration feeding
ordered output (DET004), unsorted directory listings (DET005), tainted
values flowing through locals into export sinks (DET006), import-layer
contract violations and cycles (ARCH001), host I/O inside pure model
code (PURE001), unguarded observability handles (OBS001) and broken doc
links (DOC001).  DET003–DET006 share an intraprocedural taint dataflow
engine (:mod:`repro.lint.taint`); ARCH001 is backed by the import graph
in :mod:`repro.lint.layers`.

Entry points:

* ``repro-hadoop lint`` — the CLI (see :mod:`repro.lint.cli`).
* :func:`lint_tree` / :func:`lint_source` — library API, the latter is
  the snippet harness the rule tests use.
* :func:`all_rules` / :class:`Rule` — the registry, for adding rules.

See ``docs/LINTING.md`` for the rule catalog and the inline
suppression syntax, the one way to accept a finding.
"""

from .engine import (LintResult, discover_files, find_repo_root,
                     lint_source, lint_tree)
from .findings import Finding
from .layers import Contract, ModuleGraph, load_contract
from .registry import (FileContext, ProjectContext, Rule, all_rules,
                       get_rule, register)
from .suppress import parse_suppressions
from .taint import ModuleDataflow, analyze, dataflow_of

__all__ = [
    "Contract", "FileContext", "Finding", "LintResult",
    "ModuleDataflow", "ModuleGraph", "ProjectContext", "Rule",
    "all_rules", "analyze", "dataflow_of", "discover_files",
    "find_repo_root", "get_rule", "lint_source", "lint_tree",
    "load_contract", "parse_suppressions", "register",
]
