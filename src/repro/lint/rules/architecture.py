"""Architecture rule (ARCH001): the import-layer tier contract.

The per-file half checks every import a module makes against the
committed tier contract (``import-contract.json`` at the repo root):
an edge between two different tiers must be whitelisted, or carried as
an explicit grandfathered exception.  This is the repo's one
import-boundary check: the contract keeps the wall-clock telemetry
modules (``obs.registry``/``obs.reqtrace``/``obs.slog``) out of every
model package, pins serve/loadgen out of the model and keeps ``lint/``
free of model imports.

The project half runs once over the whole tree and reports *runtime
import cycles* (top-level, non-``TYPE_CHECKING`` imports only —
deferred imports cannot deadlock module initialization).

Without a contract file (in-memory fixtures with no root, or a
checkout that deleted it) the edge check is silent; the cycle check
needs no contract and always runs.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, Iterable, Optional, Set, Tuple

from ..findings import Finding
from ..layers import (Contract, ModuleGraph, iter_import_edges,
                      load_contract, module_name_for, resolve_to_module)
from ..registry import FileContext, ProjectContext, Rule, register

__all__ = ["ImportContractRule"]


@register
class ImportContractRule(Rule):
    """ARCH001: imports must respect the declared tier contract."""

    id = "ARCH001"
    name = "import-tier-contract"
    description = ("cross-tier imports must be whitelisted in "
                   "import-contract.json (the result tier never imports "
                   "serve/telemetry, lint never imports the model) and "
                   "the runtime import graph must stay acyclic")
    include = ("src/repro",)
    project = True

    def __init__(self) -> None:
        #: Per-root caches; keyed on resolved root path.
        self._contracts: Dict[str, Optional[Contract]] = {}
        self._known: Dict[str, Set[str]] = {}

    def _contract(self, root: Path) -> Optional[Contract]:
        key = str(root)
        if key not in self._contracts:
            self._contracts[key] = load_contract(root)
        return self._contracts[key]

    def _known_modules(self, root: Path) -> Set[str]:
        key = str(root)
        if key not in self._known:
            base = root / "src" / "repro"
            self._known[key] = {
                module_name_for(p.relative_to(root).as_posix())
                for p in base.rglob("*.py")}
        return self._known[key]

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        tree = ctx.tree
        if tree is None or ctx.root is None:
            return
        contract = self._contract(ctx.root)
        if contract is None:
            return
        module = module_name_for(ctx.relpath)
        known = self._known_modules(ctx.root)
        is_pkg = ctx.relpath.endswith("__init__.py")
        seen: Set[Tuple[str, str]] = set()
        for raw, lineno, deferred, tc in iter_import_edges(
                tree, module, is_pkg):
            if tc:
                continue
            target = resolve_to_module(raw, known)
            if target is None or target == module \
                    or module.startswith(target + "."):
                continue
            if (module, target) in seen:
                continue
            seen.add((module, target))
            violation = contract.edge_violation(module, target, lineno,
                                                deferred)
            if violation is not None:
                yield self.finding_at(ctx, lineno, 0,
                                      violation.describe())

    def check_project(self,
                      project: ProjectContext) -> Iterable[Finding]:
        items = []
        paths: Dict[str, str] = {}
        for ctx in project.python_contexts():
            if not ctx.relpath.startswith("src/repro"):
                continue
            module = module_name_for(ctx.relpath)
            items.append((module, ctx.tree,
                          ctx.relpath.endswith("__init__.py")))
            paths[module] = ctx.relpath
        if not items:
            return
        graph = ModuleGraph.from_trees(items)
        for cycle in graph.cycles():
            anchor = cycle[0]
            loop = " -> ".join(cycle + [cycle[0]])
            yield Finding(
                rule_id=self.id, path=paths.get(anchor, anchor), line=1,
                col=0, severity=self.severity,
                message=(f"runtime import cycle: {loop}; break it with "
                         f"a deferred (function-level) import or by "
                         f"moving the shared piece down a tier"))

