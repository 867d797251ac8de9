"""Architecture rule (ARCH001): the import-layer tier contract.

Both halves run once per lint run, over the whole tree, so an edit to
the contract or to the module set is seen by the next run in the same
process.  The edge half checks every import a module makes against the
committed tier contract (``import-contract.json`` at the repo root):
an edge between two different tiers must be whitelisted, or carried as
an explicit grandfathered exception.  This is the repo's one
import-boundary check: the contract keeps the wall-clock telemetry
modules (``obs.registry``/``obs.reqtrace``/``obs.slog``) out of every
model package, pins serve/loadgen out of the model and keeps ``lint/``
free of model imports.

The cycle half reports *runtime import cycles* (top-level,
non-``TYPE_CHECKING`` imports only — deferred imports cannot deadlock
module initialization).

Without a contract file (in-memory fixtures with no root, or a
checkout that deleted it) the edge check is silent; the cycle check
needs no contract and always runs.
"""

from __future__ import annotations

from typing import Dict, Iterable, Set, Tuple

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

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        # Both halves read the whole tree, so both run in
        # :meth:`check_project`, once per lint run.
        return ()

    def check_project(self,
                      project: ProjectContext) -> Iterable[Finding]:
        contexts = [ctx for ctx in project.python_contexts()
                    if ctx.relpath.startswith("src/repro")]
        if not contexts:
            return
        root = project.root
        contract = load_contract(root) if root is not None else None
        if contract is not None:
            known = {module_name_for(p.relative_to(root).as_posix())
                     for p in (root / "src" / "repro").rglob("*.py")}
            for ctx in contexts:
                yield from self._edge_findings(ctx, contract, known)
        items = []
        paths: Dict[str, str] = {}
        for ctx in contexts:
            module = module_name_for(ctx.relpath)
            items.append((module, ctx.tree,
                          ctx.relpath.endswith("__init__.py")))
            paths[module] = ctx.relpath
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

    def _edge_findings(self, ctx: FileContext, contract: Contract,
                       known: Set[str]) -> Iterable[Finding]:
        """Every import in *ctx* that crosses tiers off the contract."""
        tree = ctx.tree
        if tree is None:
            return
        module = module_name_for(ctx.relpath)
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
