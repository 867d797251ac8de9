"""Import-layer contract checker: module graph, tiers, cycles (ARCH001).

The repo's layering is a *declarative tier contract*:

* :class:`ModuleGraph` parses every module under ``src/repro`` and
  records its imports of other repo modules — split into *runtime*
  (module top level, what Python executes at import time), *deferred*
  (inside a function/method, executed later if at all) and
  *type-checking-only* (inside ``if TYPE_CHECKING:``, erased at
  runtime).
* :class:`Contract` maps module prefixes to named tiers
  (longest-prefix wins) and whitelists the tier-to-tier edges the
  architecture permits.  Everything not whitelisted is a violation;
  single grandfathered module-to-module edges can be carried as
  explicit ``exceptions`` so the whitelist itself stays tight.
* Cycle detection runs over the *runtime* edges (Tarjan SCC) — a
  deferred import cannot deadlock module initialization, but a
  top-level cycle can.

The checked-in contract lives at ``import-contract.json`` at the repo
root.  Rule ARCH001 (``rules/architecture.py``) reports violations and
cycles through ``repro-hadoop lint``, the one gate;
``repro-hadoop lint --graph dot|json`` dumps the graph.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

__all__ = ["ImportEdge", "ModuleGraph", "Contract", "Violation",
           "CONTRACT_NAME", "load_contract", "module_name_for",
           "resolve_to_module"]

#: Contract file name, repo-root-relative.
CONTRACT_NAME = "import-contract.json"

#: The top-level package the graph covers.
_PACKAGE = "repro"


@dataclass(frozen=True)
class ImportEdge:
    """One ``import`` statement resolved to a repo module."""

    module: str            #: importing module (``repro.sim.engine``)
    target: str            #: imported repo module
    lineno: int
    deferred: bool         #: inside a function/method body
    type_checking: bool    #: inside ``if TYPE_CHECKING:``


def module_name_for(relpath: str) -> str:
    """``src/repro/analysis/sweep.py`` -> ``repro.analysis.sweep``."""
    parts = Path(relpath).with_suffix("").parts
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _is_type_checking_test(test: ast.expr) -> bool:
    if isinstance(test, ast.Name) and test.id == "TYPE_CHECKING":
        return True
    return (isinstance(test, ast.Attribute)
            and test.attr == "TYPE_CHECKING")


def _absolute_from(module: str, is_pkg: bool,
                   node: ast.ImportFrom) -> Optional[str]:
    """Absolute module named by a (possibly relative) ``from`` import."""
    if node.level == 0:
        return node.module
    parts = module.split(".")
    anchor = parts[:len(parts) - node.level + (1 if is_pkg else 0)]
    if node.level > len(parts):
        return None
    return ".".join(anchor + ([node.module] if node.module else []))


def iter_import_edges(tree: ast.Module, module: str,
                      is_pkg: bool) -> Iterator[Tuple[str, int, bool, bool]]:
    """Yield ``(target, lineno, deferred, type_checking)`` candidates.

    Targets are raw dotted names (``from X import name`` yields both
    ``X`` and ``X.name`` — the caller resolves which one is a module).
    """

    def walk(node: ast.AST, deferred: bool, type_checking: bool):
        for child in ast.iter_child_nodes(node):
            child_deferred = deferred or isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
            child_tc = type_checking
            if isinstance(child, ast.If) \
                    and _is_type_checking_test(child.test):
                child_tc = True
            if isinstance(child, ast.Import):
                for alias in child.names:
                    if alias.name.split(".")[0] == _PACKAGE:
                        yield (alias.name, child.lineno, deferred,
                               type_checking)
            elif isinstance(child, ast.ImportFrom):
                source = _absolute_from(module, is_pkg, child)
                if source and source.split(".")[0] == _PACKAGE:
                    yield (source, child.lineno, deferred, type_checking)
                    for alias in child.names:
                        if alias.name != "*":
                            yield (f"{source}.{alias.name}", child.lineno,
                                   deferred, type_checking)
            else:
                yield from walk(child, child_deferred, child_tc)

    yield from walk(tree, False, False)


@dataclass
class ModuleGraph:
    """Every module under ``src/repro`` plus its resolved repo imports."""

    modules: List[str] = field(default_factory=list)
    edges: List[ImportEdge] = field(default_factory=list)

    @classmethod
    def build(cls, root: Path) -> "ModuleGraph":
        files: Dict[str, Path] = {}
        base = root / "src" / _PACKAGE
        for path in sorted(base.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            files[module_name_for(rel)] = path

        def parse(module: str) -> Optional[ast.Module]:
            try:
                return ast.parse(
                    files[module].read_text(encoding="utf-8-sig"))
            except (OSError, SyntaxError):
                return None

        return cls.from_trees(
            [(m, parse(m), files[m].name == "__init__.py")
             for m in sorted(files)])

    @classmethod
    def from_trees(cls, items: Sequence[Tuple[str, Optional[ast.Module],
                                              bool]]) -> "ModuleGraph":
        """Build from ``(module, tree_or_None, is_pkg)`` triples."""
        graph = cls(modules=sorted(m for m, _, _ in items))
        known = set(graph.modules)
        seen: Set[Tuple[str, str, int, bool, bool]] = set()
        for module, tree, is_pkg in sorted(items):
            if tree is None:
                continue
            for raw, lineno, deferred, tc in iter_import_edges(
                    tree, module, is_pkg):
                target = resolve_to_module(raw, known)
                if target is None or target == module:
                    continue
                # ``from . import sibling`` names the importer's own
                # ancestor package; that edge is definitionally
                # satisfied mid-initialization and carries no
                # architectural information.  The sibling itself is
                # still recorded (the ``X.name`` candidate above).
                if module.startswith(target + "."):
                    continue
                key = (module, target, lineno, deferred, tc)
                if key in seen:
                    continue
                seen.add(key)
                graph.edges.append(ImportEdge(module, target, lineno,
                                              deferred, tc))
        return graph

    # -- views ------------------------------------------------------------

    def runtime_adjacency(self) -> Dict[str, Set[str]]:
        """Top-level, non-TYPE_CHECKING edges (import-time behavior)."""
        adj: Dict[str, Set[str]] = {m: set() for m in self.modules}
        for edge in self.edges:
            if not edge.deferred and not edge.type_checking:
                adj[edge.module].add(edge.target)
        return adj

    def contract_edges(self) -> List[ImportEdge]:
        """Edges the tier contract judges: everything but typing-only."""
        return [e for e in self.edges if not e.type_checking]

    def cycles(self) -> List[List[str]]:
        """Import cycles among runtime edges (Tarjan SCC, size > 1)."""
        adj = self.runtime_adjacency()
        index: Dict[str, int] = {}
        low: Dict[str, int] = {}
        on_stack: Set[str] = set()
        stack: List[str] = []
        sccs: List[List[str]] = []
        counter = [0]

        def strongconnect(node: str) -> None:
            # Iterative Tarjan: recursion depth is unbounded otherwise.
            work = [(node, iter(sorted(adj[node])))]
            index[node] = low[node] = counter[0]
            counter[0] += 1
            stack.append(node)
            on_stack.add(node)
            while work:
                current, it = work[-1]
                advanced = False
                for succ in it:
                    if succ not in index:
                        index[succ] = low[succ] = counter[0]
                        counter[0] += 1
                        stack.append(succ)
                        on_stack.add(succ)
                        work.append((succ, iter(sorted(adj[succ]))))
                        advanced = True
                        break
                    if succ in on_stack:
                        low[current] = min(low[current], index[succ])
                if advanced:
                    continue
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[current])
                if low[current] == index[current]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == current:
                            break
                    if len(component) > 1:
                        sccs.append(sorted(component))

        for module in self.modules:
            if module not in index:
                strongconnect(module)
        return sorted(sccs)

    # -- serializations ---------------------------------------------------

    def to_json(self, contract: Optional["Contract"] = None) -> Dict:
        doc: Dict = {
            "version": 1,
            "package": _PACKAGE,
            "modules": list(self.modules),
            "edges": [{"from": e.module, "to": e.target, "line": e.lineno,
                       "deferred": e.deferred,
                       "type_checking": e.type_checking}
                      for e in sorted(
                          self.edges,
                          key=lambda e: (e.module, e.target, e.lineno))],
            "cycles": self.cycles(),
        }
        if contract is not None:
            doc["tiers"] = {m: contract.tier_of(m) for m in self.modules}
            doc["violations"] = [v.as_dict()
                                 for v in contract.violations(self)]
        return doc

    def to_dot(self, contract: Optional["Contract"] = None) -> str:
        """Graphviz source, one node per module, clustered by tier."""
        lines = ["digraph repro_imports {",
                 '  rankdir="LR";',
                 '  node [shape=box, fontsize=10, fontname="Helvetica"];']
        if contract is not None:
            by_tier: Dict[str, List[str]] = {}
            for module in self.modules:
                by_tier.setdefault(contract.tier_of(module),
                                   []).append(module)
            for tier in sorted(by_tier):
                lines.append(f'  subgraph "cluster_{tier}" {{')
                lines.append(f'    label="{tier}";')
                for module in sorted(by_tier[tier]):
                    lines.append(f'    "{module}";')
                lines.append("  }")
        else:
            for module in self.modules:
                lines.append(f'  "{module}";')
        drawn: Set[Tuple[str, str]] = set()
        for edge in sorted(self.edges,
                           key=lambda e: (e.module, e.target, e.lineno)):
            if edge.type_checking:
                continue
            pair = (edge.module, edge.target)
            if pair in drawn:
                continue
            drawn.add(pair)
            style = ' [style=dashed]' if edge.deferred else ""
            lines.append(f'  "{edge.module}" -> "{edge.target}"{style};')
        lines.append("}")
        return "\n".join(lines) + "\n"


def resolve_to_module(raw: str, known: Set[str]) -> Optional[str]:
    """Longest known-module prefix of a raw dotted import target."""
    candidate = raw
    while candidate:
        if candidate in known:
            return candidate
        candidate = candidate.rpartition(".")[0]
    return None


@dataclass(frozen=True)
class Violation:
    """One contract-breaking import."""

    module: str
    target: str
    lineno: int
    from_tier: str
    to_tier: str
    deferred: bool

    def as_dict(self) -> Dict:
        return {"from": self.module, "to": self.target,
                "line": self.lineno, "from_tier": self.from_tier,
                "to_tier": self.to_tier, "deferred": self.deferred}

    def describe(self) -> str:
        kind = "deferred import of" if self.deferred else "imports"
        return (f"{self.module} ({self.from_tier} tier) {kind} "
                f"{self.target} ({self.to_tier} tier); edge "
                f"{self.from_tier}->{self.to_tier} is not in "
                f"{CONTRACT_NAME}")


class Contract:
    """Declarative tier map + whitelisted tier edges."""

    def __init__(self, tiers: Sequence[Tuple[str, str]],
                 allowed: Set[Tuple[str, str]],
                 exceptions: Set[Tuple[str, str]]):
        #: (module prefix, tier name); longest prefix wins.
        self.tiers = list(tiers)
        #: (from_tier, to_tier) pairs the architecture permits.
        self.allowed = set(allowed)
        #: (module prefix, module prefix) grandfathered specific edges.
        self.exceptions = set(exceptions)

    @classmethod
    def from_dict(cls, doc: Dict) -> "Contract":
        tiers = sorted(doc.get("tiers", {}).items())
        allowed = {(a, b) for a, b in doc.get("allowed_edges", [])}
        exceptions = {(a, b) for a, b in doc.get("exceptions", [])}
        return cls(tiers, allowed, exceptions)

    def as_dict(self) -> Dict:
        return {"version": 1,
                "tiers": dict(sorted(self.tiers)),
                "allowed_edges": sorted([list(p) for p in self.allowed]),
                "exceptions": sorted([list(p) for p in self.exceptions])}

    def tier_of(self, module: str) -> str:
        best_prefix, best_tier = "", "unassigned"
        for prefix, tier in self.tiers:
            if (module == prefix or module.startswith(prefix + ".")) \
                    and len(prefix) > len(best_prefix):
                best_prefix, best_tier = prefix, tier
        return best_tier

    def _excepted(self, module: str, target: str) -> bool:
        for mod_prefix, tgt_prefix in self.exceptions:
            if (module == mod_prefix
                    or module.startswith(mod_prefix + ".")) \
                    and (target == tgt_prefix
                         or target.startswith(tgt_prefix + ".")):
                return True
        return False

    def edge_violation(self, module: str, target: str, lineno: int,
                       deferred: bool) -> Optional[Violation]:
        from_tier = self.tier_of(module)
        to_tier = self.tier_of(target)
        if from_tier == to_tier:
            return None
        if (from_tier, to_tier) in self.allowed:
            return None
        if self._excepted(module, target):
            return None
        return Violation(module, target, lineno, from_tier, to_tier,
                         deferred)

    def violations(self, graph: ModuleGraph) -> List[Violation]:
        out = []
        seen: Set[Tuple[str, str]] = set()
        for edge in graph.contract_edges():
            pair = (edge.module, edge.target)
            if pair in seen:
                continue
            violation = self.edge_violation(edge.module, edge.target,
                                            edge.lineno, edge.deferred)
            if violation is not None:
                seen.add(pair)
                out.append(violation)
        return sorted(out, key=lambda v: (v.module, v.target))


def load_contract(root: Path) -> Optional[Contract]:
    """The committed contract, or ``None`` when the file is absent."""
    path = root / CONTRACT_NAME
    if not path.is_file():
        return None
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    return Contract.from_dict(doc)

