"""Rule base class, per-directory scoping, and the global registry.

A rule declares *what* it checks (:meth:`Rule.check`) and *where* it
applies (:attr:`Rule.include` / :attr:`Rule.exclude`, POSIX path
prefixes relative to the repo root).  The engine hands each rule a
:class:`FileContext` — one parsed file — and collects the findings it
yields.  Rules register themselves at import time via :func:`register`,
so importing :mod:`repro.lint.rules` populates the registry.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Type

from .findings import Finding

__all__ = ["FileContext", "ProjectContext", "Rule", "register",
           "all_rules", "get_rule"]


class FileContext:
    """One file under lint: source text plus a lazily parsed AST."""

    def __init__(self, relpath: str, text: str, root: Optional[Path] = None):
        self.relpath = relpath  # POSIX, relative to repo root
        self.text = text
        self.root = root  # repo root; None for in-memory snippets
        self._tree: Optional[ast.Module] = None
        self._parse_error: Optional[SyntaxError] = None

    @property
    def tree(self) -> Optional[ast.Module]:
        """Module AST, or ``None`` when the file does not parse."""
        if self._tree is None and self._parse_error is None:
            try:
                self._tree = ast.parse(self.text, filename=self.relpath)
            except SyntaxError as exc:
                self._parse_error = exc
        return self._tree

    @property
    def parse_error(self) -> Optional[SyntaxError]:
        self.tree  # trigger the parse
        return self._parse_error


class ProjectContext:
    """The whole tree, for rules that need cross-file state.

    Holds every :class:`FileContext` the engine built during the
    per-file pass, so a project rule (``Rule.project = True``) can see
    all parsed ASTs without re-reading anything.
    """

    def __init__(self, root: Optional[Path],
                 contexts: Sequence[FileContext]):
        self.root = root
        self.contexts = list(contexts)

    def python_contexts(self) -> List[FileContext]:
        return [ctx for ctx in self.contexts
                if ctx.relpath.endswith(".py")]


class Rule:
    """Base class for lint rules.

    Subclasses set the class attributes below and implement
    :meth:`check`.  ``kind`` selects which files the engine feeds the
    rule: ``"python"`` rules see ``*.py`` with a parsed AST,
    ``"markdown"`` rules see ``*.md`` text.

    A rule with ``project = True`` additionally implements
    :meth:`check_project`, which the engine calls once per run with a
    :class:`ProjectContext` after the per-file pass; its findings go
    through the same suppression pipeline keyed by each
    finding's ``path``.
    """

    id: str = ""
    name: str = ""
    description: str = ""
    severity: str = "error"
    kind: str = "python"
    #: True when the rule also runs once over the whole tree.
    project: bool = False
    #: Path prefixes (POSIX, repo-root-relative) the rule applies to.
    #: Empty means every file of the rule's kind.
    include: Tuple[str, ...] = ()
    #: Path prefixes exempt from the rule (checked after ``include``).
    exclude: Tuple[str, ...] = ()

    def applies_to(self, relpath: str) -> bool:
        if self.include and not _matches_any(relpath, self.include):
            return False
        return not _matches_any(relpath, self.exclude)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        raise NotImplementedError

    def check_project(self,
                      project: ProjectContext) -> Iterable[Finding]:
        """Whole-tree findings; only called when ``project`` is True."""
        return ()

    def finding(self, ctx: FileContext, node: ast.AST,
                message: str) -> Finding:
        """Build a finding anchored at an AST node."""
        return Finding(rule_id=self.id, path=ctx.relpath,
                       line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0),
                       message=message, severity=self.severity)

    def finding_at(self, ctx: FileContext, line: int, col: int,
                   message: str) -> Finding:
        return Finding(rule_id=self.id, path=ctx.relpath, line=line,
                       col=col, message=message, severity=self.severity)


def _matches_any(relpath: str, prefixes: Sequence[str]) -> bool:
    for prefix in prefixes:
        if relpath == prefix or relpath.startswith(prefix.rstrip("/") + "/"):
            return True
    return False


_REGISTRY: Dict[str, Rule] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and register a rule by its id."""
    rule = rule_cls()
    if not rule.id:
        raise ValueError(f"{rule_cls.__name__} has no id")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {rule.id}")
    _REGISTRY[rule.id] = rule
    return rule_cls


def all_rules() -> List[Rule]:
    """Every registered rule, ordered by id."""
    from . import rules  # noqa: F401  -- importing registers the rules
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def get_rule(rule_id: str) -> Rule:
    from . import rules  # noqa: F401
    try:
        return _REGISTRY[rule_id.upper()]
    except KeyError:
        raise KeyError(f"unknown rule id {rule_id!r}; "
                       f"known: {sorted(_REGISTRY)}") from None
