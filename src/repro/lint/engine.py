"""Lint engine: file discovery, rule dispatch, suppression filtering.

The pipeline is ``file -> FileContext (one parse) -> per-rule check ->
Finding`` with inline suppressions applied last, so a suppressed
finding never reaches the gate.  Findings come back
sorted by ``(path, line, col, rule)`` — deterministic output is not
optional for the tool that enforces determinism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence

from .findings import Finding
from .registry import FileContext, ProjectContext, Rule, all_rules
from .suppress import Suppressions, parse_suppressions

__all__ = ["LintResult", "find_repo_root", "discover_files", "lint_tree",
           "lint_source", "DEFAULT_PY_ROOTS", "MD_EXCLUDE"]

#: Where python rules look by default (repo-root-relative).
DEFAULT_PY_ROOTS = ("src/repro",)

#: Root-level markdown excluded from doc rules: quoted upstream
#: material whose links point into *their* source trees, plus
#: generated output — not authored docs.
MD_EXCLUDE = frozenset({"PAPERS.md", "SNIPPETS.md", "ISSUE.md",
                        "reproduction_report.md"})


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: List[Finding] = field(default_factory=list)
    files_checked: int = 0
    suppressed: int = 0


def find_repo_root(start: Optional[Path] = None) -> Path:
    """Locate the repo root: nearest ancestor with ``pyproject.toml``.

    Falls back to the checkout that holds this package (src/repro/lint
    is three levels below the root), so the linter works from any cwd.
    """
    candidates = []
    if start is not None:
        candidates.append(Path(start).resolve())
    candidates.append(Path.cwd().resolve())
    for base in candidates:
        for directory in (base, *base.parents):
            if (directory / "pyproject.toml").exists():
                return directory
    return Path(__file__).resolve().parents[3]


def _iter_python_files(root: Path, rel_roots: Sequence[str]) -> List[Path]:
    files: List[Path] = []
    for rel in rel_roots:
        base = root / rel
        if base.is_file() and base.suffix == ".py":
            files.append(base)
        elif base.is_dir():
            files.extend(sorted(base.rglob("*.py")))
    return files


def _iter_markdown_files(root: Path,
                         rel_roots: Optional[Sequence[str]]) -> List[Path]:
    if rel_roots is not None:
        files = []
        for rel in rel_roots:
            base = root / rel
            if base.is_file() and base.suffix == ".md":
                files.append(base)
            elif base.is_dir():
                files.extend(sorted(base.rglob("*.md")))
        return files
    files = sorted(p for p in root.glob("*.md") if p.name not in MD_EXCLUDE)
    docs = root / "docs"
    if docs.is_dir():
        files += sorted(docs.glob("*.md"))
    return files


def discover_files(root: Path,
                   paths: Optional[Sequence[str]] = None) -> List[str]:
    """Repo-relative POSIX paths to lint.

    With explicit *paths* (files or directories, relative to *root*),
    only those are scanned — both ``.py`` and ``.md``.  Otherwise the
    defaults apply: python under ``src/repro``, markdown at the root
    (minus :data:`MD_EXCLUDE`) and under ``docs/``.
    """
    py = _iter_python_files(root, paths if paths is not None
                            else DEFAULT_PY_ROOTS)
    md = _iter_markdown_files(root, paths)
    seen = []
    for path in [*py, *md]:
        rel = path.resolve().relative_to(root.resolve()).as_posix()
        if rel not in seen:
            seen.append(rel)
    return sorted(seen)


def _check_file(root: Path, relpath: str, rules: Sequence[Rule],
                result: LintResult,
                contexts: List[FileContext],
                suppressions_by_path: dict) -> None:
    path = root / relpath
    try:
        # utf-8-sig transparently strips a BOM (plain utf-8 would feed
        # the parser a leading U+FEFF, which is a syntax error).
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        result.findings.append(Finding(
            rule_id="LINT000", path=relpath, line=1, col=0,
            message=f"cannot read file: {exc}"))
        return
    kind = "python" if relpath.endswith(".py") else "markdown"
    ctx = FileContext(relpath, text, root=root)
    applicable = [r for r in rules
                  if r.kind == kind and r.applies_to(relpath)]
    if not applicable:
        return
    result.files_checked += 1
    contexts.append(ctx)
    if kind == "python" and ctx.parse_error is not None:
        err = ctx.parse_error
        result.findings.append(Finding(
            rule_id="LINT000", path=relpath, line=err.lineno or 1,
            col=(err.offset or 1) - 1, message=f"syntax error: {err.msg}"))
        return
    suppressions = parse_suppressions(text)
    suppressions_by_path[relpath] = suppressions
    if kind == "python":
        # Markdown legitimately *documents* directive syntax with
        # placeholder ids; only real sources get typo validation.
        for warning in suppressions.directive_warnings(relpath):
            result.findings.append(warning)
    for rule in applicable:
        for finding in rule.check(ctx):
            if suppressions.is_suppressed(finding.rule_id, finding.line):
                result.suppressed += 1
            else:
                result.findings.append(finding)


def lint_tree(root: Path, paths: Optional[Sequence[str]] = None,
              rules: Optional[Sequence[Rule]] = None) -> LintResult:
    """Lint the tree under *root*; returns sorted findings.

    Per-file rules run first; rules flagged ``project = True`` then get
    one :class:`ProjectContext` over every file context the per-file
    pass built (project rules always see the whole tree, even when
    *paths* narrows the per-file pass — cross-file properties like
    import cycles are not meaningful on a subset).
    """
    rules = list(rules) if rules is not None else all_rules()
    result = LintResult()
    contexts: List[FileContext] = []
    suppressions_by_path: dict = {}
    for relpath in discover_files(root, paths):
        _check_file(root, relpath, rules, result, contexts,
                    suppressions_by_path)
    project_rules = [r for r in rules if r.project]
    if project_rules:
        project = ProjectContext(root, contexts)
        for rule in project_rules:
            for finding in rule.check_project(project):
                suppressions = suppressions_by_path.get(
                    finding.path, Suppressions.empty())
                if suppressions.is_suppressed(finding.rule_id,
                                              finding.line):
                    result.suppressed += 1
                else:
                    result.findings.append(finding)
    result.findings.sort(key=lambda f: f.sort_key)
    return result


def lint_source(text: str, relpath: str = "src/repro/example.py",
                rules: Optional[Sequence[Rule]] = None,
                root: Optional[Path] = None) -> List[Finding]:
    """Lint an in-memory snippet as if it lived at *relpath*.

    The fixture harness for rule tests: pick a *relpath* inside (or
    outside) a rule's scope to exercise positives, negatives and
    scoping without touching the filesystem.
    """
    rules = list(rules) if rules is not None else all_rules()
    kind = "python" if relpath.endswith(".py") else "markdown"
    ctx = FileContext(relpath, text, root=root)
    suppressions = parse_suppressions(text)
    findings: List[Finding] = []
    for rule in rules:
        if rule.kind != kind or not rule.applies_to(relpath):
            continue
        if kind == "python" and ctx.parse_error is not None:
            err = ctx.parse_error
            return [Finding(rule_id="LINT000", path=relpath,
                            line=err.lineno or 1, col=(err.offset or 1) - 1,
                            message=f"syntax error: {err.msg}")]
        for finding in rule.check(ctx):
            if not suppressions.is_suppressed(finding.rule_id, finding.line):
                findings.append(finding)
    findings.sort(key=lambda f: f.sort_key)
    return findings
