"""``repro-hadoop lint`` implementation.

Exit codes: 0 — no ``error`` findings; 1 — at least one; 2 —
usage/environment errors.  A finding is accepted only by an inline
suppression comment on its line (see :mod:`repro.lint.suppress`).
Output formats: ``text`` (one line per finding, gcc-style) and
``json`` (schema below, also written to ``--output`` for CI
artifacts)::

    {
      "version": 2,
      "root": "/abs/path",
      "files_checked": 57,
      "counts": {"total": N, "suppressed": N},
      "findings": [
        {"rule": "DET001", "path": "src/...", "line": 10, "col": 4,
         "message": "...", "severity": "error"},
        ...
      ]
    }
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from .engine import LintResult, find_repo_root, lint_tree
from .registry import all_rules

__all__ = ["run_lint"]

_SCHEMA_VERSION = 2


def _report_dict(root: Path, result: LintResult) -> dict:
    return {
        "version": _SCHEMA_VERSION,
        "root": str(root),
        "files_checked": result.files_checked,
        "counts": {
            "total": len(result.findings),
            "suppressed": result.suppressed,
        },
        "findings": [f.to_dict() for f in result.findings],
    }


def _render_text(result: LintResult) -> str:
    lines = [f.render() for f in result.findings]
    lines.append(f"lint: {result.files_checked} files, "
                 f"{len(result.findings)} finding(s), "
                 f"{result.suppressed} suppressed")
    return "\n".join(lines)


def run_lint(paths: Sequence[str] = (),
             output_format: str = "text",
             root: Optional[str] = None,
             output: Optional[str] = None,
             list_rules: bool = False,
             graph: Optional[str] = None,
             stdout=None) -> int:
    """Run the linter; returns the process exit code."""
    out = stdout if stdout is not None else sys.stdout
    if list_rules:
        for rule in all_rules():
            print(f"  {rule.id:8s} [{rule.kind}] {rule.description}",
                  file=out)
        return 0

    repo_root = (Path(root).resolve() if root is not None
                 else find_repo_root())
    if not repo_root.is_dir():
        print(f"repro-hadoop lint: error: root {repo_root} is not a "
              f"directory", file=sys.stderr)
        return 2

    if graph is not None:
        from .layers import ModuleGraph, load_contract
        module_graph = ModuleGraph.build(repo_root)
        contract = load_contract(repo_root)
        if graph == "dot":
            out.write(module_graph.to_dot(contract))
        else:
            json.dump(module_graph.to_json(contract), out, indent=2,
                      sort_keys=True)
            out.write("\n")
        return 0

    result = lint_tree(repo_root, paths=list(paths) or None)
    report = _report_dict(repo_root, result)
    rendered = (json.dumps(report, indent=2) if output_format == "json"
                else _render_text(result))
    print(rendered, file=out)
    if output is not None:
        Path(output).write_text(json.dumps(report, indent=2) + "\n",
                                encoding="utf-8")
    return 1 if any(f.severity == "error" for f in result.findings) else 0
