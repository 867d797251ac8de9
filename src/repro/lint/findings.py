"""Finding records produced by lint rules.

A :class:`Finding` pins one rule violation to a file position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

__all__ = ["Finding", "SEVERITIES"]

#: Recognized severities, most severe first.  ``error`` findings gate
#: CI; ``warning`` findings are reported but never fail the run.
SEVERITIES = ("error", "warning")


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source position."""

    rule_id: str
    path: str  # repo-root-relative, POSIX separators
    line: int  # 1-based
    col: int  # 0-based, matching ``ast`` column offsets
    message: str
    severity: str = "error"

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(f"unknown severity {self.severity!r}")

    @property
    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule_id)

    def render(self) -> str:
        return (f"{self.path}:{self.line}:{self.col + 1}: "
                f"{self.rule_id} [{self.severity}] {self.message}")

    def to_dict(self) -> Dict[str, object]:
        return {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "severity": self.severity,
        }
