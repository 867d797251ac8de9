"""Documentation rule (DOC001): broken intra-repo markdown links.

The repo's one link checker, so ``repro-hadoop lint`` is the single
lint entry point for docs as well as code.  External
(``http(s)://``, ``mailto:``) and fragment-only targets are skipped;
``path#fragment`` targets are checked for the path part.
"""

from __future__ import annotations

import re
from typing import Iterable

from ..findings import Finding
from ..registry import FileContext, Rule, register

__all__ = ["BrokenLinkRule", "LINK_RE", "EXTERNAL"]

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
EXTERNAL = ("http://", "https://", "mailto:")


@register
class BrokenLinkRule(Rule):
    """DOC001: every relative markdown link must resolve."""

    id = "DOC001"
    name = "broken-doc-link"
    description = ("relative links in authored markdown must point at "
                   "files that exist in the repo")
    kind = "markdown"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        if ctx.root is None:
            return
        md_dir = (ctx.root / ctx.relpath).parent
        for match in LINK_RE.finditer(ctx.text):
            target = match.group(1)
            if target.startswith(EXTERNAL) or target.startswith("#"):
                continue
            path = target.split("#", 1)[0]
            if not path:
                continue
            if not (md_dir / path).exists():
                line = ctx.text[:match.start()].count("\n") + 1
                last_nl = ctx.text.rfind("\n", 0, match.start())
                col = match.start() - (last_nl + 1)
                yield self.finding_at(
                    ctx, line, col, f"broken link -> {target}")
