"""Inline suppression comments.

Two forms, mirroring the ``# noqa`` / ``# pylint: disable`` convention:

* ``# detlint: disable=DET001`` — suppress the named rule(s) on *this
  statement* (comma-separated ids, or ``all``).  Attach it to the
  offending line together with a short justification::

      entries = list(bucket.glob("*.pkl"))  # detlint: disable=DET005 -- count only

  The directive covers the whole *logical* line: on a statement that
  spans several physical lines (a wrapped call, a decorated ``def``
  with multi-line arguments) the comment may sit on any of them and
  still suppress a finding anchored at the statement's first line.

* ``# detlint: disable-file=DET004`` — suppress the rule(s) for the
  whole file, wherever the directive appears.  Put it near the top of
  the module with a comment explaining why the file is exempt.

Everything after ``--`` in the directive is a free-form justification
and is ignored by the parser (but expected by reviewers).

A directive that suppresses nothing produces a LINT001 *warning* (it
does not gate the run, but it does surface in the report): one naming
a rule id the registry does not know (a typo), and one naming a rule
that ran but found nothing to suppress (a stale directive).  Neither
may look load-bearing while doing nothing.
"""

from __future__ import annotations

import io
import re
import tokenize
from typing import (AbstractSet, Dict, FrozenSet, Iterator, List, Optional,
                    Set, Tuple)

from .findings import Finding

__all__ = ["Suppressions", "parse_suppressions"]

_DIRECTIVE_RE = re.compile(
    r"#\s*detlint:\s*(disable(?:-file)?)\s*=\s*([A-Za-z0-9_,\s]+)")

ALL = "all"

#: Engine-reserved pseudo-rule ids a directive may legitimately name.
_PSEUDO_RULES = frozenset({"LINT000", "LINT001"})


class Suppressions:
    """Parsed suppression directives for one file."""

    def __init__(self, by_line: Dict[int, Dict[str, int]],
                 file_wide: Dict[str, int],
                 directives: Tuple[Tuple[int, FrozenSet[str]], ...] = ()):
        #: line -> {rule id: line of the directive naming it}
        self._by_line = by_line
        #: rule id -> line of the ``disable-file`` directive naming it
        self._file_wide = file_wide
        #: Raw ``(lineno, rule ids)`` pairs, for validation.
        self._directives = directives
        #: ``(directive line, rule id)`` pairs that suppressed a finding.
        self._used: Set[Tuple[int, str]] = set()

    @classmethod
    def empty(cls) -> "Suppressions":
        return cls({}, {})

    def is_suppressed(self, rule_id: str, line: int) -> bool:
        for scope in (self._file_wide, self._by_line.get(line, {})):
            for name in (rule_id, ALL):
                if name in scope:
                    self._used.add((scope[name], name))
                    return True
        return False

    def directive_warnings(self, relpath: str,
                           ran: Optional[AbstractSet[str]] = None
                           ) -> List[Finding]:
        """LINT001 warnings for directives that suppress nothing.

        Always: rule ids the registry does not know.  With *ran* (the
        ids of every rule the finished run applied), also each named
        rule that ran but suppressed no finding; ``all`` is judged only
        when every registered rule ran.
        """
        if not self._directives:
            return []
        from .registry import all_rules
        known = {rule.id for rule in all_rules()}
        ran = ran if ran is not None else frozenset()
        warnings: List[Finding] = []
        for lineno, rules in self._directives:
            for rule_id in sorted(rules):
                if rule_id in _PSEUDO_RULES or (lineno, rule_id) in self._used:
                    continue
                if rule_id != ALL and rule_id not in known:
                    message = (f"detlint directive names unknown rule id "
                               f"'{rule_id}'; the suppression has no "
                               f"effect (known ids are listed by "
                               f"`lint --list-rules`)")
                elif rule_id in ran or (rule_id == ALL and known <= ran):
                    message = (f"detlint directive disables '{rule_id}' "
                               f"but suppressed no finding; the "
                               f"suppression has no effect")
                else:
                    continue
                warnings.append(Finding(
                    rule_id="LINT001", path=relpath, line=lineno, col=0,
                    severity="warning", message=message))
        return warnings


def _parse_rule_list(raw: str) -> FrozenSet[str]:
    return frozenset(
        part.strip().lower() if part.strip().lower() == ALL
        else part.strip().upper()
        for part in raw.split(",") if part.strip())


def _comment_spans(text: str) -> Iterator[Tuple[int, int, str]]:
    """``(first_line, last_line, comment)`` per ``#`` comment.

    Python sources are tokenized so directives quoted inside strings or
    docstrings (e.g. the examples in this module's own docstring) are
    not honored.  The span is the *logical* line holding the comment:
    from the first token after the previous NEWLINE through the line
    where the logical line ends, so a trailing directive on a wrapped
    statement covers the statement's anchor line.  If tokenization
    fails (markdown, broken syntax) every physical line is considered
    on its own, which errs toward suppressing.
    """
    try:
        tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    except (tokenize.TokenError, IndentationError, SyntaxError):
        for lineno, line in enumerate(text.splitlines(), start=1):
            yield lineno, lineno, line
        return
    logical_start = None
    pending: List[Tuple[int, str]] = []
    for token in tokens:
        if token.type == tokenize.COMMENT:
            pending.append((token.start[0], token.string))
        elif token.type == tokenize.NEWLINE:
            # End of a logical line: flush its comments over the span.
            start = logical_start if logical_start is not None \
                else token.start[0]
            for lineno, comment in pending:
                yield min(start, lineno), max(token.start[0], lineno), \
                    comment
            pending = []
            logical_start = None
        elif token.type in (tokenize.NL, tokenize.INDENT,
                            tokenize.DEDENT, tokenize.ENDMARKER):
            if token.type in (tokenize.NL, tokenize.ENDMARKER) \
                    and logical_start is None and pending:
                # Comment-only line (no logical statement around it).
                for lineno, comment in pending:
                    yield lineno, lineno, comment
                pending = []
        elif logical_start is None:
            logical_start = token.start[0]
    for lineno, comment in pending:
        yield lineno, lineno, comment


def parse_suppressions(text: str) -> Suppressions:
    """Extract ``detlint`` directives from *text* (full file contents)."""
    if text.startswith("\ufeff"):  # BOM survives a plain utf-8 read
        text = text.lstrip("\ufeff")
    by_line: Dict[int, Dict[str, int]] = {}
    file_wide: Dict[str, int] = {}
    directives: List[Tuple[int, FrozenSet[str]]] = []
    for first, last, line in _comment_spans(text):
        match = _DIRECTIVE_RE.search(line)
        if not match:
            continue
        # Strip a trailing "-- justification" clause from the rule list.
        raw = match.group(2).split("--", 1)[0]
        rules = _parse_rule_list(raw)
        if not rules:
            continue
        directives.append((first, rules))
        if match.group(1) == "disable-file":
            file_wide.update(dict.fromkeys(rules, first))
        else:
            for lineno in range(first, last + 1):
                by_line.setdefault(lineno, {}).update(
                    dict.fromkeys(rules, first))
    return Suppressions(by_line, file_wide, tuple(directives))
