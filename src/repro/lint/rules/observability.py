"""Observability-handle rule (OBS001).

Tracing (``sim.obs``), profiling (``prof.ACTIVE``), and request
telemetry (``slog.ACTIVE``, the service's ``.telemetry`` attribute) are
opt-in: the handle defaults to ``None``
and every instrumentation site must guard on it, so an uninstrumented
run pays one attribute load and records nothing.  A site that calls
through the handle without a ``None`` guard crashes every production
(untraced) run the moment it executes — the kind of bug that only
shows up outside the traced test path.

The guard detection is deliberately permissive: any enclosing ``if`` /
conditional expression whose test involves a ``None`` comparison or a
bare-name truthiness test counts.  This accepts the repo's established
idioms (``profiler = prof.ACTIVE`` + ``if profiler is not None``, span
handles like ``if setup_span is not None: obs.end(setup_span)``) while
still catching the dangerous case: a completely unguarded call.

Which packages may import the request-telemetry modules at all is not
this rule's business: ARCH001 checks every import against the tier
contract in ``import-contract.json``.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Optional, Set

from ..astutil import ancestors, dotted_name, parent_map
from ..findings import Finding
from ..registry import FileContext, Rule, register

__all__ = ["UnguardedObsHandleRule"]

#: Local variable names conventionally bound to an observability
#: handle — used for guard-test detection (``if profiler:``), not for
#: deciding what is a handle (a ``with prof.profiled() as profiler``
#: handle is non-None by construction and must not be flagged).
_HANDLE_NAMES = frozenset({"obs", "profiler", "tel", "telemetry", "slog"})

_ACTIVE_HANDLES = frozenset({
    "prof.ACTIVE", "repro.obs.prof.ACTIVE", "obs.prof.ACTIVE",
    "slog.ACTIVE", "repro.obs.slog.ACTIVE", "obs.slog.ACTIVE",
})


def _is_handle_expr(node: ast.AST) -> bool:
    """A ``*.ACTIVE`` module handle, ``*.obs``, or ``*.telemetry``."""
    if isinstance(node, ast.Attribute):
        if node.attr in ("obs", "telemetry"):
            return True
        if node.attr == "ACTIVE" and dotted_name(node) in _ACTIVE_HANDLES:
            return True
    return False


def _test_guards_none(test: ast.AST) -> bool:
    """Does *test* involve a None comparison or a name truthiness check?"""
    for node in ast.walk(test):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(isinstance(op, ast.Constant) and op.value is None
                   for op in operands):
                return True
        if isinstance(node, ast.Name) and node.id in _HANDLE_NAMES:
            return True
    return False


@register
class UnguardedObsHandleRule(Rule):
    """OBS001: calls through obs/prof handles need a None guard."""

    id = "OBS001"
    name = "unguarded-obs-handle"
    description = ("tracer/profiler handles (sim.obs, prof.ACTIVE) "
                   "default to None; every call through them must sit "
                   "under an `is not None` guard or the untraced run "
                   "crashes")
    include = ("src/repro",)
    # The obs package itself constructs and manages the handles.
    exclude = ("src/repro/obs",)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        tree = ctx.tree
        if tree is None:
            return
        parents: Optional[Dict[ast.AST, ast.AST]] = None
        aliases = self._handle_aliases(tree)
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)):
                continue
            receiver = node.func.value
            if not (_is_handle_expr(receiver)
                    or (isinstance(receiver, ast.Name)
                        and receiver.id in aliases)):
                continue
            if parents is None:
                parents = parent_map(tree)
            if self._is_guarded(node, parents):
                continue
            shown = dotted_name(receiver) or "<handle>"
            yield self.finding(
                ctx, node,
                f"call through observability handle {shown} without a "
                f"None guard; assign it to a local and test "
                f"`is not None` first (it is None on untraced runs)")

    @staticmethod
    def _handle_aliases(tree: ast.AST) -> Set[str]:
        """Names assigned from a handle expression anywhere in the file."""
        names: Set[str] = set()
        for node in ast.walk(tree):
            value: Optional[ast.AST] = None
            targets = []
            if isinstance(node, ast.Assign):
                value, targets = node.value, node.targets
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                value, targets = node.value, [node.target]
            if value is None or not _is_handle_expr(value):
                continue
            for target in targets:
                if isinstance(target, ast.Name):
                    names.add(target.id)
        return names

    @staticmethod
    def _is_guarded(node: ast.AST, parents) -> bool:
        child = node
        for parent in ancestors(node, parents):
            if isinstance(parent, ast.If) and child is not parent.test:
                if _test_guards_none(parent.test):
                    return True
            elif isinstance(parent, ast.IfExp) and child is not parent.test:
                if _test_guards_none(parent.test):
                    return True
            elif isinstance(parent, ast.BoolOp):
                # `obs is not None and obs.count(...)` — earlier operands
                # guard later ones.
                idx = parent.values.index(child) if child in parent.values \
                    else 0
                if any(_test_guards_none(v) for v in parent.values[:idx]):
                    return True
            elif isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef, ast.Module)):
                return False
            child = parent
        return False
