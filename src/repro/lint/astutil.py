"""Small AST helpers shared by the Python rules."""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional

__all__ = ["dotted_name", "parent_map", "ancestors"]


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain of plain names, else None."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def parent_map(tree: ast.AST) -> Dict[ast.AST, ast.AST]:
    """Child -> parent for every node in *tree*."""
    parents: Dict[ast.AST, ast.AST] = {}
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            parents[child] = parent
    return parents


def ancestors(node: ast.AST,
              parents: Dict[ast.AST, ast.AST]) -> Iterator[ast.AST]:
    """Walk from *node*'s parent up to the module root."""
    current = parents.get(node)
    while current is not None:
        yield current
        current = parents.get(current)
