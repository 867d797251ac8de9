"""Intraprocedural dataflow engine for flow-aware lint rules.

This module turns the linter from a per-node pattern matcher into a
(small) abstract interpreter.  :class:`FunctionWalker` executes one
function body over an abstract environment mapping variable names to
*fact sets* — taints and shapes — with the usual forward-dataflow
structure:

* assignments (including tuple/list unpacking, annotated and augmented
  assigns, simple ``obj.attr`` and ``container[key]`` stores) transfer
  facts from the right-hand side to the targets;
* ``if``/``try`` branches are walked on copies of the environment and
  **joined** (per-variable union) afterwards, so a fact that holds on
  either path survives the join — the analysis over-approximates, it
  never guesses a branch;
* loops run their body to a fixpoint (the fact lattice is a finite
  powerset, so iteration converges; a hard cap bounds the pathological
  case).

The engine is domain-agnostic: it knows *how* facts flow, not *what*
they mean.  The determinism domain — which calls are taint sources,
which sanitize, which consume order — lives in
:mod:`repro.lint.taint`, which subclasses :class:`FunctionWalker` and
overrides the hook methods (:meth:`~FunctionWalker.call_facts`,
:meth:`~FunctionWalker.on_return`, ...).

Two fact kinds are built in because join/evaluation must understand
them structurally:

* :class:`Taint` — a *value* fact ("this value came from the wall
  clock"), carrying the source line and a human description so a
  finding at the sink can point back at the source.
* :class:`Shape` — a *container* fact ("this is a set", "this is an
  unsorted directory listing").  Shapes are dropped by most value
  operations; taints propagate.

A dict is not a shape: Python dicts iterate in insertion order, so a
dict (and each of its views) carries exactly the order taints of what
built it — a comprehension over a set, say.

Everything here is deliberately intraprocedural: a call to an unknown
function propagates its arguments' value taints to its result (the
conservative choice for taint, the optimistic one for shapes), and a
name with no local binding has no facts.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import (Dict, FrozenSet, Iterable, List, Optional, Sequence,
                    Union)

from .astutil import dotted_name

__all__ = ["Taint", "Shape", "Fact", "Facts", "EMPTY", "ORDER_KINDS",
           "VALUE_KINDS", "value_taints", "order_taints", "drop_shapes",
           "join_envs", "FunctionWalker"]


@dataclass(frozen=True, order=True)
class Taint:
    """A nondeterminism taint attached to an abstract value.

    ``kind`` is one of the :data:`VALUE_KINDS` (the *value* itself is
    nondeterministic: wall-clock reads, unseeded RNG draws, salted
    ``hash()``) or :data:`ORDER_KINDS` (the value is a sequence whose
    *order* is nondeterministic: materialized set iteration, unsorted
    directory listings).
    """

    kind: str
    line: int
    what: str


@dataclass(frozen=True, order=True)
class Shape:
    """A structural fact about an abstract value.

    ``set``       a set/frozenset — iteration is hash order
    ``listing``   an unsorted directory-listing result
    ``clock_fn``  a *reference* to a wall-clock function
                  (``clock = time.perf_counter``)
    """

    kind: str


Fact = Union[Taint, Shape]
Facts = FrozenSet[Fact]
EMPTY: Facts = frozenset()

#: Taint kinds where the *sequence order* is the hazard.
ORDER_KINDS = frozenset({"setorder", "dirorder"})
#: Taint kinds where the *value* is the hazard.
VALUE_KINDS = frozenset({"wallclock", "rng", "hash"})


def value_taints(facts: Facts) -> Facts:
    return frozenset(f for f in facts
                     if isinstance(f, Taint) and f.kind in VALUE_KINDS)


def order_taints(facts: Facts) -> Facts:
    return frozenset(f for f in facts
                     if isinstance(f, Taint) and f.kind in ORDER_KINDS)


def taints(facts: Facts) -> Facts:
    return frozenset(f for f in facts if isinstance(f, Taint))


def drop_shapes(facts: Facts) -> Facts:
    return frozenset(f for f in facts if not isinstance(f, Shape))


Env = Dict[str, Facts]


def join_envs(a: Env, b: Env) -> Env:
    """Per-variable union of two branch environments."""
    out = dict(a)
    for name, facts in b.items():
        out[name] = out.get(name, EMPTY) | facts
    return out


#: ``try`` and, from Python 3.11, ``try``/``except*`` walk alike.
_TRY = (ast.Try, getattr(ast, "TryStar", ast.Try))

#: Loop bodies are re-walked until the environment stabilizes; the cap
#: only guards pathological fact growth (it is never hit by real code:
#: each pass can only add facts, and the fact universe per function is
#: small).
MAX_LOOP_PASSES = 8


class FunctionWalker:
    """Abstractly execute one function body, flowing fact sets.

    Subclass and override the hook methods to define a domain.  The
    walker calls:

    * :meth:`call_facts` for every ``Call`` — return the result facts
      (sources, sanitizers, and sinks all live here);
    * :meth:`element_facts` when a ``for`` target or comprehension
      variable is bound from an iterable;
    * :meth:`on_return` / :meth:`on_yield` at those statements;
    * :meth:`on_for` when a loop header is evaluated (receives the
      iterable's facts); while its body is walked the loop sits on
      :attr:`loops`, so hooks can tell which loops enclose them;
    * :meth:`on_escape` when a value leaves the function through an
      unknown call / attribute store.
    """

    def __init__(self) -> None:
        #: ``for`` statements whose body is being walked, innermost last.
        self.loops: List[ast.AST] = []

    # -- hooks ------------------------------------------------------------

    def call_facts(self, node: ast.Call, dotted: Optional[str],
                   recv_facts: Facts, arg_facts: Sequence[Facts],
                   env: Env) -> Facts:
        """Facts for a call's result; default: propagate value taints."""
        merged = EMPTY
        for facts in arg_facts:
            merged |= facts
        return drop_shapes(merged)

    def element_facts(self, iter_node: ast.AST, iter_facts: Facts) -> Facts:
        """Facts bound to a loop/comprehension variable."""
        return drop_shapes(iter_facts)

    def on_return(self, node: ast.Return, facts: Facts, env: Env) -> None:
        pass

    def on_yield(self, node: ast.AST, facts: Facts, env: Env) -> None:
        pass

    def on_for(self, node: ast.AST, iter_facts: Facts, env: Env) -> None:
        pass

    def on_escape(self, node: ast.AST, facts: Facts) -> None:
        pass

    def on_nested_scope(self, env: Env) -> None:
        """A nested def/lambda may capture anything currently bound."""
        pass

    # -- entry points -----------------------------------------------------

    def run_function(self, fn: Union[ast.FunctionDef,
                                     ast.AsyncFunctionDef]) -> Env:
        args = fn.args
        env: Env = {arg.arg: EMPTY
                    for arg in [*getattr(args, "posonlyargs", []),
                                *args.args, *args.kwonlyargs,
                                args.vararg, args.kwarg]
                    if arg is not None}
        # Default expressions are evaluated at def time in the enclosing
        # scope; walking them keeps source calls there visible.
        for default in [*args.defaults, *args.kw_defaults]:
            if default is not None:
                self.eval(default, env)
        return self.exec_block(fn.body, env)

    def run_body(self, scope: Union[ast.Module, ast.ClassDef]) -> Env:
        """Walk a module or class body (names bound there outlive it)."""
        return self.exec_block(scope.body, {})

    # -- statement execution ----------------------------------------------

    def exec_block(self, stmts: Iterable[ast.stmt], env: Env) -> Env:
        for stmt in stmts:
            env = self.exec_stmt(stmt, env)
        return env

    def exec_stmt(self, stmt: ast.stmt, env: Env) -> Env:
        if isinstance(stmt, ast.Assign):
            facts = self.eval(stmt.value, env)
            for target in stmt.targets:
                self.assign(target, stmt.value, facts, env)
        elif isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                facts = self.eval(stmt.value, env)
                self.assign(stmt.target, stmt.value, facts, env)
        elif isinstance(stmt, ast.AugAssign):
            facts = self.eval(stmt.value, env)
            if isinstance(stmt.target, ast.Name):
                name = stmt.target.id
                env[name] = env.get(name, EMPTY) | drop_shapes(facts)
            elif isinstance(stmt.target, (ast.Attribute, ast.Subscript)):
                self.assign(stmt.target, stmt.value, facts, env)
        elif isinstance(stmt, ast.Return):
            facts = self.eval(stmt.value, env) if stmt.value is not None \
                else EMPTY
            self.on_return(stmt, facts, env)
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value, env)
        elif isinstance(stmt, (ast.If,)):
            self.eval(stmt.test, env)
            env_true = self.exec_block(stmt.body, dict(env))
            env_false = self.exec_block(stmt.orelse, dict(env))
            env = join_envs(env_true, env_false)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            env = self._exec_for(stmt, env)
        elif isinstance(stmt, ast.While):
            self.eval(stmt.test, env)
            env = self.exec_block(stmt.orelse, self._fixpoint(stmt, env))
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                facts = self.eval(item.context_expr, env)
                if item.optional_vars is not None:
                    self.assign(item.optional_vars, item.context_expr,
                                drop_shapes(facts), env)
            env = self.exec_block(stmt.body, env)
        elif isinstance(stmt, _TRY):
            env_body = self.exec_block(stmt.body, dict(env))
            # A handler may run after any prefix of the body: start it
            # from the join of entry and body-exit states.
            merged = join_envs(env, env_body)
            for handler in stmt.handlers:
                if handler.name is not None:
                    merged[handler.name] = EMPTY
                merged = join_envs(merged,
                                   self.exec_block(handler.body,
                                                   dict(merged)))
            env = join_envs(env_body, merged)
            env = self.exec_block(stmt.orelse, env)
            env = self.exec_block(stmt.finalbody, env)
        elif isinstance(stmt, ast.Delete):
            for target in stmt.targets:
                if isinstance(target, ast.Name):
                    env.pop(target.id, None)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            # Decorators and class bases run here, in this scope.
            for expr in stmt.decorator_list:
                self.eval(expr, env)
            if isinstance(stmt, ast.ClassDef):
                for expr in [*stmt.bases,
                             *(kw.value for kw in stmt.keywords)]:
                    self.eval(expr, env)
            # Nested definitions are analyzed separately; the bound name
            # carries no facts here.  Anything in scope may be captured
            # by the nested body, which this walk cannot see.
            self.on_nested_scope(env)
            env[stmt.name] = EMPTY
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            for alias in stmt.names:
                local = alias.asname or alias.name.split(".")[0]
                env.pop(local, None)
        elif isinstance(stmt, (ast.Assert, ast.Raise)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.eval(child, env)
        # Pass/Break/Continue/Global/Nonlocal: no dataflow effect.
        return env

    def _exec_for(self, stmt: Union[ast.For, ast.AsyncFor],
                  env: Env) -> Env:
        iter_facts = self.eval(stmt.iter, env)
        self.on_for(stmt, iter_facts, env)

        def bind_target(env: Env) -> None:
            bound = self._positional_unpack(stmt.target, stmt.iter, env)
            if not bound:
                self.assign(stmt.target, stmt.iter,
                            self.element_facts(stmt.iter, iter_facts), env)

        self.loops.append(stmt)
        env = self._fixpoint(stmt, env, bind=bind_target)
        self.loops.pop()
        return self.exec_block(stmt.orelse, env)

    def _fixpoint(self, stmt, env: Env, bind=None) -> Env:
        """Walk a loop body to a fixpoint over the joined environment."""
        current = dict(env)
        for _ in range(MAX_LOOP_PASSES):
            body_env = dict(current)
            if bind is not None:
                bind(body_env)
            body_env = self.exec_block(stmt.body, body_env)
            joined = join_envs(current, body_env)
            if joined == current:
                break
            current = joined
        return current

    def _positional_unpack(self, target: ast.AST, iter_node: ast.AST,
                           env: Env) -> bool:
        """Handle ``for a, b in ((x1, y1), (x2, y2), ...)`` positionally.

        Returns True when the target was fully bound.  Only fires for a
        literal tuple/list of literal tuples/lists whose arity matches —
        the case where per-position facts are exact (it is what proves
        ``for label, suite in (("a", DICT_A), ("b", DICT_B))`` safe).
        """
        if not (isinstance(target, (ast.Tuple, ast.List))
                and isinstance(iter_node, (ast.Tuple, ast.List))
                and iter_node.elts
                and all(isinstance(e, (ast.Tuple, ast.List))
                        and len(e.elts) == len(target.elts)
                        for e in iter_node.elts)):
            return False
        for pos, sub_target in enumerate(target.elts):
            merged = EMPTY
            for element in iter_node.elts:
                merged |= self.eval(element.elts[pos], env)
            self.assign(sub_target, None, merged, env)
        return True

    # -- assignment targets -----------------------------------------------

    def assign(self, target: ast.AST, value: Optional[ast.AST],
               facts: Facts, env: Env) -> None:
        if isinstance(target, ast.Name):
            env[target.id] = facts
        elif isinstance(target, ast.Starred):
            self.assign(target.value, value, drop_shapes(facts), env)
        elif isinstance(target, (ast.Tuple, ast.List)):
            if (isinstance(value, (ast.Tuple, ast.List))
                    and len(value.elts) == len(target.elts)
                    and not any(isinstance(t, ast.Starred)
                                for t in target.elts)):
                for sub_target, sub_value in zip(target.elts, value.elts):
                    self.assign(sub_target, sub_value,
                                self.eval(sub_value, env), env)
            else:
                element = self.element_facts(value, facts) \
                    if value is not None else drop_shapes(facts)
                for sub_target in target.elts:
                    self.assign(sub_target, None, element, env)
        elif isinstance(target, ast.Attribute):
            # Track ``name.attr = value`` as a pseudo-variable; stores
            # through anything more complex escape the analysis.
            if isinstance(target.value, ast.Name):
                env[f"{target.value.id}.{target.attr}"] = facts
            else:
                self.on_escape(target, facts)
        elif isinstance(target, ast.Subscript):
            # ``container[key] = value``: per-key lookups stay clean, so
            # only *value* taints soak into the container.
            if isinstance(target.value, ast.Name):
                name = target.value.id
                self.eval(target.slice, env)
                env[name] = env.get(name, EMPTY) | value_taints(facts)
            else:
                self.on_escape(target, facts)

    # -- expression evaluation --------------------------------------------

    def eval(self, node: Optional[ast.AST], env: Env) -> Facts:
        if node is None:
            return EMPTY
        method = getattr(self, f"_eval_{type(node).__name__}", None)
        if method is not None:
            return method(node, env)
        # Default: union of child expression facts, shapes dropped.
        merged = EMPTY
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                merged |= self.eval(child, env)
        return drop_shapes(merged)

    def _eval_Name(self, node: ast.Name, env: Env) -> Facts:
        return env.get(node.id, EMPTY)

    def _eval_Constant(self, node: ast.AST, env: Env) -> Facts:
        return EMPTY

    def _eval_Attribute(self, node: ast.Attribute, env: Env) -> Facts:
        if isinstance(node.value, ast.Name):
            pseudo = f"{node.value.id}.{node.attr}"
            if pseudo in env:
                return env[pseudo]
        # ``tainted.attr`` is tainted; container shapes don't transfer.
        return drop_shapes(self.eval(node.value, env))

    def _eval_Subscript(self, node: ast.Subscript, env: Env) -> Facts:
        base = self.eval(node.value, env)
        self.eval(node.slice, env)
        # Indexing an order-tainted sequence makes the *value* depend on
        # the nondeterministic order: keep the taint (kind and origin
        # are preserved so the finding names the real source).
        return drop_shapes(base)

    def _eval_Call(self, node: ast.Call, env: Env) -> Facts:
        dotted = dotted_name(node.func)
        recv_facts = EMPTY
        if isinstance(node.func, ast.Attribute):
            recv_facts = self.eval(node.func.value, env)
        elif isinstance(node.func, ast.Name):
            recv_facts = env.get(node.func.id, EMPTY)
        arg_facts = [self.eval(arg, env) for arg in node.args]
        arg_facts += [self.eval(kw.value, env) for kw in node.keywords]
        return self.call_facts(node, dotted, recv_facts, arg_facts, env)

    def _eval_Tuple(self, node: ast.Tuple, env: Env) -> Facts:
        return self._eval_sequence(node, env)

    def _eval_List(self, node: ast.List, env: Env) -> Facts:
        return self._eval_sequence(node, env)

    def _eval_sequence(self, node, env: Env) -> Facts:
        merged = EMPTY
        for element in node.elts:
            merged |= self.eval(element, env)
        # A display has source order; element order taints are kept
        # (a tuple *containing* an unordered thing is itself fine, but
        # value taints and element order taints must survive flattening
        # — over-approximate by keeping taints, dropping shapes).
        return drop_shapes(merged)

    def _eval_Set(self, node: ast.Set, env: Env) -> Facts:
        merged = EMPTY
        for element in node.elts:
            merged |= self.eval(element, env)
        return drop_shapes(merged) | frozenset({Shape("set")})

    def _eval_SetComp(self, node: ast.SetComp, env: Env) -> Facts:
        comp_env = self._bind_comprehension(node.generators, env)
        self.eval(node.elt, comp_env)
        return frozenset({Shape("set")})

    def _eval_Dict(self, node: ast.Dict, env: Env) -> Facts:
        merged = EMPTY
        for key in node.keys:
            if key is not None:
                merged |= self.eval(key, env)
        for val in node.values:
            merged |= self.eval(val, env)
        # A display inserts in source order; ``{**other}`` splats keep
        # other's order taints.
        return drop_shapes(merged)

    def _eval_DictComp(self, node: ast.DictComp, env: Env) -> Facts:
        comp_env = self._bind_comprehension(node.generators, env)
        merged = self.eval(node.key, comp_env) \
            | self.eval(node.value, comp_env)
        # Insertion order is iteration order, as for a list.
        return drop_shapes(merged) | self._generator_order(node, env)

    def _eval_ListComp(self, node: ast.ListComp, env: Env) -> Facts:
        return self._eval_comp_sequence(node, env)

    def _eval_GeneratorExp(self, node: ast.GeneratorExp, env: Env) -> Facts:
        return self._eval_comp_sequence(node, env)

    def _eval_comp_sequence(self, node, env: Env) -> Facts:
        comp_env = self._bind_comprehension(node.generators, env)
        facts = drop_shapes(self.eval(node.elt, comp_env))
        return facts | self._generator_order(node, env)

    def _generator_order(self, node, env: Env) -> Facts:
        """Order taints a comprehension inherits from its iterables."""
        facts = EMPTY
        for gen in node.generators:
            iter_facts = self.eval(gen.iter, env)
            facts |= order_taints(iter_facts)
            if Shape("set") in iter_facts:
                facts |= frozenset({Taint(
                    "setorder", node.lineno,
                    "comprehension over a set (hash order)")})
            if Shape("listing") in iter_facts:
                facts |= frozenset({Taint(
                    "dirorder", node.lineno,
                    "comprehension over an unsorted directory listing")})
        return facts

    def _bind_comprehension(self, generators, env: Env) -> Env:
        comp_env = dict(env)
        for gen in generators:
            iter_facts = self.eval(gen.iter, comp_env)
            self.assign(gen.target, None,
                        self.element_facts(gen.iter, iter_facts), comp_env)
            for cond in gen.ifs:
                self.eval(cond, comp_env)
        return comp_env

    def _eval_Yield(self, node: ast.Yield, env: Env) -> Facts:
        facts = self.eval(node.value, env) if node.value is not None \
            else EMPTY
        self.on_yield(node, facts, env)
        return EMPTY

    def _eval_YieldFrom(self, node: ast.YieldFrom, env: Env) -> Facts:
        facts = self.eval(node.value, env)
        self.on_yield(node, facts, env)
        return EMPTY

    def _eval_Await(self, node: ast.Await, env: Env) -> Facts:
        return self.eval(node.value, env)

    def _eval_IfExp(self, node: ast.IfExp, env: Env) -> Facts:
        self.eval(node.test, env)
        return self.eval(node.body, env) | self.eval(node.orelse, env)

    def _eval_Compare(self, node: ast.Compare, env: Env) -> Facts:
        # Membership/equality results don't leak order, but a bool
        # computed from a nondeterministic value is nondeterministic.
        merged = self.eval(node.left, env)
        for comparator in node.comparators:
            merged |= self.eval(comparator, env)
        return value_taints(merged)

    def _eval_Lambda(self, node: ast.Lambda, env: Env) -> Facts:
        args = node.args
        for default in [*args.defaults, *args.kw_defaults]:
            self.eval(default, env)
        self.on_nested_scope(env)
        # The body runs later, on the lambda's own arguments; whatever
        # it returns leaves this walk.
        inner = dict(env)
        for arg in [*getattr(args, "posonlyargs", []), *args.args,
                    *args.kwonlyargs, args.vararg, args.kwarg]:
            if arg is not None:
                inner[arg.arg] = EMPTY
        self.on_escape(node, self.eval(node.body, inner))
        return EMPTY
