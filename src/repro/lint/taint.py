"""The determinism analysis: source/sink tables over :mod:`repro.lint.dataflow`.

This is the one analysis behind every determinism rule.  :func:`analyze`
instantiates the generic dataflow engine with the repo's determinism
semantics and returns a :class:`ModuleDataflow`; DET001-DET006 only
read that result.

**Sources** (facts enter the flow)
    One classifier, :func:`classify_call`, reading one import-alias
    table (:func:`import_aliases`: ``import time as t``, ``from random
    import choice``), decides which calls are hazards: wall-clock reads
    (``time.time`` & friends), builtin ``hash()``,
    unseeded RNG construction and draws from a global RNG
    (``random.*``, numpy's legacy ``np.random.*``), and unsorted
    directory listings.  Every call in the file is classified once;
    DET001/002/003/005 report the sources of their kind, and the walker
    seeds taints from the same records.  A call through a stored
    *reference* to a wall-clock function (``clock = time.perf_counter``)
    reads the clock too.

**Unordered shapes**
    Set displays and constructors, and directory listings.  Iterating
    one in a ``for``, a comprehension or ``list()``/``tuple()``/
    ``dict()`` yields an order taint.  A dict iterates in insertion
    order, so its views are not unordered shapes: ``d.keys()``,
    ``d.values()`` and ``d.items()`` carry the order taints of ``d``
    itself (a dict comprehension over a set has one).

**Sanitizers / reducers** (facts leave the flow)
    ``sorted()`` erases order taints (sorting *defines* the order);
    ``len()`` erases everything (a count depends on neither values nor
    order); ``sum``/``min``/``max``/``any``/``all``/``set`` and the
    statistics reducers erase order taints but keep value taints (the
    sum of wall-clock reads is still a wall-clock artifact).

**Sinks** (facts are reported)
    ``yield``, ``return``, and argument positions of order-/value-
    sensitive calls — ``.append``/``.extend``/``.insert``/``.write``/
    ``.writerow(s)``/``.writelines``/``.join``.  Value taints at a sink
    are DET006 findings and order taints DET004 findings.  An unordered
    shape handed straight to a sink or to ``list()``/``tuple()``, or
    iterated by a loop whose body reaches a sink, is a DET004 finding
    at the shape itself.

**Proofs** (facts remove findings)
    A directory listing whose taint never reaches a loop, sink, escape,
    or unknown call is only ever counted/reduced — DET005 does not
    report it.

The per-file result is cached on the
:class:`~repro.lint.registry.FileContext`, so all six rules share one
analysis pass.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .astutil import dotted_name
from .dataflow import (EMPTY, Facts, FunctionWalker, Shape, Taint,
                       drop_shapes, order_taints, taints, value_taints)

__all__ = ["ModuleDataflow", "Source", "SinkHit", "analyze", "dataflow_of",
           "classify_call", "import_aliases", "WALL_CLOCK_CALLS",
           "GLOBAL_RANDOM_FNS", "LISTING_CALLS", "LISTING_METHODS",
           "SINK_METHODS", "ORDER_INSENSITIVE_CALLS"]

#: Wall-clock reads by dotted name.  ``datetime.now`` covers the
#: ``from datetime import datetime`` spelling.
WALL_CLOCK_CALLS = frozenset({
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "time.process_time",
    "time.process_time_ns", "time.clock_gettime", "time.clock_gettime_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.date.today",
    "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
})

#: ``random`` module-level functions drawing from the hidden global RNG.
GLOBAL_RANDOM_FNS = frozenset({
    "random", "randint", "randrange", "getrandbits", "randbytes",
    "choice", "choices", "shuffle", "sample", "uniform", "triangular",
    "betavariate", "expovariate", "gammavariate", "gauss",
    "lognormvariate", "normalvariate", "vonmisesvariate",
    "paretovariate", "weibullvariate", "seed",
})

#: Directory-listing calls whose order is filesystem-dependent.
LISTING_CALLS = frozenset({"os.listdir", "os.scandir",
                           "glob.glob", "glob.iglob"})
LISTING_METHODS = frozenset({"glob", "rglob", "iterdir"})

#: Method-call argument positions whose output depends on the argument.
SINK_METHODS = frozenset({"append", "extend", "insert", "write",
                          "writelines", "writerow", "writerows", "join"})

#: Calls that consume an iterable without leaking its order.  ``len``
#: additionally erases value taints (a count depends on neither).
ORDER_INSENSITIVE_CALLS = frozenset({
    "sorted", "len", "sum", "min", "max", "any", "all", "set",
    "frozenset", "Counter", "collections.Counter",
    "statistics.mean", "statistics.median", "math.fsum",
})

#: Sequence constructors that *bake* their argument's iteration order
#: into an ordered value — materializing a set here is the hazard.
_MATERIALIZING = frozenset({"list", "tuple"})

#: ``dict()`` bakes its argument's order into the insertion order too,
#: but a dict is mostly read by key: the order becomes a taint of the
#: dict, and only reaching a sink reports it.
_ORDERED_CONTAINERS = _MATERIALIZING | {"dict"}

#: Lazy wrappers that pass iteration order through without consuming
#: it: the result is exactly as (un)ordered as the argument, so shapes
#: and taints both survive and any later loop/sink still sees them.
_LAZY_WRAPPERS = frozenset({"reversed", "enumerate", "zip", "iter",
                            "filter", "map"})

_SET = Shape("set")
_LISTING = Shape("listing")
_CLOCK_FN = Shape("clock_fn")
_UNORDERED = frozenset({_SET, _LISTING})


# -- the source table -----------------------------------------------------

@dataclass(frozen=True)
class Source:
    """One call the source table classifies as a hazard."""

    node: ast.Call
    taint: Taint       #: what the call's value carries into the flow
    note: str          #: the finding message of the rule owning the kind


def import_aliases(tree: ast.Module) -> Dict[str, str]:
    """Local name -> dotted origin, for every absolute import in *tree*
    that binds a name other than the module's own."""
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname is not None:
                    aliases[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module \
                and not node.level:
            for alias in node.names:
                if alias.name != "*":
                    aliases[alias.asname or alias.name] = \
                        f"{node.module}.{alias.name}"
    return aliases


def _origin(dotted: str, aliases: Dict[str, str]) -> str:
    """*dotted* with its first name replaced by what it was imported as."""
    head, dot, rest = dotted.partition(".")
    origin = aliases.get(head)
    return dotted if origin is None else origin + dot + rest


def _unseeded(node: ast.Call) -> bool:
    """No seed, or only ``None`` passed where a seed would go."""
    return all(isinstance(arg, ast.Constant) and arg.value is None
               for arg in [*node.args, *(kw.value for kw in node.keywords)])


def _source(node: ast.Call, kind: str, what: str, note: str) -> Source:
    return Source(node, Taint(kind, node.lineno, what), note)


def _rng_source(node: ast.Call, name: str) -> Optional[Source]:
    if name.startswith("random.") \
            and name[len("random."):] in GLOBAL_RANDOM_FNS:
        return _source(node, "rng", f"{name}()",
                       f"{name}() uses the shared module-level RNG (global "
                       f"mutable state, seeded per process); use a local "
                       f"random.Random(seed)")
    if name.startswith(("np.random.", "numpy.random.")) \
            and not name.endswith(".default_rng"):
        return _source(node, "rng", f"{name}()",
                       f"{name}() uses numpy's legacy global RNG; use "
                       f"numpy.random.default_rng(seed)")
    if not _unseeded(node):
        return None
    if name == "random.Random":
        return _source(node, "rng", "unseeded random.Random()",
                       "random.Random() without a seed draws from OS "
                       "entropy; pass an explicit seed")
    if name.endswith(".default_rng") and name.startswith(("np.", "numpy.")):
        return _source(node, "rng", f"unseeded {name}()",
                       "default_rng() without a seed draws from OS "
                       "entropy; pass an explicit seed")
    return None


def classify_call(node: ast.Call,
                  aliases: Dict[str, str]) -> Optional[Source]:
    """The source *node* is, if any: the one table every rule shares."""
    raw = dotted_name(node.func)
    if raw == "hash":
        return _source(node, "hash", "builtin hash()",
                       "builtin hash() is PYTHONHASHSEED-randomized and "
                       "differs across worker processes; use zlib.crc32 "
                       "or a SHA-256 draw (see sim/faults.py)")
    # The name as written, then as imported: a local module that
    # shadows ``time`` still reads as ``time``.
    names = (raw, _origin(raw, aliases)) if raw is not None else ()
    for name in dict.fromkeys(names):
        if name in WALL_CLOCK_CALLS:
            return _source(node, "wallclock", f"{name}()",
                           f"{name}() reads the host clock inside model "
                           f"code; use sim.now for simulated time or the "
                           f"obs/prof.py profiler for host cost")
        rng = _rng_source(node, name)
        if rng is not None:
            return rng
        if name in LISTING_CALLS:
            return _listing_source(node, name, name)
    if isinstance(node.func, ast.Attribute) \
            and node.func.attr in LISTING_METHODS:
        attr = node.func.attr
        return _listing_source(node, f".{attr}", raw or f".{attr}(...)")
    return None


def _listing_source(node: ast.Call, what: str, shown: str) -> Source:
    return _source(node, "dirorder", f"{what}()",
                   f"{shown} yields entries in filesystem order; wrap the "
                   f"call in sorted() before iterating or counting on order")


# -- results --------------------------------------------------------------

@dataclass(frozen=True)
class SinkHit:
    """One taint reaching one sink."""

    sink: str          #: ``.append()``, ``yield``, ``return``, ...
    node: ast.AST      #: the sink node (line/col anchor)
    taint: Taint       #: the fact that arrived


@dataclass
class ModuleDataflow:
    """Everything the determinism rules ask about one file."""

    #: Every call the source table classifies, in walk order —
    #: DET001 (hash), DET002 (rng), DET003 (wallclock), DET005
    #: (dirorder).
    sources: List[Source] = field(default_factory=list)
    #: Value taints (wallclock/rng/hash) at sinks — DET006.
    value_hits: List[SinkHit] = field(default_factory=list)
    #: Order taints (setorder/dirorder) at sinks — DET004.
    order_hits: List[SinkHit] = field(default_factory=list)
    #: Unordered shapes iterated straight into a sink, as (anchor,
    #: message) — DET004.
    unordered_uses: List[Tuple[ast.AST, str]] = field(default_factory=list)
    #: ``for`` nodes -> facts of their iterable when it holds an
    #: unordered shape or order taint (and is not a fresh set).
    loop_iter_facts: Dict[int, Tuple[ast.AST, Facts]] = \
        field(default_factory=dict)
    #: Listing-call ids whose result provably never leaks order (only
    #: counted/reduced/sorted) — DET005 skips them.
    safe_listings: Set[int] = field(default_factory=set)
    #: Wall-clock calls through a stored reference — DET003.
    clock_alias_calls: List[Tuple[ast.Call, str]] = field(
        default_factory=list)
    #: Dedupe guards: loop fixpoint passes re-walk bodies, so the same
    #: sink/alias/use can be observed several times.
    _seen: Set[Tuple[int, str, Taint]] = field(default_factory=set)
    _seen_aliases: Set[int] = field(default_factory=set)
    _seen_uses: Set[Tuple[int, str]] = field(default_factory=set)
    #: Loops over an unordered iterable -> their pending use, reported
    #: only when the loop body reaches a sink (``_sunk_loops``).
    _loops: Dict[int, Tuple[ast.AST, str]] = field(default_factory=dict)
    _sunk_loops: Set[int] = field(default_factory=set)


# -- the determinism walker -----------------------------------------------

def _held_desc(facts: Facts) -> Optional[str]:
    """How a variable-held iterable is described, most specific first."""
    if _SET in facts:
        return "a set (hash order)"
    if any(t.kind == "setorder" for t in order_taints(facts)):
        return "a set-ordered sequence"
    return None


class TaintWalker(FunctionWalker):
    """One scope's worth of determinism dataflow."""

    def __init__(self, result: ModuleDataflow, sources: Dict[int, Source],
                 aliases: Dict[str, str]):
        super().__init__()
        self.result = result
        self.sources = sources
        self.aliases = aliases
        #: dirorder taints born in this walk that stayed provably tame.
        self.tame_listings: Dict[Tuple[int, str], int] = {}
        #: Expression id -> description, for expressions that *create*
        #: an unordered set (not one read from a variable).
        self.created: Dict[int, str] = {}

    def _spend(self, facts: Facts) -> None:
        """Mark dirorder taints in *facts* as having leaked."""
        for fact in facts:
            if isinstance(fact, Taint) and fact.kind == "dirorder":
                self.tame_listings.pop((fact.line, fact.what), None)

    # -- unordered shapes reaching sinks directly -------------------------

    def _use(self, anchor: ast.AST, message: str) -> None:
        key = (id(anchor), message)
        if key not in self.result._seen_uses:
            self.result._seen_uses.add(key)
            self.result.unordered_uses.append((anchor, message))

    def _comprehension_use(self, value: Optional[ast.AST],
                           sink: str) -> None:
        """A list/generator comprehension over a fresh unordered shape
        handed straight to *sink*."""
        if isinstance(value, (ast.ListComp, ast.GeneratorExp)):
            for gen in value.generators:
                what = self.created.get(id(gen.iter))
                if what is not None:
                    self._use(gen.iter,
                              f"comprehension over unordered {what} feeds "
                              f"{sink}; wrap the iterable in sorted()")

    def _argument_uses(self, args: Sequence[ast.AST], sink: str) -> None:
        for arg in args:
            what = self.created.get(id(arg))
            if what is not None:
                self._use(arg, f"unordered {what} feeds {sink}; wrap it "
                               f"in sorted()")
            else:
                self._comprehension_use(arg, sink)

    def _mark_loops(self) -> None:
        """A sink ran inside every loop currently on the stack."""
        self.result._sunk_loops.update(id(loop) for loop in self.loops)

    # -- calls: sources, sanitizers, sinks --------------------------------

    def call_facts(self, node: ast.Call, dotted: Optional[str],
                   recv_facts: Facts, arg_facts: Sequence[Facts],
                   env) -> Facts:
        source = self.sources.get(id(node))
        if source is not None:
            taint = source.taint
            if taint.kind != "dirorder":
                return frozenset({taint})
            self.tame_listings.setdefault((taint.line, taint.what),
                                          id(node))
            return frozenset({_LISTING, taint})

        merged = EMPTY
        for facts in arg_facts:
            merged |= facts

        # A call through a stored wall-clock reference reads the clock.
        if _CLOCK_FN in recv_facts and not isinstance(node.func,
                                                      ast.Attribute):
            shown = dotted or "<alias>"
            if id(node) not in self.result._seen_aliases:
                self.result._seen_aliases.add(id(node))
                self.result.clock_alias_calls.append((node, shown))
            return frozenset({Taint("wallclock", node.lineno,
                                    f"{shown}() (wall-clock alias)")})

        if isinstance(node.func, ast.Attribute):
            attr = node.func.attr
            if attr in ("values", "keys", "items") and not node.args \
                    and not node.keywords:
                # A view iterates in its dict's insertion order.
                return taints(recv_facts)
            if attr in SINK_METHODS:
                sink = f".{attr}()"
                self._argument_uses(node.args, sink)
                self._record_sink(sink, node, merged)
                self._mark_loops()
                self._spend(merged)
                return EMPTY
            if attr == "sort" and isinstance(node.func.value, ast.Name):
                # ``xs.sort()`` *defines* the order in place: order
                # taints and unordered shapes on the variable die here.
                name = node.func.value.id
                if name in env:
                    env[name] = value_taints(env[name])
                return EMPTY

        if dotted is not None:
            base = dotted.rsplit(".", 1)[-1]
            if dotted in ORDER_INSENSITIVE_CALLS or base == "Counter":
                # Order-insensitive consumption: dirorder taints stay
                # tame, nothing is spent.
                if dotted == "len":
                    return EMPTY
                if dotted in ("set", "frozenset"):
                    self.created[id(node)] = dotted
                    return value_taints(merged) | frozenset({_SET})
                # sorted/sum/min/max/any/all/...: order is consumed.
                return value_taints(merged)
            if dotted in _ORDERED_CONTAINERS:
                if dotted in _MATERIALIZING:
                    self._argument_uses(node.args, f"{dotted}()")
                facts = taints(merged)
                if _SET in merged:
                    facts |= frozenset({Taint(
                        "setorder", node.lineno,
                        "materialized set iteration")})
                    self._spend(facts)
                if _LISTING in merged:
                    facts |= merged & frozenset({_LISTING})
                return facts
            if dotted in _LAZY_WRAPPERS:
                return taints(merged) | (merged & _UNORDERED)

        # Unknown call: conservatively propagate taints; order taints
        # handed to arbitrary code count as leaked listings.
        self._spend(merged)
        return drop_shapes(merged)

    def _record_sink(self, sink: str, node: ast.AST, facts: Facts) -> None:
        for fact in sorted(value_taints(facts)):
            key = (id(node), sink, fact)
            if key not in self.result._seen:
                self.result._seen.add(key)
                self.result.value_hits.append(SinkHit(sink, node, fact))
        for fact in sorted(order_taints(facts)):
            key = (id(node), sink, fact)
            if key not in self.result._seen:
                self.result._seen.add(key)
                self.result.order_hits.append(SinkHit(sink, node, fact))

    # -- shapes created by displays, wall-clock references ----------------

    def _eval_Set(self, node: ast.Set, env) -> Facts:
        self.created[id(node)] = "set"
        return super()._eval_Set(node, env)

    def _eval_SetComp(self, node: ast.SetComp, env) -> Facts:
        self.created[id(node)] = "set"
        return super()._eval_SetComp(node, env)

    def _eval_Attribute(self, node: ast.Attribute, env) -> Facts:
        dotted = dotted_name(node)
        if dotted is not None and (
                dotted in WALL_CLOCK_CALLS
                or _origin(dotted, self.aliases) in WALL_CLOCK_CALLS):
            return frozenset({_CLOCK_FN})
        return super()._eval_Attribute(node, env)

    def _eval_Name(self, node: ast.Name, env) -> Facts:
        if node.id not in env \
                and self.aliases.get(node.id) in WALL_CLOCK_CALLS:
            return frozenset({_CLOCK_FN})
        return super()._eval_Name(node, env)

    # -- loops, returns, yields, escapes ----------------------------------

    def element_facts(self, iter_node, iter_facts: Facts) -> Facts:
        return drop_shapes(iter_facts) - order_taints(iter_facts)

    def on_for(self, node, iter_facts: Facts, env) -> None:
        what = self.created.get(id(node.iter))
        if what is not None:
            self.result._loops[id(node)] = (
                node.iter, f"loop over unordered {what} feeds an "
                           f"order-sensitive sink; iterate sorted({what})")
        elif iter_facts & _UNORDERED or order_taints(iter_facts):
            prior = self.result.loop_iter_facts.get(id(node))
            merged = iter_facts | (prior[1] if prior is not None else EMPTY)
            self.result.loop_iter_facts[id(node)] = (node, merged)
            held = _held_desc(merged)
            if held is not None:
                named = isinstance(node.iter, (ast.Name, ast.Attribute))
                where = "a variable" if named else "an expression"
                self.result._loops[id(node)] = (
                    node.iter, f"loop over {where} holding {held} "
                               f"feeds an order-sensitive sink; iterate "
                               f"sorted(...) instead")
        self._spend(iter_facts)

    def on_return(self, node, facts: Facts, env) -> None:
        self._comprehension_use(node.value, "return")
        self._record_sink("return", node, facts)
        self._spend(facts)

    def on_yield(self, node, facts: Facts, env) -> None:
        self._comprehension_use(node.value, "yield")
        self._record_sink("yield", node, facts)
        self._mark_loops()
        self._spend(facts)

    def on_escape(self, node, facts: Facts) -> None:
        self._spend(facts)

    def on_nested_scope(self, env) -> None:
        # A closure can capture and later iterate any local: everything
        # currently bound loses its tameness proof.
        for facts in env.values():
            self._spend(facts)

    def assign(self, target, value, facts: Facts, env) -> None:
        # Values stored through attributes or containers outlive the
        # local flow this walk can prove things about.
        if isinstance(target, (ast.Attribute, ast.Subscript)):
            self._spend(facts)
        super().assign(target, value, facts, env)


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def analyze(tree: ast.Module) -> ModuleDataflow:
    """Run the determinism analysis over every scope of one module."""
    result = ModuleDataflow()
    aliases = import_aliases(tree)
    sources: Dict[int, Source] = {}
    scopes: List[ast.AST] = [tree]
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            source = classify_call(node, aliases)
            if source is not None:
                result.sources.append(source)
                sources[id(node)] = source
        elif isinstance(node, _SCOPES):
            scopes.append(node)

    for scope in scopes:
        walker = TaintWalker(result, sources, aliases)
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
            walker.run_function(scope)
        else:
            # Module and class attributes never die: a listing bound
            # there may be consumed by any function later, which this
            # intraprocedural walk cannot see — no safety proof.
            for facts in walker.run_body(scope).values():
                walker._spend(facts)
        result.safe_listings.update(walker.tame_listings.values())
    result.unordered_uses.extend(
        use for loop_id, use in result._loops.items()
        if loop_id in result._sunk_loops)
    return result


def dataflow_of(ctx) -> ModuleDataflow:
    """The (cached) dataflow result for a :class:`FileContext`."""
    cached = getattr(ctx, "_dataflow", None)
    if cached is None:
        tree = ctx.tree
        if tree is None:
            cached = ModuleDataflow()
        else:
            cached = analyze(tree)
        ctx._dataflow = cached
    return cached
