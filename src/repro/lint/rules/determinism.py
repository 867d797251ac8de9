"""Determinism rules (DET001-DET006).

These encode the repo's headline guarantee — byte-identical sweep /
trace / CSV outputs at any ``--jobs``, on any platform, for the same
seed — as static checks.  Each rule targets a hazard class that has
either already bitten this repo (DET001: the PYTHONHASHSEED ``hash()``
partitioner/replica-picker bug fixed in PR 1) or is one refactor away
from doing so.

All six rules read one analysis, :func:`repro.lint.taint.dataflow_of`:

* DET001, DET002, DET003 and DET005 report the calls its source table
  classifies as salted hashes, unseeded RNGs, wall-clock reads and
  directory listings.  DET003 adds calls through a stored wall-clock
  reference; DET005 skips listings the flow proves are only ever
  counted or sorted.
* DET004 reports sets iterated into a sink, and their order taints
  reaching a sink through variables.  A dict view is ordered: it
  carries only the order taints of its dict.
* DET006 reports nondeterministic *values* — wall-clock reads, unseeded
  RNG draws, salted ``hash()`` — that reach a deterministic-output sink
  through any chain of local assignments.
"""

from __future__ import annotations

from typing import Iterable

from ..findings import Finding
from ..registry import FileContext, Rule, register
from ..taint import dataflow_of

__all__ = ["BareHashRule", "UnseededRandomRule", "WallClockRule",
           "UnsortedSetIterationRule", "UnsortedDirListingRule",
           "TaintedSinkRule"]


class _SourceRule(Rule):
    """Reports every call the source table classifies as *source_kind*."""

    source_kind = ""

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for source in dataflow_of(ctx).sources:
            if source.taint.kind == self.source_kind:
                yield self.finding(ctx, source.node, source.note)


@register
class BareHashRule(_SourceRule):
    """DET001: builtin ``hash()`` is salted per process."""

    id = "DET001"
    name = "bare-hash"
    description = ("builtin hash() is randomized per process by "
                   "PYTHONHASHSEED; key-partitioning and placement must "
                   "use zlib.crc32 or a SHA-256 draw")
    include = ("src/repro",)
    source_kind = "hash"


@register
class UnseededRandomRule(_SourceRule):
    """DET002: randomness must flow from an explicit seed."""

    id = "DET002"
    name = "unseeded-random"
    description = ("random.Random() without a seed and module-level "
                   "random.*() calls use hidden global/process state; "
                   "construct random.Random(seed) explicitly")
    include = ("src/repro",)
    source_kind = "rng"


@register
class WallClockRule(_SourceRule):
    """DET003: simulated components must not read the host clock.

    Simulation time is ``sim.now``.  Host cost is measured from
    outside the model (the bench runner's timer, perfbench's
    wrappers); inside it, ``obs/prof.py`` counts work and reads no
    clock.  Calls through a stored *reference*
    (``clock = time.perf_counter; clock()``) count too.
    """

    id = "DET003"
    name = "wall-clock-in-model"
    description = ("model code must use simulated time (sim.now), never "
                   "the host clock; host cost is timed from outside "
                   "the model")
    #: The serve/loadgen split is deliberate: traffic plumbing
    #: (latency accounting, timeouts, drain) may read the host clock,
    #: but the two files that *compute or determine* simulation-facing
    #: output — the pool worker and the trace generator — are held to
    #: the same bar as the model packages.
    include = ("src/repro/sim", "src/repro/mapreduce", "src/repro/hdfs",
               "src/repro/arch", "src/repro/cluster",
               "src/repro/obs/prof.py", "src/repro/serve/work.py",
               "src/repro/loadgen/generator.py")
    source_kind = "wallclock"

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        yield from super().check(ctx)
        for node, shown in dataflow_of(ctx).clock_alias_calls:
            yield self.finding(
                ctx, node,
                f"{shown}() calls a stored wall-clock function reference "
                f"inside model code; use sim.now for simulated time and "
                f"time host cost from outside the model")


@register
class UnsortedSetIterationRule(Rule):
    """DET004: unordered iteration must not feed ordered output.

    Dicts iterate in insertion order, so a dict view is flagged only
    when its dict carries a set's order (``{k: 1 for k in set(xs)}``).
    One line reports once, the set itself first: ``return list(set(x))``
    is the set materialized, not also the order taint reaching
    ``return``.
    """

    id = "DET004"
    name = "unsorted-set-iteration"
    description = ("iterating a set (hash order), or a dict built from "
                   "one, into yield/append/join/writerow makes output "
                   "order depend on incidental state; wrap in sorted()")
    include = ("src/repro",)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        flow = dataflow_of(ctx)
        found = list(flow.unordered_uses)
        found += [(hit.node, f"value ordered by {hit.taint.what} reaches "
                             f"{hit.sink} through a variable; sort before "
                             f"emitting")
                  for hit in flow.order_hits if hit.taint.kind == "setorder"]
        lines = set()
        for node, message in found:
            if node.lineno not in lines:
                lines.add(node.lineno)
                yield self.finding(ctx, node, message)


@register
class UnsortedDirListingRule(Rule):
    """DET005: directory listings must be sorted before use.

    A listing whose result the analysis shows is only ever counted,
    summed, or sorted — never iterated, emitted, stored beyond the
    function, or passed to unknown code — is not flagged.
    """

    id = "DET005"
    name = "unsorted-dir-listing"
    description = ("os.listdir/glob.glob/Path.glob return entries in "
                   "filesystem order, which differs across platforms and "
                   "runs; wrap in sorted()")
    include = ("src/repro",)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        flow = dataflow_of(ctx)
        for source in flow.sources:
            if source.taint.kind == "dirorder" \
                    and id(source.node) not in flow.safe_listings:
                yield self.finding(ctx, source.node, source.note)


@register
class TaintedSinkRule(Rule):
    """DET006: a nondeterministic *value* reaches an output sink.

    Wall-clock reads, unseeded RNG draws and salted ``hash()`` results
    are tracked through local assignments, tuple unpacking, arithmetic
    and branches; reaching ``yield``, ``return``, ``.append``/
    ``.extend``/``.write*``/``.join`` or a CSV writer is a finding even
    when the source call sits many statements away.  This is the rule
    that catches ``t = time.time(); ...; rows.append(t)``.
    """

    id = "DET006"
    name = "tainted-value-at-sink"
    description = ("a wall-clock / unseeded-RNG / hash() value flowing "
                   "into yield, return, append or a writer makes output "
                   "content depend on host state; thread sim.now or a "
                   "seeded RNG through instead")
    #: Result-producing tiers only: everything whose output feeds the
    #: paper's tables.  Traffic plumbing (serve/loadgen except the two
    #: deterministic files), observability, bench timing and the lint
    #: framework legitimately handle wall-clock values.
    include = ("src/repro/sim", "src/repro/mapreduce", "src/repro/hdfs",
               "src/repro/arch", "src/repro/cluster", "src/repro/core",
               "src/repro/workloads", "src/repro/analysis",
               "src/repro/serve/work.py", "src/repro/loadgen/generator.py")
    exclude = ("src/repro/obs",)

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        for hit in dataflow_of(ctx).value_hits:
            yield self.finding(
                ctx, hit.node,
                f"value derived from {hit.taint.what} reaches {hit.sink}; "
                f"nondeterministic content in deterministic output — use "
                f"sim.now / a seeded RNG / zlib.crc32 at the source")
