"""`repro.lint.dataflow` / `repro.lint.taint`: the engine itself.

The rule-level behavior (which findings DET003-006 emit) lives in
``test_lint_rules.py``; this file pins the *engine* semantics the rules
build on — propagation through unpacking, branches and loop fixpoints,
sanitizer effects, shape tracking through lazy wrappers, dict views
carrying their dict's order, and the tame-listing proof.
"""

from __future__ import annotations

import ast
import textwrap

from repro.lint.registry import FileContext
from repro.lint.taint import analyze, dataflow_of

ANY = "src/repro/analysis/example.py"


def flow(source: str):
    return analyze(ast.parse(textwrap.dedent(source)))


class TestValuePropagation:
    def test_tuple_unpack_taints_only_the_bound_name(self):
        clean = flow("""\
            import time
            def f(rows):
                t, n = time.time(), 5
                rows.append(n)
            """)
        assert clean.value_hits == []
        tainted = flow("""\
            import time
            def f(rows):
                t, n = time.time(), 5
                rows.append(t)
            """)
        assert len(tainted.value_hits) == 1
        assert tainted.value_hits[0].taint.kind == "wallclock"

    def test_augmented_assign_accumulates_taint(self):
        result = flow("""\
            import time
            def f(rows):
                total = 0.0
                total += time.time()
                rows.append(total)
            """)
        assert [h.taint.kind for h in result.value_hits] == ["wallclock"]

    def test_branch_join_unions_facts(self):
        result = flow("""\
            import time
            def f(fast, rows):
                t = 0.0
                if fast:
                    t = time.time()
                rows.append(t)
            """)
        assert len(result.value_hits) == 1

    def test_loop_fixpoint_carries_taint_backward(self):
        # `prev` only becomes tainted on the second traversal of the
        # loop body — a single forward pass would miss it.
        result = flow("""\
            import time
            def f(out):
                prev = 0.0
                t = 0.0
                for i in range(3):
                    prev = t
                    t = time.time()
                out.append(prev)
            """)
        assert len(result.value_hits) == 1

    def test_sink_hits_deduped_across_fixpoint_passes(self):
        # The loop body is re-walked to fixpoint; the one sink must be
        # reported exactly once.
        result = flow("""\
            import time
            def f(out):
                for i in range(3):
                    t = time.time()
                    out.append(t)
            """)
        assert len(result.value_hits) == 1


class TestSanitizers:
    def test_sorted_erases_order(self):
        result = flow("""\
            def f(xs, out):
                s = set(xs)
                ordered = sorted(s)
                out.extend(ordered)
            """)
        assert result.order_hits == []
        assert result.loop_iter_facts == {}

    def test_len_erases_everything(self):
        result = flow("""\
            import time
            def f(out):
                t = time.time()
                n = len([t])
                out.append(n)
            """)
        assert result.value_hits == []

    def test_sum_keeps_value_taint(self):
        # A sum of wall-clock reads is still a wall-clock artifact.
        result = flow("""\
            import time
            def f(out):
                total = sum([time.time()])
                out.append(total)
            """)
        assert [h.taint.kind for h in result.value_hits] == ["wallclock"]


class TestShapes:
    def test_lazy_wrapper_passes_set_shape_through(self):
        result = flow("""\
            def f(xs, out):
                s = set(xs)
                pairs = enumerate(s)
                for i, x in pairs:
                    out.append(x)
            """)
        assert len(result.loop_iter_facts) == 1

    def test_lazy_wrapper_creates_no_facts_for_plain_iterables(self):
        result = flow("""\
            def f(items, out):
                pairs = enumerate(items)
                for i, x in pairs:
                    out.append(x)
            """)
        assert result.loop_iter_facts == {}
        assert result.order_hits == []

    def test_kwargs_views_are_proven(self):
        # Dicts iterate in insertion order: keyword order here.
        result = flow("""\
            def f(**kw):
                return tuple(kw.keys())
            """)
        assert result.order_hits == []
        assert result.unordered_uses == []

    def test_local_dict_display_views_are_proven(self):
        result = flow("""\
            def f():
                d = {"atom": 1, "xeon": 2}
                return list(d.values())
            """)
        assert result.order_hits == []
        assert result.unordered_uses == []

    def test_dict_views_of_plain_dicts_carry_no_order_taint(self):
        # Whatever order the program inserted in is deterministic
        # unless a set supplied it: a mutated module constant and a
        # parameter are no hazard.
        result = flow("""\
            TABLE = {"a": 1}
            def g():
                TABLE["x"] = 2
            def f(d):
                return list(TABLE.values()), list(d.items())
            """)
        assert result.order_hits == []
        assert result.unordered_uses == []

    def test_dict_view_carries_its_dicts_set_order(self):
        result = flow("""\
            def f(xs):
                table = {k: 1 for k in set(xs)}
                view = table.values()
                return list(view)
            """)
        assert [h.taint.kind for h in result.order_hits] == ["setorder"]
        assert result.order_hits[0].sink == "return"


class TestListings:
    def test_counted_listing_is_tame(self):
        result = flow("""\
            import os
            def f(path):
                names = os.listdir(path)
                return len(names)
            """)
        assert len(result.safe_listings) == 1

    def test_emitted_listing_is_not_tame(self):
        result = flow("""\
            import os
            def f(path, out):
                names = os.listdir(path)
                out.extend(names)
            """)
        assert result.safe_listings == set()
        assert any(h.taint.kind == "dirorder" for h in result.order_hits)

    def test_listing_passed_to_unknown_call_is_not_tame(self):
        result = flow("""\
            import os
            def f(path):
                names = os.listdir(path)
                process(names)
                return 0
            """)
        assert result.safe_listings == set()


class TestClockAliases:
    def test_stored_reference_call_detected(self):
        result = flow("""\
            import time
            def f():
                clock = time.time
                return clock()
            """)
        assert len(result.clock_alias_calls) == 1
        assert result.clock_alias_calls[0][1] == "clock"
        # The call's value is a wall-clock taint reaching `return`.
        assert [h.taint.kind for h in result.value_hits] == ["wallclock"]


class TestCaching:
    def test_dataflow_of_caches_on_the_context(self):
        ctx = FileContext(ANY, "import time\nt = time.time()\n")
        first = dataflow_of(ctx)
        assert dataflow_of(ctx) is first
