"""`repro.lint`: rule fixtures, suppressions, CLI, self-check.

Every shipped rule gets at least one positive and one negative snippet
through the :func:`repro.lint.lint_source` harness; the suite ends with
the self-check that the real tree lints clean — the invariant the CI
lint job enforces.
"""

from __future__ import annotations

import io
import json
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import (all_rules, lint_source, lint_tree,
                        parse_suppressions)
from repro.lint.cli import run_lint

ROOT = Path(__file__).resolve().parent.parent

SIM = "src/repro/sim/example.py"
ANY = "src/repro/analysis/example.py"


def hits(rule_id: str, source: str, relpath: str = ANY):
    """Findings of one rule for an in-memory snippet."""
    source = textwrap.dedent(source)
    return [f for f in lint_source(source, relpath)
            if f.rule_id == rule_id]


class TestDET001BareHash:
    def test_positive_bare_hash(self):
        found = hits("DET001", """\
            def partition(key, n):
                return hash(key) % n
            """)
        assert len(found) == 1
        assert found[0].line == 2
        assert "PYTHONHASHSEED" in found[0].message

    def test_negative_crc32(self):
        assert not hits("DET001", """\
            import zlib
            def partition(key, n):
                return zlib.crc32(repr(key).encode()) % n
            """)

    def test_negative_method_named_hash(self):
        assert not hits("DET001", "digest = hasher.hash()\n")

    def test_out_of_scope_path_ignored(self):
        assert not hits("DET001", "x = hash('a')\n",
                        relpath="tools/example.py")


class TestDET002UnseededRandom:
    def test_positive_unseeded_random(self):
        found = hits("DET002", """\
            import random
            rng = random.Random()
            """)
        assert len(found) == 1 and "seed" in found[0].message

    def test_positive_module_level_call(self):
        assert hits("DET002", """\
            import random
            x = random.choice(options)
            """)

    def test_positive_unseeded_default_rng(self):
        assert hits("DET002", """\
            import numpy as np
            rng = np.random.default_rng()
            """)

    def test_negative_seeded(self):
        assert not hits("DET002", """\
            import random
            rng = random.Random(7)
            draws = rng.random()
            """)

    def test_negative_seeded_default_rng(self):
        assert not hits("DET002", """\
            import numpy as np
            rng = np.random.default_rng(7)
            """)

    def test_positive_from_import_draw(self):
        source = """\
            from random import choice
            def pick(xs, out):
                out.append(choice(xs))
            """
        assert hits("DET002", source, relpath=SIM)
        assert hits("DET006", source, relpath=SIM)

    def test_positive_explicit_none_seed(self):
        found = hits("DET002", """\
            import random
            rng = random.Random(None)
            """)
        assert len(found) == 1 and "seed" in found[0].message

    def test_positive_numpy_draw_reaches_sink(self):
        source = """\
            import numpy as np
            def sample(out):
                x = np.random.rand()
                out.append(x)
            """
        assert hits("DET002", source)
        assert hits("DET006", source)


class TestDET003WallClock:
    def test_positive_time_time_in_sim(self):
        found = hits("DET003", """\
            import time
            t0 = time.time()
            """, relpath=SIM)
        assert len(found) == 1 and "sim.now" in found[0].message

    def test_positive_from_import_alias(self):
        assert hits("DET003", """\
            from time import perf_counter as pc
            t0 = pc()
            """, relpath="src/repro/mapreduce/example.py")

    def test_positive_module_alias(self):
        found = hits("DET003", """\
            import time as t
            t0 = t.time()
            """, relpath=SIM)
        assert len(found) == 1 and "time.time()" in found[0].message

    def test_positive_datetime_now(self):
        assert hits("DET003", """\
            from datetime import datetime
            stamp = datetime.now()
            """, relpath="src/repro/hdfs/example.py")

    def test_negative_outside_model_scope(self):
        # Wall time is legitimate in the bench/ layer.
        assert not hits("DET003", """\
            import time
            t0 = time.time()
            """, relpath="src/repro/bench/example.py")

    def test_positive_work_counter_module(self):
        # obs/prof.py counts work; it is held to the model bar too.
        assert hits("DET003", """\
            import time
            t0 = time.perf_counter()
            """, relpath="src/repro/obs/prof.py")

    def test_positive_serve_pool_worker(self):
        # The one file in serve/ that computes simulation results is
        # held to the model bar.
        assert hits("DET003", """\
            import time
            t0 = time.time()
            """, relpath="src/repro/serve/work.py")

    def test_positive_loadgen_generator(self):
        # Trace generation must be seed-deterministic, so no host clock.
        assert hits("DET003", """\
            import time
            t0 = time.time()
            """, relpath="src/repro/loadgen/generator.py")

    def test_negative_serve_traffic_layer(self):
        # Latency/uptime accounting in the service itself is sanctioned.
        assert not hits("DET003", """\
            import time
            t0 = time.time()
            """, relpath="src/repro/serve/service.py")

    def test_negative_sim_now(self):
        assert not hits("DET003", "t = self.sim.now\n", relpath=SIM)

    def test_positive_flow_stored_clock_reference(self):
        # Flow-backed: the syntactic pattern sees no time.* call here.
        found = hits("DET003", """\
            import time
            def measure():
                clock = time.perf_counter
                return clock()
            """, relpath=SIM)
        assert len(found) == 1
        assert "stored wall-clock function reference" in found[0].message

    def test_positive_flow_from_import_reference(self):
        assert hits("DET003", """\
            from time import monotonic
            def measure():
                clock = monotonic
                t = clock()
                return t
            """, relpath=SIM)

    def test_positive_class_body_default_and_lambda(self):
        # Reads outside any function body are still reads.
        found = hits("DET003", """\
            import time
            class Stamp:
                created = time.time()
            def run(start=time.time()):
                return start
            clock = lambda: time.time()
            """, relpath=SIM)
        assert [f.line for f in found] == [3, 4, 6]


class TestDET004UnsortedSetIteration:
    def test_positive_loop_feeding_append(self):
        found = hits("DET004", """\
            def collect(xs, out):
                for x in set(xs):
                    out.append(x)
            """)
        assert len(found) == 1 and "sorted" in found[0].message

    def test_positive_loop_feeding_yield(self):
        assert hits("DET004", """\
            def emit(transaction):
                for item in set(transaction):
                    yield (item, 1)
            """)

    def test_positive_comprehension_into_join(self):
        assert hits("DET004", """\
            def render(xs):
                return ",".join(str(x) for x in set(xs))
            """)

    def test_positive_set_as_direct_join_argument(self):
        found = hits("DET004", """\
            def render(xs):
                return ",".join(set(xs))
            """)
        assert len(found) == 1 and ".join()" in found[0].message

    def test_positive_outside_function_bodies(self):
        # Class bodies, decorators and lambdas are analyzed too; the
        # dict view in the decorator is ordered.
        found = hits("DET004", """\
            class Table:
                names = list(set(raw))
            @register(tuple(d.keys()))
            def f():
                return 1
            key = lambda xs: ",".join(set(xs))
            """)
        assert [f.line for f in found] == [2, 6]

    @pytest.mark.skipif(sys.version_info < (3, 11),
                        reason="except* needs Python 3.11")
    def test_positive_inside_except_star(self):
        assert hits("DET004", """\
            def f(s, out):
                try:
                    pass
                except* ValueError:
                    for x in set(s):
                        out.append(x)
            """)

    def test_negative_sorted_loop(self):
        assert not hits("DET004", """\
            def collect(xs, out):
                for x in sorted(set(xs)):
                    out.append(x)
            """)

    def test_negative_order_insensitive_reduction(self):
        assert not hits("DET004", """\
            total = sum(weights.values())
            biggest = max(set(xs))
            """)

    def test_negative_membership_and_return_of_collection(self):
        assert not hits("DET004", """\
            def live(nodes, down):
                ok = "a" in set(nodes)
                return frozenset(n for n in nodes if n not in down)
            """)

    def test_positive_flow_one_hop_set_loop(self):
        # Flow-backed: the set reaches the loop through a variable, which
        # the purely syntactic pattern cannot see.
        found = hits("DET004", """\
            def collect(xs, out):
                uniq = set(xs)
                for x in uniq:
                    out.append(x)
            """)
        assert len(found) == 1
        assert "through a variable" in found[0].message \
            or "loop over a variable" in found[0].message

    def test_positive_flow_materialized_set_order(self):
        # list(set) bakes hash order into a sequence; extending output
        # with it later is the same hazard one hop removed.
        found = hits("DET004", """\
            def snapshot(xs, out):
                frozen = list(set(xs))
                out.extend(frozen)
            """)
        # The syntactic half flags list(set(...)) too; the flow half
        # must additionally report the order reaching the sink.
        assert any("sort before emitting" in f.message for f in found)
        assert [f.line for f in found] == [2, 3]

    def test_positive_same_line_reports_once(self):
        found = hits("DET004", """\
            def snapshot(x):
                return list(set(x))
            """)
        assert len(found) == 1 and "list()" in found[0].message

    def test_negative_flow_proven_dict_display_view(self):
        # Insertion order is source order, so iterating its views is
        # deterministic.
        assert not hits("DET004", """\
            def table():
                d = {"atom": 1, "xeon": 2}
                return list(d.values())
            """)

    def test_negative_plain_dict_views(self):
        # Dicts iterate in insertion order: a view of a dict nothing
        # set-ordered filled is not a hazard, directly, through a
        # variable or on a parameter's attribute.
        assert not hits("DET004", """\
            snapshot = list(running.values())
            names = tuple(registry.keys())
            def f(d, rec, rows):
                for k, v in d.items():
                    rows.append(k)
                it = d.items()
                for k, v in it:
                    rows.append(k)
                for loser in list(rec.running.values()):
                    rows.append(loser)
            """)

    def test_positive_values_into_list(self):
        # list() keeps the view's order: a dict filled from a set hands
        # its hash order on to whatever the list reaches.
        found = hits("DET004", """\
            def f(jobs, rows):
                running = {job: 0 for job in set(jobs)}
                snapshot = list(running.values())
                rows.extend(snapshot)
            """)
        assert [f.line for f in found] == [4]
        assert ".extend()" in found[0].message

    def test_positive_module_level_keys_into_tuple(self):
        # Module-level code is walked like a function body.
        found = hits("DET004", """\
            registry = {name: 1 for name in set(raw)}
            names = tuple(registry.keys())
            header = ",".join(names)
            """)
        assert len(found) == 1 and ".join()" in found[0].message

    def test_positive_dict_comp_over_set_values(self):
        # The view carries the order its dict was filled in.
        found = hits("DET004", """\
            def f(xs):
                return list({k: 1 for k in set(xs)}.values())
            """)
        assert len(found) == 1 and "return" in found[0].message

    def test_positive_dict_comp_over_set_keys(self):
        found = hits("DET004", """\
            def f(xs, out):
                table = {k: len(k) for k in set(xs)}
                out.extend(table.keys())
                names = table.keys()
                for name in names:
                    out.append(name)
                for name in table.keys():
                    out.append(name)
            """)
        assert [f.line for f in found] == [3, 5, 7]

    def test_positive_dict_of_set_items(self):
        assert hits("DET004", """\
            def f(pairs, out):
                table = dict(set(pairs))
                out.extend(table.items())
            """)

    def test_negative_flow_kwargs_keys(self):
        assert not hits("DET004", """\
            def axes(**kwargs):
                names = tuple(kwargs.keys())
                return names
            """)

    def test_negative_flow_sorted_in_place(self):
        # .sort() defines the order in place; no hazard remains.
        assert not hits("DET004", """\
            def ordered(xs, out):
                uniq = set(xs)
                kept = list(uniq)
                kept.sort()
                out.extend(kept)
            """)


class TestDET005UnsortedDirListing:
    def test_positive_listdir_loop(self):
        found = hits("DET005", """\
            import os
            def scan(path):
                for name in os.listdir(path):
                    handle(name)
            """)
        assert len(found) == 1 and "sorted" in found[0].message

    def test_positive_pathlib_glob(self):
        assert hits("DET005", "entries = list(bucket.glob('*.pkl'))\n")

    def test_negative_sorted_glob(self):
        assert not hits("DET005", """\
            import glob
            files = sorted(glob.glob(pattern))
            entries = sorted(p for p in root.rglob('*.py'))
            """)

    def test_positive_iterdir_loop_feeding_append(self):
        found = hits("DET005", """\
            def scan(root, out):
                for p in root.iterdir():
                    out.append(p)
            """)
        assert len(found) == 1 and found[0].line == 2

    def test_negative_length_only(self):
        assert not hits("DET005",
                        "n = sum(1 for _ in bucket.iterdir())\n")

    def test_negative_sorted_generator_over_glob(self):
        source = """\
            import glob
            def find(p):
                return sorted(x for x in glob.glob(p))
            """
        assert not hits("DET005", source)
        assert not hits("DET004", source)

    def test_negative_sorted_in_class_body_and_lambda(self):
        assert not hits("DET005", """\
            import os
            class Spool:
                files = sorted(os.listdir("."))
            count = lambda p: len(os.listdir(p))
            """)

    def test_negative_flow_proven_count_only(self):
        # Flow-backed prove-safe: the listing is named but only ever
        # counted — order never leaks, so no finding.  The syntactic
        # pattern alone would flag the bare os.listdir() call.
        assert not hits("DET005", """\
            import os
            def count(path):
                names = os.listdir(path)
                return len(names)
            """)

    def test_positive_flow_leaked_through_variable(self):
        # Same shape, but the listing order reaches a loop + sink.
        found = hits("DET005", """\
            import os
            def scan(path, out):
                names = os.listdir(path)
                for name in names:
                    out.append(name)
            """)
        assert len(found) == 1 and "sorted" in found[0].message


class TestDET006TaintedSink:
    """Pure-dataflow rule: nondeterministic values at output sinks."""

    # The acceptance-criteria regression fixture: a wall-clock read
    # reaches an output sink through a local variable.  Caught by
    # DET006, invisible to the per-node syntactic rules DET001-005.
    REGRESSION = """\
        import time
        def sample(rows):
            t = time.time()
            n = 2 * 3
            rows.append(t)
        """

    def test_regression_caught_by_det006(self):
        found = hits("DET006", self.REGRESSION)
        assert len(found) == 1
        assert "time.time()" in found[0].message
        assert ".append()" in found[0].message

    def test_regression_missed_by_every_older_rule(self):
        # The other direction of the acceptance check: no DET001-005
        # (nor any other rule) fires on the same snippet.
        findings = lint_source(textwrap.dedent(self.REGRESSION), ANY)
        assert {f.rule_id for f in findings} == {"DET006"}

    def test_positive_rng_draw_to_yield(self):
        found = hits("DET006", """\
            import random
            def draws(n):
                for _ in range(n):
                    v = random.random()
                    yield v
            """)
        assert found and "yield" in found[0].message

    def test_positive_hash_through_arithmetic(self):
        found = hits("DET006", """\
            def bucket(key, out):
                h = hash(key)
                slot = h % 64
                out.append(slot)
            """)
        assert found and "hash()" in found[0].message

    def test_positive_taint_through_branch_join(self):
        assert hits("DET006", """\
            import time
            def stamp(fast, rows):
                t = 0.0
                if fast:
                    t = time.time()
                rows.append(t)
            """)

    def test_negative_len_sanitizes(self):
        # A count carries neither the value nor the order.
        assert not hits("DET006", """\
            import time
            def width(rows):
                t = time.time()
                n = len(str(t))
                rows.append(n)
            """)

    def test_negative_value_never_reaches_sink(self):
        assert not hits("DET006", """\
            import time
            def timed(rows):
                t0 = time.time()
                rows.append(1)
                return len(rows)
            """)

    def test_out_of_scope_tier_ignored(self):
        # bench/ legitimately times things.
        assert not hits("DET006", textwrap.dedent(self.REGRESSION),
                        relpath="src/repro/bench/example.py")


class TestPURE001ImpureModelCode:
    def test_positive_open_in_sim(self):
        found = hits("PURE001", """\
            def load(path):
                with open(path) as fh:
                    return fh.read()
            """, relpath=SIM)
        assert len(found) == 1 and "I/O" in found[0].message

    def test_positive_print_and_path_write(self):
        found = hits("PURE001", """\
            def debug(p, msg):
                print(msg)
                p.write_text(msg)
            """, relpath="src/repro/arch/example.py")
        assert len(found) == 2

    def test_positive_subprocess(self):
        assert hits("PURE001", """\
            import subprocess
            subprocess.run(["ls"])
            """, relpath=SIM)

    def test_negative_same_code_in_analysis_layer(self):
        assert not hits("PURE001", """\
            def load(path):
                with open(path) as fh:
                    return fh.read()
            """, relpath=ANY)

    def test_negative_pure_model_code(self):
        assert not hits("PURE001", """\
            def service_time(size_bytes, bw):
                return size_bytes / bw
            """, relpath=SIM)

    def test_positive_serve_pool_worker(self):
        assert hits("PURE001", """\
            def simulate_batch(keys):
                print(keys)
            """, relpath="src/repro/serve/work.py")

    def test_negative_serve_traffic_layer(self):
        # The HTTP/service layer talks to sockets by definition.
        assert not hits("PURE001", """\
            import socket
            s = socket.create_connection(("localhost", 80))
            """, relpath="src/repro/serve/http.py")


class TestOBS001UnguardedHandle:
    def test_positive_direct_active_call(self):
        found = hits("OBS001", """\
            from repro.obs import prof
            def f():
                prof.ACTIVE.count("x")
            """)
        assert len(found) == 1 and "None" in found[0].message

    def test_positive_unguarded_alias(self):
        assert hits("OBS001", """\
            from repro.obs import prof
            def f():
                profiler = prof.ACTIVE
                profiler.count("x")
            """)

    def test_positive_unguarded_sim_obs(self):
        assert hits("OBS001", """\
            def g(self):
                self.sim.obs.count("engine.wakes")
            """)

    def test_negative_guarded_alias(self):
        assert not hits("OBS001", """\
            from repro.obs import prof
            def f():
                profiler = prof.ACTIVE
                if profiler is not None:
                    profiler.count("x")
            """)

    def test_negative_guarded_attribute(self):
        assert not hits("OBS001", """\
            def g(self):
                if self.sim.obs is not None:
                    self.sim.obs.count("engine.wakes")
            """)

    def test_negative_conditional_expression(self):
        assert not hits("OBS001", """\
            def g(self, obs):
                span = self.sim.obs.begin("s") if self.sim.obs is not None else None
            """)

    def test_negative_inside_obs_package(self):
        assert not hits("OBS001", """\
            def install(self):
                prof.ACTIVE.reset()
            """, relpath="src/repro/obs/helpers.py")

    def test_positive_unguarded_slog_active(self):
        found = hits("OBS001", """\
            from repro.obs import slog
            def f():
                slog.ACTIVE.log("event")
            """)
        assert len(found) == 1 and "None" in found[0].message

    def test_positive_unguarded_telemetry_attribute(self):
        assert hits("OBS001", """\
            def f(self):
                self.service.telemetry.start("/simulate")
            """)

    def test_negative_guarded_telemetry_alias(self):
        assert not hits("OBS001", """\
            def f(self):
                tel = self.service.telemetry
                if tel is not None:
                    tel.start("/simulate")
            """)

    def test_negative_slog_emit_is_not_a_handle_call(self):
        # slog.emit() guards internally; only ACTIVE needs a site guard.
        assert not hits("OBS001", """\
            from repro.obs import slog
            def f():
                slog.emit("request.shed", route="/simulate")
            """)


class TestDOC001BrokenLink:
    def test_positive_broken_relative_link(self, tmp_path):
        findings = lint_source("see [here](missing/file.md)\n",
                               relpath="doc.md", root=tmp_path)
        assert [f.rule_id for f in findings] == ["DOC001"]
        assert "missing/file.md" in findings[0].message

    def test_negative_existing_external_and_fragment(self, tmp_path):
        (tmp_path / "other.md").write_text("x")
        text = ("[a](other.md) [b](https://example.com) "
                "[c](#anchor) [d](other.md#frag)\n")
        assert lint_source(text, relpath="doc.md", root=tmp_path) == []


class TestSuppressions:
    def test_line_suppression(self):
        assert not hits(
            "DET001",
            "x = hash('a')  # detlint: disable=DET001 -- test fixture\n")

    def test_line_suppression_all(self):
        assert not hits("DET001", "x = hash('a')  # detlint: disable=all\n")

    def test_file_wide_suppression(self):
        assert not hits("DET001", """\
            # detlint: disable-file=DET001 -- fixture module
            x = hash('a')
            y = hash('b')
            """)

    def test_other_rules_unaffected(self):
        source = textwrap.dedent("""\
            import random
            x = hash('a')  # detlint: disable=DET001
            rng = random.Random()
            """)
        assert not [f for f in lint_source(source, ANY)
                    if f.rule_id == "DET001"]
        assert [f for f in lint_source(source, ANY)
                if f.rule_id == "DET002"]

    def test_docstring_directive_not_honored(self):
        # Directives are read from real comments only; quoting one in a
        # docstring must not disable anything.
        assert hits("DET001", '''\
            """Docs quoting `# detlint: disable-file=DET001` verbatim."""
            x = hash('a')
            ''')

    def test_parse_suppressions_api(self):
        sup = parse_suppressions(
            "a = 1  # detlint: disable=DET001,DET002\n")
        assert sup.is_suppressed("DET001", 1)
        assert sup.is_suppressed("DET002", 1)
        assert not sup.is_suppressed("DET003", 1)
        assert not sup.is_suppressed("DET001", 2)

    def test_multiline_statement_trailing_directive(self):
        # The finding anchors at the statement's first line; the
        # directive sits on the closing line of the wrapped call.
        assert not hits("DET001", """\
            value = compute(
                hash('a'),
                7,
            )  # detlint: disable=DET001 -- fixture
            """)

    def test_multiline_statement_leading_directive(self):
        assert not hits("DET001", """\
            value = compute(  # detlint: disable=DET001 -- fixture
                hash('a'),
            )
            """)

    def test_decorated_def_directive_covers_decorator_line(self):
        # The hash() sits in a decorator argument on line 1; a
        # directive at the end of the decorator's logical line covers it.
        assert not hits("DET001", """\
            @cached(key=hash('a'))  # detlint: disable=DET001 -- fixture
            def f():
                return 1
            """)

    def test_directive_on_one_statement_not_the_next(self):
        source = textwrap.dedent("""\
            x = compute(
                hash('a'),
            )  # detlint: disable=DET001 -- only this statement
            y = hash('b')
            """)
        found = [f for f in lint_source(source, ANY)
                 if f.rule_id == "DET001"]
        assert [f.line for f in found] == [4]

    def test_file_wide_directive_after_code_still_applies(self):
        # disable-file is positional-independent: wherever it appears,
        # the whole file is exempt (including lines above it).
        assert not hits("DET001", """\
            x = hash('a')
            y = hash('b')
            # detlint: disable-file=DET001 -- fixture module
            """)

    def test_crlf_line_endings(self):
        source = ("x = hash('a')  # detlint: disable=DET001 -- f\r\n"
                  "y = 1\r\n")
        assert not [f for f in lint_source(source, ANY)
                    if f.rule_id == "DET001"]

    def test_bom_prefixed_source(self):
        source = ("\ufeff" + "x = hash('a')"
                  "  # detlint: disable=DET001 -- f\n")
        sup = parse_suppressions(source)
        assert sup.is_suppressed("DET001", 1)

    def test_unknown_rule_id_warns(self):
        sup = parse_suppressions(
            "x = 1  # detlint: disable=DET999 -- typo\n")
        warnings = sup.directive_warnings("src/repro/mod.py")
        assert len(warnings) == 1
        warning = warnings[0]
        assert warning.rule_id == "LINT001"
        assert warning.severity == "warning"
        assert "DET999" in warning.message

    def test_known_and_pseudo_ids_do_not_warn(self):
        sup = parse_suppressions(textwrap.dedent("""\
            a = 1  # detlint: disable=DET001 -- real rule
            b = 2  # detlint: disable=all -- blanket
            c = 3  # detlint: disable=LINT000 -- pseudo rule
            """))
        assert sup.directive_warnings("src/repro/mod.py") == []


def _make_tree(tmp_path: Path, source: str) -> Path:
    """A minimal repo root with one lintable module."""
    (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
    pkg = tmp_path / "src" / "repro"
    pkg.mkdir(parents=True)
    (pkg / "mod.py").write_text(textwrap.dedent(source))
    return tmp_path


class TestCliAndJsonSchema:
    def test_json_schema_and_exit_code(self, tmp_path):
        root = _make_tree(tmp_path, """\
            def partition(key, n):
                return hash(key) % n
            """)
        out = io.StringIO()
        code = run_lint(root=str(root), output_format="json", stdout=out)
        assert code == 1
        report = json.loads(out.getvalue())
        assert report["version"] == 2
        assert report["files_checked"] == 1
        assert report["counts"] == {"total": 1, "suppressed": 0}
        (entry,) = report["findings"]
        assert set(entry) == {"rule", "path", "line", "col", "message",
                              "severity"}
        assert entry["rule"] == "DET001"
        assert entry["path"] == "src/repro/mod.py"

    def test_unknown_suppression_id_warns_but_does_not_gate(self, tmp_path):
        root = _make_tree(
            tmp_path, "x = 1  # detlint: disable=DET999 -- typo\n")
        out = io.StringIO()
        code = run_lint(root=str(root), output_format="json", stdout=out)
        # A warning surfaces in the report but never fails the run.
        assert code == 0
        report = json.loads(out.getvalue())
        (entry,) = report["findings"]
        assert entry["rule"] == "LINT001"
        assert entry["severity"] == "warning"
        assert "DET999" in entry["message"]

    def test_stale_suppression_warns_but_does_not_gate(self, tmp_path):
        # DET001 runs over the file but finds nothing on the line, so
        # the directive is dead weight; the live one beside it is not.
        root = _make_tree(tmp_path, """\
            x = 1  # detlint: disable=DET001 -- stale
            y = hash('a')  # detlint: disable=DET001 -- live
            """)
        out = io.StringIO()
        code = run_lint(root=str(root), output_format="json", stdout=out)
        assert code == 0
        report = json.loads(out.getvalue())
        assert report["counts"]["suppressed"] == 1
        (entry,) = report["findings"]
        assert entry["rule"] == "LINT001"
        assert entry["severity"] == "warning"
        assert entry["line"] == 1
        assert "DET001" in entry["message"]
        assert "no effect" in entry["message"]

    def test_stale_file_wide_and_blanket_directives_warn(self, tmp_path):
        root = _make_tree(tmp_path, """\
            # detlint: disable-file=DET004 -- stale
            x = 1  # detlint: disable=all -- stale
            """)
        out = io.StringIO()
        assert run_lint(root=str(root), output_format="json",
                        stdout=out) == 0
        found = json.loads(out.getvalue())["findings"]
        assert [(f["rule"], f["line"]) for f in found] == \
            [("LINT001", 1), ("LINT001", 2)]

    def test_bom_file_parses_and_suppresses(self, tmp_path):
        root = _make_tree(tmp_path, "x = 1\n")
        mod = root / "src" / "repro" / "mod.py"
        mod.write_bytes(
            b"\xef\xbb\xbfx = hash('a')  # detlint: disable=DET001 -- f\n")
        out = io.StringIO()
        code = run_lint(root=str(root), output_format="json", stdout=out)
        assert code == 0
        report = json.loads(out.getvalue())
        # No LINT000 read/parse error, and the suppression took effect.
        assert report["counts"]["total"] == 0
        assert report["counts"]["suppressed"] == 1

    def test_markdown_directive_examples_do_not_warn(self, tmp_path):
        # Docs legitimately show directive syntax with placeholder ids.
        root = _make_tree(tmp_path, "x = 1\n")
        (root / "GUIDE.md").write_text(
            "Use `# detlint: disable=RULEID -- why` to suppress.\n")
        out = io.StringIO()
        assert run_lint(root=str(root), output_format="json",
                        stdout=out) == 0
        assert json.loads(out.getvalue())["counts"]["total"] == 0

    def test_output_file_written(self, tmp_path):
        root = _make_tree(tmp_path, "x = 1\n")
        report_path = tmp_path / "report.json"
        assert run_lint(root=str(root), output=str(report_path),
                        stdout=io.StringIO()) == 0
        assert json.loads(report_path.read_text())["counts"]["total"] == 0

    def test_explicit_paths_limit_scope(self, tmp_path):
        root = _make_tree(tmp_path, "x = hash('a')\n")
        clean = root / "src" / "repro" / "clean.py"
        clean.write_text("y = 1\n")
        out = io.StringIO()
        code = run_lint(paths=["src/repro/clean.py"], root=str(root),
                        stdout=out)
        assert code == 0

    def test_list_rules(self):
        out = io.StringIO()
        assert run_lint(list_rules=True, stdout=out) == 0
        text = out.getvalue()
        for rule in all_rules():
            assert rule.id in text

    def test_main_entry_point(self, tmp_path, capsys):
        from repro.cli import main
        root = _make_tree(tmp_path, "x = hash('a')\n")
        assert main(["lint", "--root", str(root)]) == 1
        assert "DET001" in capsys.readouterr().out


class TestSelfCheck:
    """The committed tree must lint clean."""

    def test_rule_catalog_complete(self):
        assert [r.id for r in all_rules()] == [
            "ARCH001", "DET001", "DET002", "DET003", "DET004", "DET005",
            "DET006", "DOC001", "OBS001", "PURE001"]
        for rule in all_rules():
            assert rule.description and rule.kind in ("python", "markdown")

    def test_tree_lints_clean(self):
        result = lint_tree(ROOT)
        assert result.findings == [], "lint findings:\n" + "\n".join(
            f.render() for f in result.findings)

    def test_seeded_hazard_fails_the_gate(self, tmp_path):
        # A bare hash() back in the NameNode's replica spread (once
        # the cause of X1's table differing between processes) must
        # exit non-zero.
        target = ROOT / "src" / "repro" / "hdfs" / "namenode.py"
        sabotaged = target.read_text().replace(
            'zlib.crc32(f"{block.block_id}:{reader}".encode())',
            "hash((block.block_id, reader))")
        assert sabotaged != target.read_text(), \
            "replica spread changed; update this fixture"
        mirror = tmp_path / "src" / "repro" / "hdfs"
        mirror.mkdir(parents=True)
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        (mirror / "namenode.py").write_text(sabotaged)
        out = io.StringIO()
        code = run_lint(root=str(tmp_path), stdout=out)
        assert code == 1 and "DET001" in out.getvalue()
