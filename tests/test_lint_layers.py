"""`repro.lint.layers` + ARCH001: import graph, tiers, cycles, contract.

Unit tests for the graph builder and the contract model, fixture-tree
tests for the ARCH001 rule (both halves: per-file edge check and the
whole-tree cycle check), and the self-check that the committed tree
satisfies the committed ``import-contract.json``.
"""

from __future__ import annotations

import ast
import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint.cli import run_lint
from repro.lint.layers import (Contract, ModuleGraph, iter_import_edges,
                               load_contract, module_name_for)

ROOT = Path(__file__).resolve().parent.parent


def edges_of(source: str, module: str, is_pkg: bool = False):
    tree = ast.parse(textwrap.dedent(source))
    return list(iter_import_edges(tree, module, is_pkg))


class TestModuleNames:
    def test_src_prefix_stripped(self):
        assert module_name_for("src/repro/analysis/sweep.py") == \
            "repro.analysis.sweep"

    def test_package_init_names_the_package(self):
        assert module_name_for("src/repro/sim/__init__.py") == "repro.sim"


class TestImportEdgeExtraction:
    def test_top_level_absolute_import(self):
        found = edges_of("import repro.sim.engine\n", "repro.cli")
        assert ("repro.sim.engine", 1, False, False) in found

    def test_relative_from_import_resolves(self):
        found = edges_of("from ..sim import engine\n",
                         "repro.analysis.sweep")
        targets = {t for t, _, _, _ in found}
        assert "repro.sim" in targets and "repro.sim.engine" in targets

    def test_function_body_import_is_deferred(self):
        found = edges_of("""\
            def f():
                from repro.sim import engine
                return engine
            """, "repro.cli")
        assert all(deferred for _, _, deferred, _ in found)
        assert found  # the edge is still recorded

    def test_type_checking_import_is_marked(self):
        found = edges_of("""\
            from typing import TYPE_CHECKING
            if TYPE_CHECKING:
                from repro.sim.engine import Simulator
            """, "repro.cli")
        assert found and all(tc for _, _, _, tc in found)

    def test_non_repro_imports_ignored(self):
        assert edges_of("import os\nfrom json import dumps\n",
                        "repro.cli") == []


def graph_from(sources):
    """Build a ModuleGraph from ``{module: source}`` (none are pkgs)."""
    return ModuleGraph.from_trees(
        [(module, ast.parse(textwrap.dedent(src)), False)
         for module, src in sources.items()])


class TestModuleGraph:
    def test_edges_resolve_to_known_modules(self):
        graph = graph_from({
            "repro.a": "from repro.b import thing\n",
            "repro.b": "x = 1\n",
        })
        assert [(e.module, e.target) for e in graph.edges] == \
            [("repro.a", "repro.b")]

    def test_ancestor_package_edge_filtered(self):
        # `from . import sibling` inside a package names the importer's
        # own ancestor; only the sibling edge carries information.
        graph = ModuleGraph.from_trees([
            ("repro.obs", ast.parse("x = 1\n"), True),
            ("repro.obs.slog",
             ast.parse("from . import reqtrace\n"), False),
            ("repro.obs.reqtrace", ast.parse("y = 2\n"), False),
        ])
        pairs = {(e.module, e.target) for e in graph.edges}
        assert pairs == {("repro.obs.slog", "repro.obs.reqtrace")}

    def test_runtime_cycle_detected(self):
        graph = graph_from({
            "repro.a": "from repro.b import thing\n",
            "repro.b": "from repro.a import other\n",
        })
        assert graph.cycles() == [["repro.a", "repro.b"]]

    def test_deferred_import_breaks_the_cycle(self):
        graph = graph_from({
            "repro.a": "from repro.b import thing\n",
            "repro.b": ("def late():\n"
                        "    from repro.a import other\n"
                        "    return other\n"),
        })
        assert graph.cycles() == []

    def test_to_dot_clusters_and_dashes(self):
        graph = graph_from({
            "repro.a": ("from repro.b import thing\n"
                        "def f():\n"
                        "    from repro.c import late\n"
                        "    return late\n"),
            "repro.b": "x = 1\n",
            "repro.c": "y = 2\n",
        })
        contract = Contract([("repro.a", "alpha"), ("repro.b", "beta"),
                             ("repro.c", "beta")],
                            {("alpha", "beta")}, set())
        dot = graph.to_dot(contract)
        assert 'subgraph "cluster_alpha"' in dot
        assert '"repro.a" -> "repro.b";' in dot
        assert '"repro.a" -> "repro.c" [style=dashed];' in dot

    def test_to_json_shape(self):
        graph = graph_from({
            "repro.a": "from repro.b import thing\n",
            "repro.b": "x = 1\n",
        })
        contract = Contract([("repro.a", "alpha"), ("repro.b", "beta")],
                            set(), set())
        doc = graph.to_json(contract)
        assert doc["version"] == 1
        assert doc["modules"] == ["repro.a", "repro.b"]
        assert doc["tiers"] == {"repro.a": "alpha", "repro.b": "beta"}
        assert doc["cycles"] == []
        (violation,) = doc["violations"]
        assert violation["from"] == "repro.a"
        assert violation["to_tier"] == "beta"


class TestContract:
    def _contract(self):
        return Contract(
            tiers=[("repro.sim", "model"), ("repro.obs", "tracing"),
                   ("repro.obs.slog", "telemetry")],
            allowed={("model", "tracing")},
            exceptions={("repro.sim.special", "repro.obs.slog")})

    def test_longest_prefix_wins(self):
        contract = self._contract()
        assert contract.tier_of("repro.obs.prof") == "tracing"
        assert contract.tier_of("repro.obs.slog") == "telemetry"
        assert contract.tier_of("repro.elsewhere") == "unassigned"

    def test_same_tier_always_allowed(self):
        contract = self._contract()
        assert contract.edge_violation("repro.sim.engine",
                                       "repro.sim.events", 1, False) is None

    def test_whitelisted_and_forbidden_edges(self):
        contract = self._contract()
        assert contract.edge_violation("repro.sim.engine",
                                       "repro.obs.prof", 1, False) is None
        violation = contract.edge_violation("repro.sim.engine",
                                            "repro.obs.slog", 3, False)
        assert violation is not None
        assert (violation.from_tier, violation.to_tier) == \
            ("model", "telemetry")
        assert "import-contract.json" in violation.describe()

    def test_exception_spares_the_named_edge_only(self):
        contract = self._contract()
        assert contract.edge_violation("repro.sim.special",
                                       "repro.obs.slog", 1, False) is None
        assert contract.edge_violation("repro.sim.other",
                                       "repro.obs.slog", 1, False) is not None

    def test_round_trip_through_dict(self):
        contract = self._contract()
        again = Contract.from_dict(contract.as_dict())
        assert again.as_dict() == contract.as_dict()


def _write(root: Path, relpath: str, content: str) -> None:
    path = root / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(content), encoding="utf-8")


def _fixture_repo(tmp_path: Path) -> Path:
    _write(tmp_path, "pyproject.toml", "[project]\nname='x'\n")
    return tmp_path


class TestARCH001:
    def test_cross_tier_import_flagged(self, tmp_path):
        root = _fixture_repo(tmp_path)
        _write(root, "import-contract.json", json.dumps({
            "tiers": {"repro.sim": "model", "repro.serve": "serve"},
            "allowed_edges": [], "exceptions": []}))
        _write(root, "src/repro/serve/service.py", "x = 1\n")
        _write(root, "src/repro/sim/engine.py",
               "from repro.serve import service\n")
        out = io.StringIO()
        code = run_lint(root=str(root), output_format="json", stdout=out)
        assert code == 1
        report = json.loads(out.getvalue())
        arch = [f for f in report["findings"] if f["rule"] == "ARCH001"]
        assert len(arch) == 1
        assert arch[0]["path"] == "src/repro/sim/engine.py"
        assert "model" in arch[0]["message"]
        assert "serve" in arch[0]["message"]

    def test_runtime_cycle_flagged_without_contract(self, tmp_path):
        # The cycle half needs no contract file.
        root = _fixture_repo(tmp_path)
        _write(root, "src/repro/a.py", "from repro.b import thing\n")
        _write(root, "src/repro/b.py", "from repro.a import other\n")
        out = io.StringIO()
        code = run_lint(root=str(root), output_format="json", stdout=out)
        assert code == 1
        report = json.loads(out.getvalue())
        arch = [f for f in report["findings"] if f["rule"] == "ARCH001"]
        assert len(arch) == 1
        assert "import cycle" in arch[0]["message"]
        assert "repro.a -> repro.b -> repro.a" in arch[0]["message"]

    def test_clean_tree_passes(self, tmp_path):
        root = _fixture_repo(tmp_path)
        _write(root, "import-contract.json", json.dumps({
            "tiers": {"repro.sim": "model", "repro.obs": "tracing"},
            "allowed_edges": [["model", "tracing"]], "exceptions": []}))
        _write(root, "src/repro/obs/prof.py", "x = 1\n")
        _write(root, "src/repro/sim/engine.py",
               "from repro.obs import prof\n")
        assert run_lint(root=str(root), stdout=io.StringIO()) == 0


class TestARCH001TelemetryTier:
    """The committed contract keeps wall-clock telemetry out of the model.

    Each fixture lints one module against a copy of the real
    ``import-contract.json``, beside stub ``repro.obs`` modules.
    """

    def _lint(self, tmp_path, relpath, source):
        root = _fixture_repo(tmp_path)
        _write(root, "import-contract.json",
               (ROOT / "import-contract.json").read_text(encoding="utf-8"))
        for name in ("__init__", "prof", "registry", "reqtrace", "slog"):
            _write(root, f"src/repro/obs/{name}.py", "x = 1\n")
        _write(root, relpath, source)
        out = io.StringIO()
        code = run_lint(root=str(root), output_format="json", stdout=out)
        return code, [f for f in json.loads(out.getvalue())["findings"]
                      if f["rule"] == "ARCH001"]

    @pytest.mark.parametrize("relpath, source, target", [
        ("src/repro/sim/example.py",
         "def f():\n    from ..obs.registry import MetricsRegistry\n",
         "repro.obs.registry"),
        ("src/repro/mapreduce/example.py",
         "from ..obs.reqtrace import RequestTelemetry\n",
         "repro.obs.reqtrace"),
        ("src/repro/cluster/example.py",
         "from ..obs import slog\n", "repro.obs.slog"),
    ], ids=["sim", "mapreduce", "cluster"])
    def test_model_import_fails(
            self, tmp_path, relpath, source, target):
        code, found = self._lint(tmp_path, relpath, source)
        assert code == 1 and len(found) == 1
        assert f"{target} (telemetry tier)" in found[0]["message"]
        assert found[0]["path"] == relpath

    def test_same_import_in_serve_tier_passes(self, tmp_path):
        code, found = self._lint(
            tmp_path, "src/repro/serve/example.py",
            "from repro.obs.registry import MetricsRegistry\n")
        assert code == 0 and found == []

    def test_prof_import_still_allowed_in_model(self, tmp_path):
        # The per-phase profiler is sanctioned in the model packages;
        # only the request-telemetry trio is tier-restricted.
        code, found = self._lint(
            tmp_path, "src/repro/sim/example.py",
            "from ..obs import prof\n")
        assert code == 0 and found == []


class TestTelemetryOutOfModelProcesses:
    """``repro.obs`` must not drag the telemetry modules into a model
    process: importing them by name is what ARCH001 can check."""

    def test_no_telemetry_module_loaded(self):
        probe = textwrap.dedent("""\
            import json, sys
            import repro.core.characterization
            loaded = sorted(m for m in sys.modules
                            if m.startswith("repro.obs."))
            try:
                from repro.obs import MetricsRegistry
                exported = True
            except ImportError:
                exported = False
            print(json.dumps([loaded, exported]))
            """)
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-c", probe], env=env,
                              capture_output=True, text=True, check=True)
        loaded, exported = json.loads(proc.stdout)
        assert "repro.obs.prof" in loaded  # the probe saw the package
        assert not {"repro.obs.registry", "repro.obs.reqtrace",
                    "repro.obs.slog"} & set(loaded)
        assert exported is False


class TestGraphCli:
    def _repo(self, tmp_path):
        root = _fixture_repo(tmp_path)
        _write(root, "src/repro/a.py", "from repro.b import thing\n")
        _write(root, "src/repro/b.py", "x = 1\n")
        return root

    def test_graph_json(self, tmp_path):
        out = io.StringIO()
        assert run_lint(root=str(self._repo(tmp_path)), graph="json",
                        stdout=out) == 0
        doc = json.loads(out.getvalue())
        assert doc["modules"] == ["repro.a", "repro.b"]
        assert doc["cycles"] == []

    def test_graph_dot(self, tmp_path):
        out = io.StringIO()
        assert run_lint(root=str(self._repo(tmp_path)), graph="dot",
                        stdout=out) == 0
        assert out.getvalue().startswith("digraph repro_imports {")


class TestCommittedTreeSelfCheck:
    """The real repo must satisfy its own committed contract."""

    def test_contract_file_is_loadable(self):
        assert load_contract(ROOT) is not None

    def test_no_runtime_cycles(self):
        graph = ModuleGraph.build(ROOT)
        assert graph.cycles() == []

    def test_no_contract_violations(self):
        graph = ModuleGraph.build(ROOT)
        contract = load_contract(ROOT)
        violations = contract.violations(graph)
        assert violations == [], "\n".join(
            v.describe() for v in violations)

    def test_committed_dot_graph_is_current(self):
        # docs/import-graph.dot is a committed render of the live graph;
        # CI regenerates the JSON form, this pins the DOT form.
        committed = (ROOT / "docs" / "import-graph.dot").read_text(
            encoding="utf-8")
        live = ModuleGraph.build(ROOT).to_dot(load_contract(ROOT))
        assert committed == live, (
            "docs/import-graph.dot is stale; regenerate with "
            "`PYTHONPATH=src python -m repro.cli lint --graph dot "
            "> docs/import-graph.dot`")
