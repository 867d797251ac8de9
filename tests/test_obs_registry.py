"""`repro.obs.registry`: typed instruments, canonical render, parser.

The renderer and the conformance parser are two halves of one contract:
everything the registry emits must parse, and every exposition bug the
PR 8 hand-rolled ``/metrics`` had (no TYPE/HELP, ``quantile`` on a
non-summary, missing ``_sum``/``_count``) must be *rejected* by the
parser, so the format cannot silently regress.
"""

from __future__ import annotations

import math
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.obs.registry import (ExpositionError, MetricsRegistry,
                                parse_exposition)

ROOT = Path(__file__).resolve().parent.parent


def _sample_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("requests_total", "Requests.",
                labels=("route", "status"))
    reg.counter("requests_total", "Requests.",
                labels=("route", "status")).labels("/simulate", "200").inc(3)
    reg.counter("shed_total", "Shed.").inc(2)
    reg.gauge("inflight_cells", "Inflight.").set(7)
    hist = reg.histogram("latency_seconds", "Latency.", labels=("route",))
    for v in (0.001, 0.01, 0.01, 0.25, 3.0):
        hist.labels("/simulate").observe(v)
    return reg


class TestInstruments:
    def test_counter_monotonic(self):
        reg = MetricsRegistry()
        c = reg.counter("a_total", "A.")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_counter_sync_never_goes_backwards(self):
        reg = MetricsRegistry()
        c = reg.counter("a_total", "A.")
        c.sync(10)
        c.sync(4)          # external tally reset: keep the high-water mark
        assert c.value == 10

    def test_gauge_set_add(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth", "D.")
        g.set(5)
        g.add(-2)
        assert g.value == 3

    def test_histogram_sum_count_quantile(self):
        reg = MetricsRegistry()
        h = reg.histogram("h_seconds", "H.")
        for v in (0.1, 0.2, 0.4):
            h.observe(v)
        solo = h.labels()
        assert solo.total == 3
        assert solo.sum == pytest.approx(0.7)
        assert 0.05 < solo.quantile(0.5) < 0.4

    def test_labels_by_name_and_position_agree(self):
        reg = MetricsRegistry()
        fam = reg.counter("r_total", "R.", labels=("route", "status"))
        fam.labels("/x", "200").inc()
        fam.labels(status="200", route="/x").inc()
        assert fam.labels("/x", "200").value == 2

    def test_label_arity_and_unknown_names_raise(self):
        reg = MetricsRegistry()
        fam = reg.counter("r_total", "R.", labels=("route",))
        with pytest.raises(ValueError):
            fam.labels("/x", "extra")
        with pytest.raises(ValueError):
            fam.labels(nope="/x")
        with pytest.raises(ValueError):
            fam.inc()          # labelled family has no solo child

    def test_reregistration_idempotent_but_conflicts_raise(self):
        reg = MetricsRegistry()
        a = reg.counter("x_total", "X.")
        assert reg.counter("x_total", "X.") is a
        with pytest.raises(ValueError):
            reg.gauge("x_total", "X.")
        with pytest.raises(ValueError):
            reg.counter("x_total", "X.", labels=("route",))

    def test_invalid_names_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("bad name", "B.")
        with pytest.raises(ValueError):
            reg.counter("ok_total", "OK.", labels=("bad-label",))
        with pytest.raises(ValueError):
            reg.counter("no_help", "")


class TestPrometheusRender:
    def test_round_trips_through_conformance_parser(self):
        text = _sample_registry().render_prometheus()
        families = parse_exposition(text)
        assert set(families) == {
            "repro_requests_total", "repro_shed_total",
            "repro_inflight_cells", "repro_latency_seconds"}
        assert families["repro_requests_total"]["type"] == "counter"
        assert families["repro_latency_seconds"]["type"] == "histogram"

    def test_has_help_and_type_for_every_family(self):
        text = _sample_registry().render_prometheus()
        for family in ("repro_requests_total", "repro_shed_total",
                       "repro_inflight_cells", "repro_latency_seconds"):
            assert f"# HELP {family} " in text
            assert f"# TYPE {family} " in text

    def test_histogram_children_expose_sum_count_and_inf(self):
        text = _sample_registry().render_prometheus()
        assert 'repro_latency_seconds_bucket{route="/simulate",le="+Inf"} 5' \
            in text
        assert 'repro_latency_seconds_sum{route="/simulate"} ' in text
        assert 'repro_latency_seconds_count{route="/simulate"} 5' in text

    def test_no_quantile_labels_anywhere(self):
        assert "quantile=" not in _sample_registry().render_prometheus()

    def test_label_values_escaped(self):
        reg = MetricsRegistry()
        fam = reg.counter("odd_total", "Odd.", labels=("path",))
        fam.labels('with"quote\\and\nnewline').inc()
        text = reg.render_prometheus()
        parsed = parse_exposition(text)
        ((_name, labels, value),) = parsed["repro_odd_total"]["samples"]
        assert labels["path"] == 'with"quote\\and\nnewline'
        assert value == 1

    def test_render_is_deterministic_across_processes(self):
        """Same observations => byte-identical text in a fresh process."""
        script = textwrap.dedent("""\
            from repro.obs.registry import MetricsRegistry
            reg = MetricsRegistry()
            fam = reg.counter("requests_total", "Requests.",
                              labels=("route", "status"))
            fam.labels("/simulate", "200").inc(3)
            fam.labels("/compare", "429").inc()
            reg.counter("shed_total", "Shed.").inc(2)
            reg.gauge("inflight_cells", "Inflight.").set(7)
            hist = reg.histogram("latency_seconds", "Latency.",
                                 labels=("route",))
            for v in (0.001, 0.01, 0.01, 0.25, 3.0):
                hist.labels("/simulate").observe(v)
            import sys
            sys.stdout.write(reg.render_prometheus())
        """)
        outputs = []
        for seed in ("0", "1234"):
            proc = subprocess.run(
                [sys.executable, "-c", script], capture_output=True,
                text=True, check=True,
                env={"PYTHONPATH": str(ROOT / "src"),
                     "PYTHONHASHSEED": seed})
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        parse_exposition(outputs[0])

    def test_empty_registry_renders_empty(self):
        assert MetricsRegistry().render_prometheus() == ""


class TestJSONRender:
    def test_scalars_labels_and_histograms(self):
        doc = _sample_registry().render_json()
        assert doc["shed_total"] == 2
        assert doc["inflight_cells"] == 7
        assert doc["requests_total"] == {"/simulate 200": 3}
        assert doc["latency_seconds"]["/simulate"]["total"] == 5

    def test_unlabelled_histogram_is_flat(self):
        reg = MetricsRegistry()
        reg.histogram("h_seconds", "H.").observe(0.5)
        doc = reg.render_json()
        assert doc["h_seconds"]["total"] == 1
        assert doc["h_seconds"]["sum_s"] == pytest.approx(0.5)


class TestConformanceParser:
    def test_rejects_sample_without_type(self):
        with pytest.raises(ExpositionError, match="TYPE"):
            parse_exposition("repro_x_total 1\n")

    def test_rejects_type_without_help(self):
        with pytest.raises(ExpositionError, match="HELP"):
            parse_exposition("# TYPE repro_x_total counter\n"
                             "repro_x_total 1\n")

    def test_rejects_quantile_on_non_summary(self):
        doc = ("# HELP repro_lat Latency.\n"
               "# TYPE repro_lat gauge\n"
               'repro_lat{quantile="0.99"} 0.5\n')
        with pytest.raises(ExpositionError, match="quantile"):
            parse_exposition(doc)

    def test_rejects_histogram_without_sum_count(self):
        doc = ("# HELP repro_h H.\n"
               "# TYPE repro_h histogram\n"
               'repro_h_bucket{le="+Inf"} 2\n')
        with pytest.raises(ExpositionError, match="_sum/_count"):
            parse_exposition(doc)

    def test_rejects_non_cumulative_buckets(self):
        doc = ("# HELP repro_h H.\n"
               "# TYPE repro_h histogram\n"
               'repro_h_bucket{le="0.1"} 5\n'
               'repro_h_bucket{le="+Inf"} 2\n'
               "repro_h_sum 1\n"
               "repro_h_count 2\n")
        with pytest.raises(ExpositionError, match="cumulative"):
            parse_exposition(doc)

    def test_rejects_inf_bucket_count_mismatch(self):
        doc = ("# HELP repro_h H.\n"
               "# TYPE repro_h histogram\n"
               'repro_h_bucket{le="+Inf"} 2\n'
               "repro_h_sum 1\n"
               "repro_h_count 3\n")
        with pytest.raises(ExpositionError, match="_count"):
            parse_exposition(doc)

    def test_rejects_duplicate_series(self):
        doc = ("# HELP repro_x_total X.\n"
               "# TYPE repro_x_total counter\n"
               "repro_x_total 1\n"
               "repro_x_total 2\n")
        with pytest.raises(ExpositionError, match="duplicate"):
            parse_exposition(doc)

    def test_rejects_interleaved_families(self):
        doc = ("# HELP repro_a A.\n# TYPE repro_a gauge\n"
               "# HELP repro_b B.\n# TYPE repro_b gauge\n"
               'repro_a{k="1"} 1\n'
               'repro_b{k="1"} 1\n'
               'repro_a{k="2"} 1\n')
        with pytest.raises(ExpositionError, match="interleaved"):
            parse_exposition(doc)

    def test_rejects_negative_counter(self):
        doc = ("# HELP repro_x_total X.\n"
               "# TYPE repro_x_total counter\n"
               "repro_x_total -1\n")
        with pytest.raises(ExpositionError, match="invalid value"):
            parse_exposition(doc)

    def test_rejects_missing_trailing_newline(self):
        with pytest.raises(ExpositionError, match="newline"):
            parse_exposition("# HELP repro_a A.\n# TYPE repro_a gauge\n"
                             "repro_a 1")

    def test_accepts_inf_and_nan_values(self):
        doc = ("# HELP repro_g G.\n# TYPE repro_g gauge\n"
               "repro_g +Inf\n")
        families = parse_exposition(doc)
        ((_n, _l, value),) = families["repro_g"]["samples"]
        assert value == math.inf


class TestCLIValidator:
    def _run(self, path: Path):
        return subprocess.run(
            [sys.executable, "-m", "repro.obs.registry", str(path)],
            capture_output=True, text=True,
            env={"PYTHONPATH": str(ROOT / "src")})

    def test_valid_document_exits_zero(self, tmp_path):
        doc = tmp_path / "metrics.prom"
        doc.write_text(_sample_registry().render_prometheus())
        proc = self._run(doc)
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout

    def test_invalid_document_exits_one(self, tmp_path):
        doc = tmp_path / "metrics.prom"
        doc.write_text("repro_x_total 1\n")
        proc = self._run(doc)
        assert proc.returncode == 1
        assert "INVALID" in proc.stderr
