"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_job_arguments(self):
        args = build_parser().parse_args(
            ["job", "--machine", "atom", "--workload", "sort",
             "--freq", "1.4", "--block-mb", "256", "--data-gb", "2"])
        assert args.machine == "atom"
        assert args.freq == pytest.approx(1.4)

    def test_run_perf_flags(self):
        args = build_parser().parse_args(
            ["run", "all", "--jobs", "4", "--no-cache"])
        assert args.jobs == 4
        assert args.no_cache is True
        assert args.cache_dir is None

    def test_perf_flag_defaults(self):
        args = build_parser().parse_args(["run", "F1"])
        assert args.jobs == 1 and args.no_cache is False

    @pytest.mark.parametrize("argv", [
        ["run", "F1"], ["faults"], ["datacenter"], ["validate"], ["report"],
        ["trace", "wordcount"]], ids=lambda argv: argv[0])
    def test_negative_jobs_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + ["--jobs", "-1"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err and "must be >= 0" in err

    def test_zero_jobs_still_means_one_per_cpu(self):
        assert build_parser().parse_args(["run", "F1", "-j", "0"]).jobs == 0

    def test_validate_accepts_perf_flags(self):
        args = build_parser().parse_args(
            ["validate", "-j", "2", "--cache-dir", "/tmp/x"])
        assert args.jobs == 2 and args.cache_dir == "/tmp/x"

    def test_cache_subcommand(self):
        args = build_parser().parse_args(["cache", "stats"])
        assert args.action == "stats"
        args = build_parser().parse_args(["cache", "clear", "--stale-only"])
        assert args.action == "clear" and args.stale_only is True

    def test_trace_arguments(self):
        args = build_parser().parse_args(
            ["trace", "terasort", "--machine", "xeon", "--data-gb", "10",
             "--crash", "xeon1:60", "--crash", "xeon2:90", "--check"])
        assert args.workload == "terasort"
        assert args.crash == ["xeon1:60", "xeon2:90"]
        assert args.check is True

    def test_trace_defaults(self):
        args = build_parser().parse_args(["trace", "wordcount"])
        assert args.machine == "atom"
        assert args.out == "trace-out"
        assert args.check is False and args.crash == []


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "F14" in out and "wordcount" in out

    def test_job(self, capsys):
        code = main(["job", "--machine", "xeon", "--workload", "wordcount",
                     "--data-gb", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "execution time" in out
        assert "EDP" in out

    def test_job_unknown_workload(self, capsys):
        assert main(["job", "--machine", "xeon",
                     "--workload", "nope"]) == 2

    @pytest.mark.parametrize("flag, value", [
        ("--data-gb", "nan"), ("--block-mb", "nan"), ("--freq", "nan"),
        ("--data-gb", "-1"), ("--block-mb", "0"), ("--nodes", "0")])
    def test_job_bad_size_is_one_line_error(self, flag, value, capsys):
        """NaN sizes used to print a result and exit 0; the others
        ended in a traceback."""
        assert main(["job", "--machine", "atom", "--workload", "wordcount",
                     flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro-hadoop: error: ")
        assert captured.err.count("\n") == 1

    def test_run_unknown_experiment(self, capsys):
        assert main(["run", "F99"]) == 2

    def test_run_single_experiment(self, capsys):
        assert main(["run", "F1"]) == 0
        out = capsys.readouterr().out
        assert "== F1" in out

    def test_run_is_case_insensitive(self, capsys):
        assert main(["run", "f1"]) == 0

    def test_run_with_cache_dir_warm_rerun(self, tmp_path, capsys):
        """A warm-cache rerun simulates zero cells (acceptance criterion)."""
        cache_dir = str(tmp_path / "cache")
        assert main(["run", "F1", "--cache-dir", cache_dir]) == 0
        first = capsys.readouterr()
        assert "simulated" in first.err
        assert main(["run", "F1", "--cache-dir", cache_dir]) == 0
        second = capsys.readouterr()
        assert "0 simulated" in second.err
        assert second.out == first.out  # cached output is bit-identical

    def test_run_no_cache_leaves_disk_alone(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        assert main(["run", "F1", "--no-cache",
                     "--cache-dir", str(cache_dir)]) == 0
        assert not cache_dir.exists()


class TestTraceCommand:
    def test_trace_writes_files_and_checks(self, tmp_path, capsys):
        outdir = tmp_path / "trace"
        code = main(["trace", "wordcount", "--machine", "atom",
                     "--data-gb", "0.0625", "--out", str(outdir), "--check"])
        assert code == 0
        out = capsys.readouterr().out
        assert "wrote" in out and "trace.json" in out
        assert "OK" in out
        assert (outdir / "trace.json").stat().st_size > 0
        assert (outdir / "timeline.csv").stat().st_size > 0
        assert (outdir / "summary.txt").stat().st_size > 0

    def test_trace_with_crash_passes_check(self, tmp_path, capsys):
        code = main(["trace", "wordcount", "--machine", "atom",
                     "--data-gb", "0.0625", "--crash", "atom1:30",
                     "--out", str(tmp_path / "t"), "--check"])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_trace_malformed_crash_spec(self, capsys):
        assert main(["trace", "wordcount", "--crash", "atom1"]) == 2
        assert main(["trace", "wordcount", "--crash", "atom1:soon"]) == 2

    @pytest.mark.parametrize("when", ["nan", "inf"])
    def test_trace_non_finite_crash_time(self, when, tmp_path, capsys):
        """A NaN crash time used to die mid-run with a traceback."""
        code = main(["trace", "wordcount", "--crash", f"atom1:{when}",
                     "--out", str(tmp_path / "t")])
        assert code == 2
        assert f"bad --crash time '{when}'" in capsys.readouterr().err

    def test_trace_nan_data_size(self, tmp_path, capsys):
        """It used to write a trace and exit 0."""
        code = main(["trace", "wordcount", "--machine", "atom",
                     "--data-gb", "nan", "--out", str(tmp_path / "t")])
        assert code == 2
        assert "positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()

    def test_trace_unknown_workload(self, tmp_path, capsys):
        assert main(["trace", "nosuch", "--out", str(tmp_path / "t")]) == 2

    def test_trace_unknown_node_in_crash(self, tmp_path, capsys):
        code = main(["trace", "wordcount", "--crash", "nosuch9:5",
                     "--out", str(tmp_path / "t")])
        assert code == 2


class TestCacheCommand:
    def test_stats_on_empty(self, tmp_path, capsys):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries (current): 0" in out
        assert "model fingerprint" in out

    def test_stats_after_run(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        main(["run", "F1", "--cache-dir", cache_dir])
        capsys.readouterr()
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        out = capsys.readouterr().out
        assert "entries (current): 0" not in out

    def test_clear(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        main(["run", "F1", "--cache-dir", cache_dir])
        capsys.readouterr()
        assert main(["cache", "clear", "--cache-dir", cache_dir]) == 0
        assert "removed" in capsys.readouterr().out
        assert main(["cache", "stats", "--cache-dir", cache_dir]) == 0
        assert "entries (current): 0" in capsys.readouterr().out


class TestReport:
    def test_report_subset(self, tmp_path, capsys):
        out = tmp_path / "report.md"
        from repro.analysis.report import generate_report
        from repro.core.characterization import Characterizer
        text = generate_report(Characterizer(), experiment_ids=["F1"],
                               include_validation=False)
        assert "## F1" in text
        assert "Avg_Hadoop" in text

    def test_report_unknown_id(self):
        from repro.analysis.report import generate_report
        import pytest
        with pytest.raises(KeyError):
            generate_report(experiment_ids=["F99"])

    def test_report_cli_writes_file(self, tmp_path, capsys, monkeypatch):
        target = tmp_path / "r.md"
        # Full report is slow; patch the registry down to one experiment.
        import repro.analysis.report as report_mod
        from repro.analysis.experiments import fig1_ipc
        monkeypatch.setattr(report_mod, "ALL_EXPERIMENTS", {"F1": fig1_ipc})
        assert main(["report", "-o", str(target)]) == 0
        assert target.exists()
        assert "F1" in target.read_text()


class TestDatacenterCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["datacenter"])
        assert args.nodes == 200 and args.rack_size == 16
        assert args.policy is None and args.goal == "EDP"
        assert args.num_jobs == 60 and args.seed == 0
        assert args.trace is None and args.export is None

    def test_parser_rejects_unknown_policy(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["datacenter", "--policy", "random"])

    def test_small_run_exports_csv(self, tmp_path, capsys):
        out = tmp_path / "dc"
        code = main(["datacenter", "--nodes", "16", "--rack-size", "8",
                     "--num-jobs", "3", "--rate", "300", "--seed", "3",
                     "--policy", "fifo", "--no-cache",
                     "--export", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "cluster_edp" in text
        assert (out / "DC_summary.csv").exists()
        assert (out / "DC_jobs.csv").exists()

    def test_trace_replay_round_trip(self, tmp_path, capsys):
        from repro.cluster.arrivals import ArrivalConfig, poisson_stream, \
            trace_csv
        stream = poisson_stream(ArrivalConfig(
            seed=3, n_jobs=3, jobs_per_1000s=300.0, node_choices=(2,),
            size_choices_gb=(0.25,)))
        trace = tmp_path / "trace.csv"
        trace.write_text(trace_csv(stream))
        code = main(["datacenter", "--nodes", "8", "--rack-size", "4",
                     "--policy", "fifo", "--no-cache",
                     "--trace", str(trace)])
        assert code == 0
        assert "3 jobs" in capsys.readouterr().out

    def test_missing_trace_file_is_clean_error(self, capsys):
        code = main(["datacenter", "--trace", "/nonexistent/trace.csv"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--rate", "--patience"])
    def test_nan_rate_or_patience_is_one_line_error(self, flag, capsys):
        """Either used to print a study full of NaN and exit 0."""
        code = main(["datacenter", flag, "nan", "--nodes", "16",
                     "--num-jobs", "4", "--no-cache"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("repro-hadoop: error: ")
        assert captured.err.count("\n") == 1
        assert "nan" in captured.err

    def test_bad_trace_content_is_clean_error(self, tmp_path, capsys):
        trace = tmp_path / "bad.csv"
        trace.write_text("not,a,trace\n")
        code = main(["datacenter", "--trace", str(trace), "--no-cache"])
        assert code == 2
        assert "header" in capsys.readouterr().err


class TestServeLoadtestCommands:
    def test_serve_parser_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.host == "127.0.0.1" and args.port == 8008
        assert args.workers == 2 and args.queue_limit == 128
        assert args.no_cache is False

    def test_loadtest_parser_defaults(self):
        args = build_parser().parse_args(["loadtest"])
        assert args.requests == 200 and args.concurrency == 32
        assert args.seed == 0 and args.mode == "closed"
        assert args.spawn is False and args.dry_run is False

    def test_serve_rejects_bad_config(self, capsys):
        code = main(["serve", "--workers", "0"])
        assert code == 2
        assert "workers" in capsys.readouterr().err

    def test_loadtest_dry_run_is_deterministic(self, capsys):
        assert main(["loadtest", "--dry-run", "--seed", "9",
                     "--requests", "20"]) == 0
        first = capsys.readouterr().out
        assert main(["loadtest", "--dry-run", "--seed", "9",
                     "--requests", "20"]) == 0
        second = capsys.readouterr().out
        assert first == second
        assert len(first.splitlines()) == 20
        assert main(["loadtest", "--dry-run", "--seed", "10",
                     "--requests", "20"]) == 0
        assert capsys.readouterr().out != first

    def test_loadtest_spawn_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["loadtest", "--spawn", "--requests", "16",
                     "--concurrency", "8", "--seed", "3",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--out", str(out),
                     "--require-cache-hits", "0"])
        assert code == 0, capsys.readouterr().err
        text = capsys.readouterr().out
        assert "latency p50/p95/p99" in text
        assert out.exists()
        import json
        payload = json.loads(out.read_text())
        assert payload["report"]["requests"] == 16
        assert payload["report"]["errors"] == 0
        assert payload["config"]["seed"] == 3

    def test_loadtest_unreachable_server_fails_cleanly(self, capsys):
        # Nothing listens on this port: every request is a transport
        # error, which must exit 1 (gate) without a traceback.
        code = main(["loadtest", "--host", "127.0.0.1", "--port", "1",
                     "--requests", "2", "--concurrency", "1",
                     "--timeout", "2"])
        assert code == 1
        assert "errors" in capsys.readouterr().err
