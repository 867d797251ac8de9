"""Tests for the seed-deterministic job-arrival streams."""

from __future__ import annotations

import pytest

from repro.cluster.arrivals import (DEFAULT_MIX, ArrivalConfig, JobRequest,
                                    parse_trace, poisson_stream, trace_csv)


class TestJobRequest:
    def test_queue_is_user_prefix(self):
        req = JobRequest(0, 1.0, "wordcount", 2, 0.25, "prod-ana")
        assert req.queue == "prod"

    def test_queue_without_dash_is_whole_user(self):
        req = JobRequest(0, 1.0, "wordcount", 2, 0.25, "alice")
        assert req.queue == "alice"

    @pytest.mark.parametrize("kwargs", [
        dict(job_id=-1), dict(submit_s=-0.1), dict(nodes=0),
        dict(data_per_node_gb=0.0), dict(workload=""), dict(user=""),
    ])
    def test_validation(self, kwargs):
        base = dict(job_id=0, submit_s=0.0, workload="wordcount",
                    nodes=2, data_per_node_gb=0.25, user="prod-ana")
        base.update(kwargs)
        with pytest.raises(ValueError):
            JobRequest(**base)


class TestArrivalConfig:
    @pytest.mark.parametrize("kwargs", [
        dict(n_jobs=0), dict(jobs_per_1000s=0.0),
        dict(workload_mix=()), dict(workload_mix=(("wordcount", 0.0),)),
        dict(node_choices=()), dict(node_choices=(0,)),
        dict(size_choices_gb=(0.0,)), dict(users=()),
        dict(jobs_per_1000s=float("nan")), dict(jobs_per_1000s=float("inf")),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ArrivalConfig(**kwargs)


class TestPoissonStream:
    def test_same_config_same_stream(self):
        config = ArrivalConfig(seed=7, n_jobs=20)
        assert poisson_stream(config) == poisson_stream(config)

    def test_seed_changes_stream(self):
        a = poisson_stream(ArrivalConfig(seed=1, n_jobs=20))
        b = poisson_stream(ArrivalConfig(seed=2, n_jobs=20))
        assert a != b

    def test_sorted_with_sequential_ids(self):
        stream = poisson_stream(ArrivalConfig(seed=3, n_jobs=30))
        assert [r.job_id for r in stream] == list(range(30))
        assert all(b.submit_s >= a.submit_s
                   for a, b in zip(stream, stream[1:]))

    def test_draws_stay_in_their_domains(self):
        config = ArrivalConfig(seed=5, n_jobs=40)
        names = {name for name, _ in DEFAULT_MIX}
        for req in poisson_stream(config):
            assert req.workload in names
            assert req.nodes in config.node_choices
            assert req.data_per_node_gb in config.size_choices_gb
            assert req.user in config.users

    def test_rate_compresses_the_schedule(self):
        slow = poisson_stream(ArrivalConfig(seed=9, n_jobs=25,
                                            jobs_per_1000s=50.0))
        fast = poisson_stream(ArrivalConfig(seed=9, n_jobs=25,
                                            jobs_per_1000s=500.0))
        assert fast[-1].submit_s < slow[-1].submit_s

    def test_every_workload_eventually_drawn(self):
        stream = poisson_stream(ArrivalConfig(seed=0, n_jobs=200))
        assert {r.workload for r in stream} == {n for n, _ in DEFAULT_MIX}


class TestTraceRoundTrip:
    def test_round_trip_is_exact(self):
        stream = poisson_stream(ArrivalConfig(seed=11, n_jobs=25))
        assert parse_trace(trace_csv(stream)) == stream

    def test_round_trip_past_1000_seconds(self):
        # repr() formatting keeps long schedules exact; %g would have
        # truncated 1234.567 to 6 significant digits.
        stream = (JobRequest(0, 1234.567, "wordcount", 2, 0.25, "u-a"),)
        assert parse_trace(trace_csv(stream)) == stream

    def test_comments_and_blank_lines_skipped(self):
        stream = poisson_stream(ArrivalConfig(seed=1, n_jobs=3))
        text = trace_csv(stream)
        lines = text.splitlines()
        lines.insert(1, "# a comment")
        lines.insert(3, "")
        assert parse_trace("\n".join(lines)) == stream

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            parse_trace("  \n# only comments\n")

    def test_bad_header_rejected(self):
        with pytest.raises(ValueError, match="header"):
            parse_trace("id,when\n0,1.0\n")

    def test_wrong_column_count_names_the_line(self):
        text = trace_csv(poisson_stream(ArrivalConfig(seed=1, n_jobs=2)))
        with pytest.raises(ValueError, match="line 4"):
            parse_trace(text + "9,1.0,wordcount\n")

    def test_bad_field_value_names_the_line(self):
        header = trace_csv(()).strip()
        with pytest.raises(ValueError, match="line 2"):
            parse_trace(header + "\nx,1.0,wordcount,2,0.25,u-a\n")

    def test_duplicate_ids_rejected(self):
        header = trace_csv(()).strip()
        body = "\n0,1.0,wordcount,2,0.25,u-a\n0,2.0,sort,2,0.25,u-a\n"
        with pytest.raises(ValueError, match="duplicate"):
            parse_trace(header + body)

    def test_unsorted_trace_rejected(self):
        header = trace_csv(()).strip()
        body = "\n0,5.0,wordcount,2,0.25,u-a\n1,2.0,sort,2,0.25,u-a\n"
        with pytest.raises(ValueError, match="sorted"):
            parse_trace(header + body)
