"""Integration tests for the datacenter simulation and the DC study."""

from __future__ import annotations

import pytest

from repro.cluster.arrivals import ArrivalConfig, poisson_stream
from repro.cluster.datacenter import (DatacenterSpec, RackSpec,
                                      default_job_model, run_datacenter,
                                      run_policies)
from repro.cluster.scheduler import make_policy
from repro.obs import Tracer
from repro.sim.engine import SimulationError

#: The pinned small configuration every test here shares: the inner
#: cells are memoized on the session characterizer, so the suite pays
#: for each (pool, shape) cell once.
ARRIVALS = ArrivalConfig(seed=3, n_jobs=12, jobs_per_1000s=150.0,
                         node_choices=(2, 3, 4), size_choices_gb=(0.25,))


@pytest.fixture(scope="module")
def spec():
    return DatacenterSpec.mixed(16, little_frac=0.5, rack_size=8)


@pytest.fixture(scope="module")
def stream():
    return poisson_stream(ARRIVALS)


@pytest.fixture(scope="module")
def model(characterizer):
    return default_job_model(characterizer, freq_ghz=1.8)


class TestSpec:
    def test_mixed_splits_pools(self, spec):
        assert spec.pool_sizes() == {"atom": 8, "xeon": 8}
        assert spec.total_nodes == 16

    def test_mixed_rounds_to_racks(self):
        spec = DatacenterSpec.mixed(200, little_frac=0.5, rack_size=16)
        assert spec.pool_sizes() == {"atom": 100, "xeon": 100}
        assert all(r.n_nodes <= 16 for r in spec.racks)

    def test_daemon_names_encode_rack_and_pool(self, spec):
        daemons = spec.daemons()
        assert len(daemons) == 16
        assert daemons[0].name == "r00.atom.00"
        assert all(d.name.split(".")[1] == d.machine for d in daemons)

    def test_validation(self):
        with pytest.raises(ValueError):
            DatacenterSpec(racks=())
        with pytest.raises(ValueError):
            DatacenterSpec.mixed(1)
        with pytest.raises(ValueError):
            DatacenterSpec.mixed(10, little_frac=1.5)
        with pytest.raises(ValueError):
            RackSpec("atom", 0)


class TestRunDatacenter:
    def test_every_job_completes_exactly_once(self, spec, stream, model):
        run = run_datacenter(spec, stream, make_policy("fifo"),
                             job_model=model)
        assert {o.request.job_id for o in run.outcomes} == set(range(12))
        assert run.makespan_s >= stream[-1].submit_s

    def test_leases_never_overlap_on_a_node(self, spec, stream, model):
        run = run_datacenter(spec, stream, make_policy("fair"),
                             job_model=model)
        by_node = {}
        for o in run.outcomes:
            for name in o.lease.node_names:
                by_node.setdefault(name, []).append((o.start_s, o.end_s))
        for intervals in by_node.values():
            intervals.sort()
            for (_, end_a), (start_b, _) in zip(intervals, intervals[1:]):
                assert start_b >= end_a

    def test_leases_are_homogeneous_and_sized(self, spec, stream, model):
        run = run_datacenter(spec, stream, make_policy("hetero"),
                             job_model=model)
        for o in run.outcomes:
            assert o.lease.n_nodes == o.request.nodes
            pools = {name.split(".")[1] for name in o.lease.node_names}
            assert pools == {o.lease.machine}

    def test_repeat_runs_are_identical(self, spec, stream, model):
        a = run_datacenter(spec, stream, make_policy("capacity"),
                           job_model=model)
        b = run_datacenter(spec, stream, make_policy("capacity"),
                           job_model=model)
        assert a.summary() == b.summary()
        assert a.job_records() == b.job_records()

    def test_oversized_request_rejected(self, spec, model):
        bad = poisson_stream(ArrivalConfig(
            seed=1, n_jobs=2, node_choices=(20,), size_choices_gb=(0.25,)))
        with pytest.raises(SimulationError, match="largest pool"):
            run_datacenter(spec, bad, make_policy("fifo"), job_model=model)

    def test_waits_are_never_negative(self, spec, stream, model):
        run = run_datacenter(spec, stream, make_policy("fifo"),
                             job_model=model)
        assert all(o.wait_s >= -1e-9 for o in run.outcomes)
        assert all(o.slowdown >= 1.0 - 1e-9 for o in run.outcomes)

    def test_tracer_sees_the_run(self, spec, stream, model):
        tracer = Tracer()
        run_datacenter(spec, stream, make_policy("fifo"),
                       job_model=model, obs=tracer)
        assert tracer.meta.get("dc.grants") == 12
        assert "dc.makespan_s" in tracer.meta
        names = set(tracer.counters)
        assert {"dc.queue", "dc.busy.atom", "dc.busy.xeon"} <= names
        lease_spans = [s for s in tracer.spans
                       if s.track == ("datacenter", "atom")
                       or s.track == ("datacenter", "xeon")]
        assert len(lease_spans) == 12


class TestRunPolicies:
    def test_hetero_beats_fifo_on_cluster_edp(self, spec, stream,
                                              characterizer):
        runs = run_policies(spec, stream, ("fifo", "hetero"),
                            job_model=default_job_model(characterizer))
        assert runs["hetero"].cluster_edp < runs["fifo"].cluster_edp

    def test_summary_keys_are_uniform(self, spec, stream, model):
        runs = run_policies(spec, stream, ("fifo", "fair"), job_model=model)
        keys = [tuple(r.summary()) for r in runs.values()]
        assert keys[0] == keys[1]


class TestDatacenterStudy:
    def test_experiment_shape_and_export(self, characterizer, tmp_path):
        from repro.analysis.experiments import datacenter_study
        from repro.analysis.export import write_experiment_csv
        exp = datacenter_study(
            characterizer, seed=ARRIVALS.seed, n_nodes=16, rack_size=8,
            policies=("fifo", "hetero"), n_jobs=ARRIVALS.n_jobs,
            jobs_per_1000s=ARRIVALS.jobs_per_1000s,
            node_choices=ARRIVALS.node_choices,
            size_choices_gb=ARRIVALS.size_choices_gb)
        assert exp.exp_id == "DC"
        assert [row["policy"] for row in exp.data["summary"]] == [
            "fifo", "hetero"]
        assert len(exp.data["jobs"]) == 2 * ARRIVALS.n_jobs
        assert "normalized to FIFO" in exp.render()
        paths = {p.name for p in write_experiment_csv(exp, tmp_path)}
        assert {"DC_summary.csv", "DC_jobs.csv"} <= paths

    def test_trace_replay_matches_synthetic(self, characterizer):
        from repro.analysis.experiments import datacenter_study
        from repro.cluster.arrivals import parse_trace, trace_csv
        stream = poisson_stream(ARRIVALS)
        kwargs = dict(n_nodes=16, rack_size=8, policies=("fifo",))
        synthetic = datacenter_study(
            characterizer, seed=ARRIVALS.seed, n_jobs=ARRIVALS.n_jobs,
            jobs_per_1000s=ARRIVALS.jobs_per_1000s,
            node_choices=ARRIVALS.node_choices,
            size_choices_gb=ARRIVALS.size_choices_gb, **kwargs)
        replayed = datacenter_study(
            characterizer, stream=parse_trace(trace_csv(stream)), **kwargs)
        assert synthetic.data["summary"] == replayed.data["summary"]
        assert synthetic.data["jobs"] == replayed.data["jobs"]
