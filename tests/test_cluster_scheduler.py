"""Unit tests for the cluster-level scheduling policies."""

from __future__ import annotations

import pytest

from repro.cluster.arrivals import JobRequest
from repro.cluster.scheduler import (POLICY_NAMES, CapacityScheduler,
                                     FairScheduler, FifoScheduler,
                                     HeteroScheduler, SlotLease, make_policy)


def req(job_id, nodes=2, workload="wordcount", user="prod-ana",
        submit_s=None):
    return JobRequest(job_id=job_id,
                      submit_s=float(job_id) if submit_s is None
                      else submit_s,
                      workload=workload, nodes=nodes,
                      data_per_node_gb=0.25, user=user)


def lease(request, pool="atom", granted_s=0.0):
    names = tuple(f"{pool}{i}" for i in range(request.nodes))
    return SlotLease(job_id=request.job_id, machine=pool, node_names=names,
                     cores_per_node=4, granted_s=granted_s)


class TestSlotLease:
    def test_slot_plan_shape(self):
        plan = lease(req(0, nodes=3)).slot_plan()
        assert plan == {"atom0": 4, "atom1": 4, "atom2": 4}
        plan = SlotLease(0, "atom", ("a", "b"), 8, 0.0).slot_plan()
        assert plan == {"a": 8, "b": 8}

    def test_validation(self):
        with pytest.raises(ValueError):
            SlotLease(0, "atom", (), 4, 0.0)
        with pytest.raises(ValueError):
            SlotLease(0, "atom", ("a",), 0, 0.0)


class TestFifo:
    def test_grants_head_when_it_fits(self):
        queue = (req(0, nodes=2), req(1, nodes=1))
        pick = FifoScheduler().select(queue, {"atom": 2, "xeon": 0}, 0.0)
        assert pick == (queue[0], "atom")

    def test_head_of_line_blocking(self):
        queue = (req(0, nodes=5), req(1, nodes=1))
        assert FifoScheduler().select(queue, {"atom": 4, "xeon": 2},
                                      0.0) is None

    def test_prefers_widest_pool_with_lexical_tiebreak(self):
        queue = (req(0, nodes=1),)
        assert FifoScheduler().select(queue, {"xeon": 5, "atom": 3},
                                      0.0)[1] == "xeon"
        assert FifoScheduler().select(queue, {"xeon": 3, "atom": 3},
                                      0.0)[1] == "atom"


class TestFair:
    def test_least_loaded_user_first(self):
        policy = FairScheduler()
        first = req(0, user="prod-ana")
        policy.on_start(first, lease(first), 0.0)
        queue = (req(1, user="prod-ana"), req(2, user="batch-sci"))
        pick = policy.select(queue, {"atom": 4}, 10.0)
        assert pick[0].user == "batch-sci"

    def test_node_seconds_break_running_ties(self):
        policy = FairScheduler()
        heavy = req(0, user="prod-ana")
        granted = lease(heavy, granted_s=0.0)
        policy.on_start(heavy, granted, 0.0)
        policy.on_finish(heavy, granted, 100.0)   # prod-ana burned 200 ns
        queue = (req(1, user="prod-ana"), req(2, user="batch-sci"))
        pick = policy.select(queue, {"atom": 4}, 100.0)
        assert pick[0].user == "batch-sci"

    def test_work_conserving_skips_unfittable(self):
        queue = (req(0, nodes=6, user="prod-ana"),
                 req(1, nodes=1, user="prod-etl"))
        pick = FairScheduler().select(queue, {"atom": 2}, 0.0)
        assert pick[0].job_id == 1


class TestCapacity:
    def test_under_served_queue_wins(self):
        policy = CapacityScheduler()
        policy.prepare({"atom": 10})
        running = req(0, nodes=5, user="prod-ana")
        policy.on_start(running, lease(running), 0.0)
        queue = (req(1, user="prod-etl"), req(2, user="batch-sci"))
        pick = policy.select(queue, {"atom": 5}, 1.0)
        assert pick[0].queue == "batch"

    def test_fifo_within_a_queue(self):
        policy = CapacityScheduler()
        policy.prepare({"atom": 10})
        queue = (req(0, nodes=6, user="prod-ana"),
                 req(1, nodes=1, user="prod-etl"),
                 req(2, nodes=1, user="batch-sci"))
        pick = policy.select(queue, {"atom": 2}, 0.0)
        # prod's head does not fit, so prod is skipped entirely this
        # round (FIFO within the queue) and batch's head runs.
        assert pick[0].job_id == 2

    def test_unknown_queue_gets_smallest_share(self):
        policy = CapacityScheduler()
        policy.prepare({"atom": 10})
        queue = (req(0, user="prod-ana"), req(1, user="mystery-user"))
        pick = policy.select(queue, {"atom": 10}, 0.0)
        assert pick[0].queue == "prod"   # equal usage: bigger guarantee wins

    def test_bad_shares_rejected(self):
        with pytest.raises(ValueError):
            CapacityScheduler(shares={"prod": 0.0})


class TestHetero:
    def test_compute_prefers_little_io_prefers_big(self):
        policy = HeteroScheduler()
        assert policy.preferred_pool("wordcount") == "atom"
        assert policy.preferred_pool("sort") == "xeon"

    def test_hybrid_tiebreak_follows_goal(self):
        assert HeteroScheduler(goal="EDP").preferred_pool("grep") == "atom"
        assert HeteroScheduler(goal="ED2AP").preferred_pool("grep") == "xeon"

    def test_places_on_preferred_pool(self):
        policy = HeteroScheduler()
        policy.prepare({"atom": 4, "xeon": 4})
        pick = policy.select((req(0, workload="wordcount"),),
                             {"atom": 4, "xeon": 4}, 0.0)
        assert pick[1] == "atom"

    def test_backfills_past_a_blocked_head(self):
        policy = HeteroScheduler()
        policy.prepare({"atom": 4, "xeon": 4})
        queue = (req(0, workload="wordcount"),       # wants atom: full
                 req(1, workload="sort"))            # wants xeon: free
        pick = policy.select(queue, {"atom": 0, "xeon": 4}, 0.0)
        assert pick == (queue[1], "xeon")

    def test_patience_unlocks_the_other_pool(self):
        policy = HeteroScheduler(patience_s=60.0)
        policy.prepare({"atom": 4, "xeon": 4})
        queue = (req(0, workload="wordcount", submit_s=0.0),)
        assert policy.select(queue, {"atom": 0, "xeon": 4}, 30.0) is None
        pick = policy.select(queue, {"atom": 0, "xeon": 4}, 60.0)
        assert pick == (queue[0], "xeon")

    def test_oversized_job_spills_immediately(self):
        policy = HeteroScheduler(patience_s=1e9)
        policy.prepare({"atom": 2, "xeon": 8})
        queue = (req(0, nodes=4, workload="wordcount", submit_s=0.0),)
        pick = policy.select(queue, {"atom": 2, "xeon": 8}, 0.0)
        assert pick == (queue[0], "xeon")

    def test_negative_patience_rejected(self):
        with pytest.raises(ValueError):
            HeteroScheduler(patience_s=-1.0)

    def test_nan_patience_rejected(self):
        """It used to be accepted: every patience test came out False."""
        with pytest.raises(ValueError, match="patience_s"):
            HeteroScheduler(patience_s=float("nan"))

    def test_infinite_patience_accepted(self):
        assert HeteroScheduler(patience_s=float("inf")).patience_s == \
            float("inf")


class TestRegistry:
    def test_every_name_constructs_fresh_instances(self):
        for name in POLICY_NAMES:
            a, b = make_policy(name), make_policy(name)
            assert a.name == name
            assert a is not b

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError):
            make_policy("random")

    def test_hetero_options_flow_through(self):
        policy = make_policy("hetero", goal="ed2ap", patience_s=42.0)
        assert policy.goal == "ED2AP"
        assert policy.patience_s == 42.0
