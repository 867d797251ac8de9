"""Request bounds: every cell the service accepts is one the model can
run and no larger than the paper's own plans.

Each edge is tested both ways: the extreme value is accepted, and the
next representable value past it is refused with 400 before anything
reaches the pool — on ``/simulate``, ``/sweep`` and ``/compare``.
"""

import asyncio
import json
import math

import pytest

from repro.analysis.experiments import DATA_SIZES_GB, MICRO_BLOCKS
from repro.loadgen.client import _Connection
from repro.serve.app import parse_run_key, plan_limits
from repro.serve.http import BadRequest
from repro.serve.run import start_stack, stop_stack
from repro.serve.service import ServiceConfig

# Tiny cells, so the accepted edges simulate in milliseconds.
BASE = {"workload": "wordcount", "data_per_node_gb": 0.05, "n_nodes": 2}

#: (field, extreme accepted, next value past it, machines it holds on).
EDGES = (
    ("freq_ghz", 1.8, math.nextafter(1.8, math.inf), ("atom", "xeon")),
    ("freq_ghz", 1.2, math.nextafter(1.2, 0.0), ("atom", "xeon")),
    ("cores_per_node", 8, 9, ("atom",)),
    ("cores_per_node", 12, 13, ("xeon",)),
    ("map_slots_per_node", 8, 9, ("atom",)),
    ("map_slots_per_node", 12, 13, ("xeon",)),
    ("data_per_node_gb", 20.0, math.nextafter(20.0, math.inf),
     ("atom", "xeon")),
    ("n_nodes", 6, 7, ("atom", "xeon")),
    ("block_size_mb", 32.0, math.nextafter(32.0, 0.0), ("atom", "xeon")),
)


def _doc(field, value, **extra):
    doc = dict(BASE, **{field: value}, **extra)
    if field == "data_per_node_gb":
        # The largest input stays cheap on one node with big blocks.
        doc.update(n_nodes=1, block_size_mb=512.0)
    return doc


def test_limits_are_the_extremes_of_the_default_plans():
    assert plan_limits() == (max(DATA_SIZES_GB), 6, min(MICRO_BLOCKS))


@pytest.mark.parametrize("field,edge,past,machines", EDGES)
def test_edge_accepted_and_next_value_refused(field, edge, past, machines):
    for machine in machines:
        key = parse_run_key(_doc(field, edge, machine=machine))
        assert getattr(key, field) == edge
        with pytest.raises(BadRequest, match=field):
            parse_run_key(_doc(field, past, machine=machine))


def _bodies(value_at):
    """One request per (edge, route): /simulate and /sweep on each
    machine the edge holds on, /compare where it holds on both."""
    out = []
    for field, edge, past, machines in EDGES:
        value = value_at(edge, past)
        for machine in machines:
            out.append(("/simulate", _doc(field, value, machine=machine)))
            out.append(("/sweep", _doc(field, [value], machine=machine)))
        if len(machines) == 2:
            out.append(("/compare", _doc(field, value)))
    return [(route, json.dumps(doc)) for route, doc in out]


def _serve(tmp_path, bodies):
    config = ServiceConfig(workers=1, queue_limit=32, shards=2,
                           cache_dir=str(tmp_path / "cache"))

    async def main():
        handle = await start_stack(config)
        conn = _Connection(handle.host, handle.port)
        try:
            statuses = [(await conn.request("POST", route, body))[0]
                        for route, body in bodies]
            _s, metrics = await conn.request("GET", "/metrics?format=json")
            return statuses, json.loads(metrics)
        finally:
            conn.close()
            await stop_stack(handle, graceful=False)

    return asyncio.run(main())


def test_past_the_edge_is_refused_before_the_pool(tmp_path):
    bodies = _bodies(lambda edge, past: past)
    statuses, metrics = _serve(tmp_path, bodies)
    assert statuses == [400] * len(bodies)
    assert metrics["executor_submissions_total"] == 0


def test_the_edge_itself_is_served(tmp_path):
    bodies = _bodies(lambda edge, past: edge)
    statuses, _metrics = _serve(tmp_path, bodies)
    assert statuses == [200] * len(bodies)


def test_compare_refuses_cores_one_machine_lacks(tmp_path):
    statuses, metrics = _serve(
        tmp_path, [("/compare", json.dumps(_doc("cores_per_node", 12)))])
    assert statuses == [400]
    assert metrics["executor_submissions_total"] == 0
