"""Service + app tests: coalescing, backpressure, drain, endpoints.

All async tests run under ``asyncio.run`` in plain functions (CI has no
pytest-asyncio).  Deterministic coalescing assertions use the service
API directly — inside one event loop, tasks created together all pass
the coalescing probe before the drain loop gets a turn, so the outcome
does not depend on host timing.  HTTP-level tests ride a real loopback
server via :func:`repro.serve.run.start_stack`.
"""

import asyncio
import json

import pytest

from repro.analysis.executor import cache_key
from repro.core.characterization import RunKey, simulate_cell
from repro.core.metrics import edxp
from repro.loadgen.client import _Connection
from repro.obs import reqtrace
from repro.obs.registry import parse_exposition
from repro.serve.app import result_payload
from repro.serve.http import Response
from repro.serve.run import start_stack, stop_stack
from repro.serve.service import (Draining, Overloaded, RequestTimeout,
                                 ServiceConfig, SimulationService)

# A deliberately tiny cell so pool round-trips stay in the tens of ms.
KEY = RunKey(machine="atom", workload="wordcount", freq_ghz=1.2,
             data_per_node_gb=0.05, n_nodes=2)
BODY = json.dumps({"machine": "atom", "workload": "wordcount",
                   "freq_ghz": 1.2, "data_per_node_gb": 0.05,
                   "n_nodes": 2})
# Four distinct tiny cells.  Submitted together, all four are enqueued
# before any drain loop resumes, so how they split into batches is
# deterministic.
FOUR_KEYS = [RunKey(machine="atom", workload="wordcount", freq_ghz=f,
                    data_per_node_gb=0.05, n_nodes=2)
             for f in (1.2, 1.4, 1.6, 1.8)]


def _config(tmp_path, **overrides):
    base = dict(workers=1, queue_limit=32, shards=2,
                cache_dir=str(tmp_path / "cache"))
    base.update(overrides)
    return ServiceConfig(**base)


async def _submit(service, key):
    """Resolve one cell through the service: ``(result, source)``."""
    ((_key_hex, result, source),) = await service.submit([key])
    return result, source


async def _with_service(config, fn):
    service = SimulationService(config)
    await service.start()
    try:
        return await fn(service)
    finally:
        await service.stop()


# -- service-level guarantees ---------------------------------------------

def test_concurrent_identical_submits_coalesce_to_one_flight(tmp_path):
    async def scenario(service):
        outcomes = await asyncio.gather(
            *(_submit(service, KEY) for _ in range(8)))
        return outcomes

    outcomes = asyncio.run(
        _with_service(_config(tmp_path), scenario))
    sources = sorted(source for _res, source in outcomes)
    assert sources == ["coalesced"] * 7 + ["computed"]
    results = {id(res) for res, _source in outcomes}
    assert len(results) == 1, "waiters must share the one result object"


def test_coalesced_flight_makes_exactly_one_executor_submission(tmp_path):
    async def scenario(service):
        await asyncio.gather(*(_submit(service, KEY) for _ in range(8)))
        return (service.stats.submissions.value,
                service.stats.cells.value,
                service.stats.coalesced.value)

    submissions, cells, coalesced = asyncio.run(
        _with_service(_config(tmp_path), scenario))
    assert submissions == 1
    assert cells == 1
    assert coalesced == 7


def test_result_matches_direct_simulate_cell(tmp_path):
    async def scenario(service):
        result, source = await _submit(service, KEY)
        return result, source

    result, source = asyncio.run(
        _with_service(_config(tmp_path), scenario))
    assert source == "computed"
    direct = simulate_cell(KEY)
    assert result.execution_time_s == direct.execution_time_s
    assert result.dynamic_energy_j == direct.dynamic_energy_j


def test_second_run_is_served_from_cache(tmp_path):
    config = _config(tmp_path)

    async def first(service):
        return await _submit(service, KEY)

    async def second(service):
        return await _submit(service, KEY)

    asyncio.run(_with_service(config, first))
    result, source = asyncio.run(_with_service(config, second))
    assert source == "cache"
    assert result.execution_time_s == simulate_cell(KEY).execution_time_s


def test_submit_hashes_a_cell_once(tmp_path, monkeypatch):
    from repro.analysis import executor
    from repro.serve import service as service_mod
    config = _config(tmp_path)
    asyncio.run(_with_service(config, lambda service: _submit(service, KEY)))
    calls = []

    def counting(key, conf):
        calls.append(key)
        return cache_key(key, conf)

    monkeypatch.setattr(executor, "cache_key", counting)
    monkeypatch.setattr(service_mod, "cache_key", counting)

    async def warm(service):
        return [(await _submit(service, KEY))[1] for _ in range(2)]

    assert asyncio.run(_with_service(config, warm)) == ["cache", "cache"]
    assert calls == [KEY, KEY]


def test_shards_split_the_memory_bound(tmp_path):
    from repro.analysis.executor import MEMORY_ENTRIES
    from repro.serve.service import ShardedResultCache
    for shards in (1, 3, 8):
        cache = ShardedResultCache(str(tmp_path), shards)
        assert sum(s.memory_entries for s in cache.shards) <= MEMORY_ENTRIES


def test_cache_shards_are_populated_on_disk(tmp_path):
    config = _config(tmp_path, shards=4)

    async def scenario(service):
        await asyncio.gather(*(_submit(service, k) for k in FOUR_KEYS))

    asyncio.run(_with_service(config, scenario))
    shard_dirs = sorted(p.name for p in (tmp_path / "cache").iterdir())
    # Shard dirs appear lazily on first store; every one must follow the
    # stable naming scheme, and the keys must spread over >1 shard.
    assert shard_dirs
    assert all(name in {"shard-00", "shard-01", "shard-02", "shard-03"}
               for name in shard_dirs)
    assert len(shard_dirs) >= 2, "keys should spread over shards"
    entries = sum(1 for p in (tmp_path / "cache").rglob("*.pkl"))
    assert entries == 4


def _batch_split(tmp_path, **overrides):
    """(submissions, sorted batch size seen by each cell) for FOUR_KEYS."""
    async def scenario(service):
        tel = service.telemetry
        traces = [tel.start("/simulate", "POST") for _ in FOUR_KEYS]

        async def one(key, trace):
            with reqtrace.use(trace):
                await _submit(service, key)

        await asyncio.gather(*(one(k, tr)
                               for k, tr in zip(FOUR_KEYS, traces)))
        sizes = sorted(span.args["batch"] for trace in traces
                       for span in trace.spans
                       if span.name == "pool.execute")
        return service.stats.submissions.value, sizes

    return asyncio.run(_with_service(_config(tmp_path, **overrides),
                                     scenario))


def test_idle_workers_split_the_queue_between_them(tmp_path):
    submissions, sizes = _batch_split(tmp_path, workers=2)
    assert submissions == 2
    assert sizes == [2, 2, 2, 2]


def test_one_worker_takes_the_whole_queue(tmp_path):
    submissions, sizes = _batch_split(tmp_path, workers=1)
    assert submissions == 1
    assert sizes == [4, 4, 4, 4]


def test_batch_max_still_caps_the_share(tmp_path):
    submissions, sizes = _batch_split(tmp_path, workers=2, batch_max=1)
    assert submissions == 4
    assert sizes == [1, 1, 1, 1]


def test_split_batches_keep_results_and_bodies_byte_identical(tmp_path):
    sweep = json.dumps({"machine": "atom", "workload": "wordcount",
                        "freq_ghz": [1.2, 1.4, 1.6, 1.8],
                        "data_per_node_gb": 0.05, "n_nodes": 2})
    compare = json.dumps({"workload": "wordcount", "freq_ghz": 1.4,
                          "data_per_node_gb": 0.05, "n_nodes": 2})

    async def main(workers):
        config = _config(tmp_path / f"w{workers}", workers=workers)
        results = await _with_service(
            config, lambda service: service.submit(FOUR_KEYS))
        handle = await start_stack(
            _config(tmp_path / f"http{workers}", workers=workers))
        conn = _Connection(handle.host, handle.port)
        try:
            bodies = [await conn.request("POST", "/sweep", sweep),
                      await conn.request("POST", "/compare", compare)]
            return ([repr(result) for _key_hex, result, _s in results],
                    bodies, handle.service.stats.submissions.value)
        finally:
            conn.close()
            await stop_stack(handle, graceful=False)

    one, two = asyncio.run(main(1)), asyncio.run(main(2))
    direct = [simulate_cell(key) for key in FOUR_KEYS]
    assert one[0] == two[0] == [repr(result) for result in direct]
    assert one[1] == two[1]
    assert [status for status, _body in two[1]] == [200, 200]
    expected = Response.json({
        "cells": 4,
        "results": [result_payload(key, result)
                    for key, result in zip(FOUR_KEYS, direct)]}).body
    assert two[1][0][1] == expected
    # The sweep went to the pool as 1 batch on one worker and as 2 on
    # two; /compare adds 1 for its one uncached (xeon) cell.
    assert (one[2], two[2]) == (2, 3)


def test_idle_count_settles_through_load_and_cancellation(tmp_path):
    # More drain loops than cores and every cell asked for twice: the
    # idle count must read all loops while the queue is empty, and
    # nothing once stop() cancels them blocked in Queue.get().
    keys = [RunKey(machine=m, workload="wordcount", freq_ghz=f,
                   data_per_node_gb=0.05, n_nodes=2)
            for m in ("atom", "xeon") for f in (1.2, 1.4, 1.6, 1.8)]

    async def main():
        service = SimulationService(_config(tmp_path, workers=3))
        await service.start()
        try:
            await asyncio.sleep(0)
            before = service._idle
            outcomes = await asyncio.wait_for(asyncio.gather(
                *(_submit(service, k) for k in keys * 2)), timeout=120)
            after = service._idle
        finally:
            await service.stop()
        return before, outcomes, after, service

    before, outcomes, after, service = asyncio.run(main())
    assert (before, after, service._idle) == (3, 3, 0)
    assert sorted(s for _r, s in outcomes) == (["coalesced"] * 8
                                               + ["computed"] * 8)
    assert service.stats.cells.value == 8
    assert service.inflight_cells == 0


def test_admission_beyond_queue_limit_sheds(tmp_path):
    config = _config(tmp_path, queue_limit=1)
    keys = [RunKey(machine="atom", workload="wordcount", freq_ghz=f,
                   data_per_node_gb=0.05, n_nodes=2)
            for f in (1.2, 1.4, 1.6)]

    async def scenario(service):
        outcomes = await asyncio.gather(
            *(_submit(service, k) for k in keys), return_exceptions=True)
        return outcomes, service.stats.shed.value

    outcomes, shed = asyncio.run(_with_service(config, scenario))
    shed_outcomes = [o for o in outcomes if isinstance(o, Overloaded)]
    served = [o for o in outcomes if isinstance(o, tuple)]
    assert len(shed_outcomes) == 2 and len(served) == 1
    assert shed == 2


def test_one_shed_cell_sheds_the_request_and_admitted_cells_finish(
        tmp_path):
    # One request of three distinct cells past a 1-cell queue: the first
    # is admitted, the other two are shed, so the request is a 429; each
    # cell was probed once, and the admitted one still lands in the cache.
    config = _config(tmp_path, queue_limit=1)

    async def scenario(service):
        with pytest.raises(Overloaded):
            await service.submit(FOUR_KEYS[:3])
        probes = service.cache.misses
        for _ in range(500):
            if not service.inflight_cells:
                break
            await asyncio.sleep(0.02)
        return ([service.cache.get(cache_key(k, service.conf), k,
                                   service.conf) is not None
                 for k in FOUR_KEYS[:3]],
                probes, service.stats.shed.value, service.stats.cells.value)

    landed, probes, shed, cells = asyncio.run(
        _with_service(config, scenario))
    assert landed == [True, False, False]
    assert (probes, shed, cells) == (3, 2, 1)


def test_identical_requests_coalesce_instead_of_shedding(tmp_path):
    # queue_limit=1 with 5 *identical* submits: one admission, four
    # coalesced waiters, zero shed — coalescing happens before admission.
    config = _config(tmp_path, queue_limit=1)

    async def scenario(service):
        outcomes = await asyncio.gather(
            *(_submit(service, KEY) for _ in range(5)))
        return outcomes, service.stats.shed.value

    outcomes, shed = asyncio.run(_with_service(config, scenario))
    assert shed == 0
    assert sorted(s for _r, s in outcomes) == (["coalesced"] * 4
                                               + ["computed"])


def test_waiter_timeout_is_504_and_result_still_lands_in_cache(tmp_path):
    config = _config(tmp_path, request_timeout_s=0.001)

    async def scenario(service):
        with pytest.raises(RequestTimeout):
            await _submit(service, KEY)
        # The flight was not cancelled: wait for it to finish and land.
        for _ in range(500):
            if not service.inflight_cells:
                break
            await asyncio.sleep(0.02)
        assert service.stats.timeouts.value == 1
        return service.cache.get(cache_key(KEY, service.conf), KEY,
                                 service.conf)

    cached = asyncio.run(_with_service(config, scenario))
    assert cached is not None
    assert cached.execution_time_s == simulate_cell(KEY).execution_time_s


def test_draining_service_rejects_new_work(tmp_path):
    async def scenario(service):
        service.draining = True
        with pytest.raises(Draining):
            await _submit(service, KEY)

    asyncio.run(_with_service(_config(tmp_path), scenario))


def test_stop_fails_pending_waiters_with_draining(tmp_path):
    config = _config(tmp_path, request_timeout_s=30.0)

    async def main():
        service = SimulationService(config)
        await service.start()
        task = asyncio.ensure_future(service.submit([KEY]))
        await asyncio.sleep(0)           # let it register + enqueue
        await service.stop()
        with pytest.raises(Draining):
            await task

    asyncio.run(main())


def test_config_validation():
    with pytest.raises(ValueError):
        ServiceConfig(workers=0)
    with pytest.raises(ValueError):
        ServiceConfig(queue_limit=0)
    with pytest.raises(ValueError):
        ServiceConfig(batch_max=0)
    with pytest.raises(ValueError):
        ServiceConfig(request_timeout_s=0.0)


# -- HTTP-level behaviour --------------------------------------------------

async def _stack(tmp_path, **overrides):
    return await start_stack(_config(tmp_path, **overrides))


def test_concurrent_identical_requests_get_byte_identical_bodies(tmp_path):
    async def main():
        handle = await _stack(tmp_path)
        try:
            conns = [_Connection(handle.host, handle.port)
                     for _ in range(6)]
            responses = await asyncio.gather(
                *(c.request("POST", "/simulate", BODY) for c in conns))
            for c in conns:
                c.close()
            # and once more, now served from cache
            conn = _Connection(handle.host, handle.port)
            cached = await conn.request("POST", "/simulate", BODY)
            conn.close()
            return responses, cached, handle.service.stats
        finally:
            await stop_stack(handle, graceful=False)

    responses, cached, stats = asyncio.run(main())
    assert [status for status, _b in responses] == [200] * 6
    bodies = {body for _s, body in responses}
    assert len(bodies) == 1, "identical requests must get identical bytes"
    assert cached[0] == 200 and cached[1] in bodies
    assert stats.submissions.value == 1
    payload = json.loads(bodies.pop())
    assert payload["result"]["machine"] == "atom"
    assert payload["result"]["execution_time_s"] > 0


def test_memory_tier_hits_count_and_keep_bodies_byte_identical(tmp_path):
    """A /simulate answered from the in-process tier counts as a cache
    hit in /metrics, says so in X-Repro-Source, and returns the bytes a
    disk hit and the original computation returned."""
    async def serve(*deletions):
        handle = await _stack(tmp_path)
        conn = _Connection(handle.host, handle.port)
        try:
            seen = []
            for delete in (None,) + deletions:
                if delete is not None:
                    delete()
                status, body = await conn.request("POST", "/simulate",
                                                  BODY)
                seen.append((status, conn.last_headers["x-repro-source"],
                             body))
            metrics = json.loads((await conn.request(
                "GET", "/metrics?format=json"))[1])
            return seen, metrics
        finally:
            conn.close()
            await stop_stack(handle, graceful=False)

    def drop_entry():
        (entry,) = (tmp_path / "cache").rglob("*.pkl")
        entry.unlink()

    (computed,), _ = asyncio.run(serve())
    (disk, tier), metrics = asyncio.run(serve(drop_entry))
    assert computed[:2] == (200, "computed")
    assert disk[:2] == (200, "cache")
    assert tier[:2] == (200, "cache")          # its file is gone
    assert computed[2] == disk[2] == tier[2]
    assert metrics["cache_hits_total"] == 2
    assert metrics["cache_misses_total"] == 0
    assert metrics["executor_submissions_total"] == 0


def test_http_error_statuses(tmp_path):
    async def main():
        handle = await _stack(tmp_path)
        conn = _Connection(handle.host, handle.port)
        try:
            out = {}
            out["bad_json"] = await conn.request("POST", "/simulate",
                                                 "{nope")
            out["unknown_field"] = await conn.request(
                "POST", "/simulate",
                json.dumps({"machine": "atom", "workload": "wordcount",
                            "sauce": 1}))
            out["bad_machine"] = await conn.request(
                "POST", "/simulate",
                json.dumps({"machine": "m5", "workload": "wordcount"}))
            out["missing"] = await conn.request(
                "POST", "/simulate", json.dumps({"machine": "atom"}))
            # An integer past the interpreter's digit limit fails inside
            # json.loads with a plain ValueError, not a JSONDecodeError.
            out["huge_int"] = await conn.request(
                "POST", "/simulate",
                '{"machine": "atom", "workload": "wordcount", '
                '"n_nodes": 1' + "0" * 5000 + "}")
            out["not_found"] = await conn.request("POST", "/nope", "{}")
            out["method"] = await conn.request("GET", "/simulate")
            return out
        finally:
            conn.close()
            await stop_stack(handle, graceful=False)

    out = asyncio.run(main())
    assert out["bad_json"][0] == 400
    assert out["unknown_field"][0] == 400
    assert b"sauce" in out["unknown_field"][1]
    assert out["bad_machine"][0] == 400
    assert out["missing"][0] == 400
    assert out["huge_int"][0] == 400
    assert out["not_found"][0] == 404
    assert out["method"][0] == 405


def test_non_finite_numbers_are_rejected_on_every_route(tmp_path):
    # json.loads turns NaN/Infinity/-Infinity and overflowing literals
    # into non-finite floats; an infinite data size would make HDFS
    # split its input forever in a pool worker.  The literals are
    # spliced into the body text because JSON has no other spelling.
    literals = ("NaN", "Infinity", "-Infinity", "1e400", "1" + "0" * 400)
    base = {"workload": "wordcount", "freq_ghz": 1.2,
            "data_per_node_gb": 0.05, "n_nodes": 2}
    bodies = []
    for field in ("freq_ghz", "block_size_mb", "data_per_node_gb"):
        for literal in literals:
            for route, doc, value in (
                    ("/simulate", dict(base, machine="atom"), "@"),
                    ("/sweep", dict(base, machine="atom"), ["@", 1.4]),
                    ("/compare", base, "@")):
                text = json.dumps(dict(doc, **{field: value}))
                bodies.append((route, text.replace('"@"', literal)))

    async def main():
        handle = await _stack(tmp_path)
        conn = _Connection(handle.host, handle.port)
        try:
            statuses = [(await conn.request("POST", route, body))[0]
                        for route, body in bodies]
            _s, metrics = await conn.request("GET", "/metrics?format=json")
            return statuses, json.loads(metrics)
        finally:
            conn.close()
            await stop_stack(handle, graceful=False)

    statuses, metrics = asyncio.run(main())
    assert len(statuses) == 3 * 5 * 3
    assert statuses == [400] * len(statuses)
    assert metrics["executor_submissions_total"] == 0


def test_deeply_nested_body_is_400_on_every_json_route(tmp_path):
    # Nesting deeper than the JSON decoder's recursion limit raises
    # RecursionError, not ValueError; it is still a malformed body.
    async def main():
        handle = await _stack(tmp_path)
        conn = _Connection(handle.host, handle.port)
        try:
            out = [await conn.request("POST", route, "[" * 100000)
                   for route in ("/simulate", "/sweep", "/compare")]
            _s, metrics = await conn.request("GET", "/metrics?format=json")
            return out, json.loads(metrics)
        finally:
            conn.close()
            await stop_stack(handle, graceful=False)

    out, metrics = asyncio.run(main())
    assert [status for status, _body in out] == [400] * 3
    assert all(b"body is not valid JSON" in body for _status, body in out)
    assert metrics["requests_total"] == {
        "/simulate 400": 1, "/sweep 400": 1, "/compare 400": 1}


def test_sweep_expands_axes_in_order(tmp_path):
    body = json.dumps({
        "machine": ["atom", "xeon"],
        "workload": "wordcount",
        "freq_ghz": [1.2, 1.8],
        "data_per_node_gb": 0.05,
        "n_nodes": 2,
    })

    async def main():
        handle = await _stack(tmp_path, workers=2)
        conn = _Connection(handle.host, handle.port)
        try:
            return await conn.request("POST", "/sweep", body)
        finally:
            conn.close()
            await stop_stack(handle, graceful=False)

    status, data = asyncio.run(main())
    assert status == 200
    payload = json.loads(data)
    assert payload["cells"] == 4
    grid = [(row["machine"], row["freq_ghz"])
            for row in payload["results"]]
    assert grid == [("atom", 1.2), ("atom", 1.8),
                    ("xeon", 1.2), ("xeon", 1.8)]


def test_sweep_over_cell_limit_is_413(tmp_path):
    body = json.dumps({
        "machine": ["atom", "xeon"],
        "workload": ["wordcount", "terasort"],
        "freq_ghz": [1.2, 1.4, 1.6, 1.8],
    })

    async def main():
        handle = await _stack(tmp_path, max_sweep_cells=8)
        conn = _Connection(handle.host, handle.port)
        try:
            return await conn.request("POST", "/sweep", body)
        finally:
            conn.close()
            await stop_stack(handle, graceful=False)

    status, data = asyncio.run(main())
    assert status == 413
    assert b"16 cells" in data


def test_compare_recommends_the_true_edp_winner(tmp_path):
    body = json.dumps({"workload": "wordcount", "freq_ghz": 1.2,
                       "data_per_node_gb": 0.05, "n_nodes": 2,
                       "goal": "EDP"})

    async def main():
        handle = await _stack(tmp_path, workers=2)
        conn = _Connection(handle.host, handle.port)
        try:
            return await conn.request("POST", "/compare", body)
        finally:
            conn.close()
            await stop_stack(handle, graceful=False)

    status, data = asyncio.run(main())
    assert status == 200
    payload = json.loads(data)
    costs = {}
    for machine in ("atom", "xeon"):
        res = simulate_cell(RunKey(machine=machine, workload="wordcount",
                                   freq_ghz=1.2, data_per_node_gb=0.05,
                                   n_nodes=2))
        costs[machine] = edxp(res.dynamic_energy_j,
                              res.execution_time_s, 1)
    expected = min(costs, key=lambda m: (costs[m], m))
    assert payload["winner"] == expected
    assert payload["candidates"][expected]["cost"] == costs[expected]
    assert expected in payload["recommendation"]


def test_compare_rejects_goal_and_machine_misuse(tmp_path):
    async def main():
        handle = await _stack(tmp_path)
        conn = _Connection(handle.host, handle.port)
        try:
            bad_goal = await conn.request(
                "POST", "/compare",
                json.dumps({"workload": "wordcount", "goal": "E42P"}))
            with_machine = await conn.request(
                "POST", "/compare",
                json.dumps({"workload": "wordcount", "machine": "atom"}))
            # A goal that is not a string cannot be looked up at all.
            odd_goals = [await conn.request(
                "POST", "/compare",
                json.dumps({"workload": "wordcount", "goal": goal}))
                for goal in (["EDP"], {"EDP": 1}, 1, None)]
            return bad_goal, with_machine, odd_goals
        finally:
            conn.close()
            await stop_stack(handle, graceful=False)

    bad_goal, with_machine, odd_goals = asyncio.run(main())
    assert bad_goal[0] == 400
    assert with_machine[0] == 400
    assert [status for status, _body in odd_goals] == [400] * 4
    assert all(b"unknown goal" in body for _status, body in odd_goals)


def test_healthz_flips_to_503_while_draining(tmp_path):
    async def main():
        handle = await _stack(tmp_path)
        conn = _Connection(handle.host, handle.port)
        try:
            live = await conn.request("GET", "/healthz")
            handle.service.draining = True
            draining = await conn.request("GET", "/healthz")
            return live, draining
        finally:
            conn.close()
            await stop_stack(handle, graceful=False)

    live, draining = asyncio.run(main())
    assert live[0] == 200
    assert json.loads(live[1])["status"] == "ok"
    assert draining[0] == 503
    assert json.loads(draining[1])["status"] == "draining"


def test_metrics_exposes_both_formats(tmp_path):
    async def main():
        handle = await _stack(tmp_path)
        conn = _Connection(handle.host, handle.port)
        try:
            await conn.request("POST", "/simulate", BODY)
            text = await conn.request("GET", "/metrics")
            as_json = await conn.request("GET", "/metrics?format=json")
            return text, as_json
        finally:
            conn.close()
            await stop_stack(handle, graceful=False)

    (t_status, t_body), (j_status, j_body) = asyncio.run(main())
    assert t_status == 200
    lines = t_body.decode("utf-8").splitlines()
    assert any(ln.startswith("repro_executor_submissions_total 1")
               for ln in lines)
    assert any('repro_requests_total{route="/simulate",status="200"} 1'
               == ln for ln in lines)
    assert j_status == 200
    payload = json.loads(j_body)
    assert payload["executor_cells_total"] == 1
    assert payload["requests_total"]["/simulate 200"] == 1
    assert "/simulate" in payload["request_latency_seconds"]
    # The text form must be valid exposition format, not just greppable.
    parse_exposition(t_body.decode("utf-8"))


def test_unknown_paths_share_one_metrics_series(tmp_path):
    """A client varying the path of 404s cannot mint /metrics series."""
    async def main():
        handle = await _stack(tmp_path)
        conn = _Connection(handle.host, handle.port)
        try:
            statuses = [(await conn.request("GET", f"/no/such/{i}"))[0]
                        for i in range(60)]
            statuses.append((await conn.request("GET", "/simulate"))[0])
            _status, body = await conn.request("GET", "/metrics?format=json")
            return statuses, json.loads(body), handle.service.stats
        finally:
            conn.close()
            await stop_stack(handle, graceful=False)

    statuses, payload, stats = asyncio.run(main())
    assert statuses == [404] * 60 + [405]
    assert payload["requests_total"] == {"unmatched 404": 60,
                                         "/simulate 405": 1}
    assert len(stats.requests.children()) == 3     # + the /metrics scrape


def test_handler_bug_is_counted_and_timed_as_a_500(tmp_path):
    """An exception no route maps reaches http.py as a 500; /metrics must
    count and time it like every other answered request."""
    async def boom(request):
        raise RuntimeError("handler bug")

    async def main():
        handle = await _stack(tmp_path)
        handle.app._routes[("GET", "/boom")] = boom
        conn = _Connection(handle.host, handle.port)
        try:
            status, _body = await conn.request("GET", "/boom")
            request_id = conn.last_headers.get("x-repro-request-id")
            _s, metrics = await conn.request("GET", "/metrics?format=json")
            _s, traces = await conn.request("GET", "/debug/requests")
            return status, request_id, json.loads(metrics), json.loads(traces)
        finally:
            conn.close()
            await stop_stack(handle, graceful=False)

    status, request_id, metrics, traces = asyncio.run(main())
    assert status == 500
    assert request_id is None        # http.py built the 500, not the app
    assert metrics["requests_total"]["/boom 500"] == 1
    assert metrics["request_latency_seconds"]["/boom"]["total"] == 1
    (trace,) = [t for t in traces["traces"] if t["route"] == "/boom"]
    assert trace["status"] == 500


def test_graceful_stop_stack_drains_cleanly(tmp_path):
    async def main():
        handle = await _stack(tmp_path)
        conn = _Connection(handle.host, handle.port)
        status, _body = await conn.request("POST", "/simulate", BODY)
        conn.close()
        await stop_stack(handle, graceful=True)
        return status, handle.service.inflight_cells

    status, inflight = asyncio.run(main())
    assert status == 200
    assert inflight == 0
