"""Response bodies are pinned to one reference encoding on every path.

The app builds ``/simulate``, ``/sweep`` and ``/compare`` bodies by
splicing each cell's encoded payload, which it encodes once and keeps.
These tests rebuild every 200 body the plain way, with ``json.dumps``
over dicts made from :func:`~repro.serve.app.result_payload`, and
require the same bytes whichever way the service resolved the cells:
computed in the pool, coalesced onto another request's computation,
read from disk, read from the cache's in-process tier, and with the
cell's encoding already kept or not.
"""

import asyncio
import json

from repro.analysis.executor import cache_key
from repro.core.characterization import RunKey, simulate_cell
from repro.core.metrics import edxp
from repro.mapreduce.config import DEFAULT_CONF
from repro.serve import app as app_mod
from repro.serve.app import SimulationApp, result_payload
from repro.serve.http import Request
from repro.serve.service import ServiceConfig, SimulationService

# Tiny cells so the pool round-trips stay in the tens of ms.
BASE = {"workload": "wordcount", "data_per_node_gb": 0.05, "n_nodes": 2}
FREQS = (1.2, 1.4, 1.6)
_DIRECT = {}


def _key(machine, freq):
    return RunKey(machine=machine, freq_ghz=freq, **BASE)


def _direct(key):
    if key not in _DIRECT:
        _DIRECT[key] = simulate_cell(key)
    return _DIRECT[key]


def _reference(doc):
    return json.dumps(doc, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


def ref_simulate(machine, freq):
    key = _key(machine, freq)
    return _reference({"result": result_payload(key, _direct(key))})


def ref_sweep(keys):
    return _reference({"cells": len(keys),
                       "results": [result_payload(k, _direct(k))
                                   for k in keys]})


def ref_compare(freq, goal):
    exponent = {"EDP": 1, "ED2P": 2, "ED3P": 3}[goal]
    candidates, costs = {}, {}
    for machine in ("atom", "xeon"):
        key = _key(machine, freq)
        result = _direct(key)
        payload = result_payload(key, result)
        payload["cost"] = costs[machine] = edxp(
            result.dynamic_energy_j, result.execution_time_s, exponent)
        candidates[machine] = payload
    winner = min(costs, key=lambda m: (costs[m], m))
    runner_up = min((m for m in costs if m != winner),
                    key=lambda m: (costs[m], m))
    ratio = costs[winner] / costs[runner_up] if costs[runner_up] else 0.0
    return _reference({
        "workload": BASE["workload"], "goal": goal,
        "candidates": candidates, "winner": winner,
        "cost_ratio_winner_over_runner_up": ratio,
        "recommendation": (
            f"{winner} wins on {goal}: {costs[winner]:.4g} vs "
            f"{costs[runner_up]:.4g} for {runner_up} ({ratio:.3g}x)")})


def simulate(machine, freq):
    return "/simulate", dict(BASE, machine=machine, freq_ghz=freq)


def compare(freq, goal):
    return "/compare", dict(BASE, freq_ghz=freq, goal=goal)


def sweep(machines, freqs):
    return "/sweep", dict(BASE, machine=list(machines),
                          freq_ghz=list(freqs))


def _config(path):
    return ServiceConfig(workers=1, queue_limit=32, shards=2,
                         cache_dir=str(path))


async def _ask(app, route, doc):
    """(status, X-Repro-Source, body) of one request to the app."""
    response = await app.handle(Request(
        method="POST", path=route, query={}, headers={},
        body=json.dumps(doc).encode()))
    headers = dict(response.headers)
    return response.status, headers.get("X-Repro-Source"), response.body


async def _with_app(path, fn):
    service = SimulationService(_config(path))
    await service.start()
    try:
        return await fn(SimulationApp(service))
    finally:
        await service.stop()


def _hex(machine, freq):
    return cache_key(_key(machine, freq), DEFAULT_CONF)


def _tier(app):
    """Cache keys held in the service cache's in-process tier."""
    return {key_hex for shard in app.service.cache.shards
            for key_hex in shard._memory}


def test_every_path_answers_the_reference_bytes(tmp_path):
    seen = []

    async def first_boot(app):
        assert app._encoded == {}
        # computed
        seen.append((await _ask(app, *simulate("atom", 1.2)),
                     "computed", ref_simulate("atom", 1.2)))
        # a repeated grid cell coalesces onto its own first copy
        keys = [_key("xeon", 1.2), _key("xeon", 1.2)]
        seen.append((await _ask(app, *sweep(["xeon"], [1.2, 1.2])),
                     "coalesced=1,computed=1", ref_sweep(keys)))
        # two concurrent compares: the second joins the first's flights
        both = await asyncio.gather(_ask(app, *compare(1.4, "EDP")),
                                    _ask(app, *compare(1.4, "ED2P")))
        seen.append((both[0], "computed=2", ref_compare(1.4, "EDP")))
        seen.append((both[1], "coalesced=2", ref_compare(1.4, "ED2P")))
        # a disk hit, then a memory-tier hit, of a kept encoding
        assert _hex("atom", 1.2) not in _tier(app)
        seen.append((await _ask(app, *simulate("atom", 1.2)),
                     "cache", ref_simulate("atom", 1.2)))
        assert _hex("atom", 1.2) in _tier(app)
        seen.append((await _ask(app, *simulate("atom", 1.2)),
                     "cache", ref_simulate("atom", 1.2)))
        # disk hits of kept candidate encodings
        seen.append((await _ask(app, *compare(1.4, "EDP")),
                     "cache=2", ref_compare(1.4, "EDP")))
        # memory-tier hits encoded afresh: a new goal on the same cells
        assert {_hex("atom", 1.4), _hex("xeon", 1.4)} <= _tier(app)
        assert (_hex("atom", 1.4), "ED3P") not in app._encoded
        seen.append((await _ask(app, *compare(1.4, "ED3P")),
                     "cache=2", ref_compare(1.4, "ED3P")))
        return dict(app._encoded)

    encoded = asyncio.run(_with_app(tmp_path / "cache", first_boot))
    assert set(encoded) == {
        _hex("atom", 1.2), _hex("xeon", 1.2),
        *((_hex(m, 1.4), goal) for m in ("atom", "xeon")
          for goal in ("EDP", "ED2P", "ED3P"))}

    async def second_boot(app):
        # A new stack keeps no encodings from the last one: the first
        # round reads each cell from disk and encodes it afresh, the
        # second round reuses the tier and the kept encodings.
        assert app._encoded == {}
        for _ in range(2):
            seen.append((await _ask(app, *simulate("xeon", 1.2)),
                         "cache", ref_simulate("xeon", 1.2)))
            seen.append((await _ask(app, *sweep(["atom", "xeon"],
                                                [1.2, 1.4])),
                         "cache=4",
                         ref_sweep([_key(m, f) for m in ("atom", "xeon")
                                    for f in (1.2, 1.4)])))
            for goal in ("EDP", "ED2P", "ED3P"):
                seen.append((await _ask(app, *compare(1.4, goal)),
                             "cache=2", ref_compare(1.4, goal)))
        return app.service.cache.misses

    assert asyncio.run(_with_app(tmp_path / "cache", second_boot)) == 0
    for (status, source, body), want_source, want_body in seen:
        assert (status, source) == (200, want_source)
        assert body == want_body


def test_kept_encodings_are_bounded_and_evicted_oldest_first(
        tmp_path, monkeypatch):
    monkeypatch.setattr(app_mod, "MEMORY_ENTRIES", 3)
    order = [("atom", f) for f in FREQS] + [("xeon", f) for f in FREQS]

    async def scenario(app):
        sizes = []
        for machine, freq in order + order:
            status, _source, body = await _ask(app, *simulate(machine,
                                                              freq))
            assert (status, body) == (200, ref_simulate(machine, freq))
            sizes.append(len(app._encoded))
        return sizes, list(app._encoded)

    sizes, kept = asyncio.run(_with_app(tmp_path / "cache", scenario))
    assert sizes == [1, 2] + [3] * 10
    assert kept == [_hex("xeon", f) for f in FREQS]
