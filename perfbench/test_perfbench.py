"""Self-tests of the benchmark (run with ``python3 -m pytest perfbench``).

They hold the benchmark to its own contract: deterministic counts
repeat exactly, seeds change the inputs, and the metric catalogues
match ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import common
import paper
import run
import whatif
from layers import DETERMINISTIC, PER_LAYER, LayerTrace, install_cache, \
    install_model, install_serve

common.isolate()

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

#: The per-layer metrics the benchmark's definition names, in order.
NAMED_PER_LAYER = [
    "core.cells", "core.simulate_cell_s", "mapreduce.simulate_job_s",
    "mapreduce.tasks", "hdfs.load_input.calls", "hdfs.load_input_s",
    "hdfs.place_block.calls", "arch.core_evaluate.calls",
    "arch.core_evaluate_s", "arch.stall.calls", "arch.stall_s",
    "arch.integrate_energy_s", "cluster.core_perf.calls", "sim.events",
    "sim.run_s", "sim.host_us_per_event", "sim.transfers",
    "analysis.cache_put.calls", "analysis.cache_put_s",
    "analysis.drivers_s", "analysis.cache_get.calls",
    "analysis.cache_get_s", "analysis.cache_hit_ratio",
    "serve.read_request_s", "serve.handle_s", "serve.submit_s",
    "serve.sharded_get_s", "serve.sharded_put_s",
    "obs.telemetry_cost_frac", "serve.coalesced",
    "serve.executor_submissions", "serve.executor_cells",
    "serve.batch_cells_mean", "serve.queue_wait_ms",
    "serve.pool_execute_ms", "serve.shed", "serve.timeouts",
    "client.sent", "client.ok", "client.failed", "trace.overhead_frac",
]


def _run(workload: str, seed: int, trace: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr[-2000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_per_layer_table_names_exactly_the_defined_metrics():
    assert [name for name, _ in PER_LAYER] == NAMED_PER_LAYER
    assert [m["name"] for m in SPEC["per_layer"]] == NAMED_PER_LAYER
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} \
        == dict(PER_LAYER)


def test_end_to_end_catalogue_matches_the_definition():
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} \
        == dict(run.END_TO_END)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


def test_same_seed_same_inputs_other_seed_other_inputs():
    assert paper.draw(1) == paper.draw(1)
    assert paper.draw(1) != paper.draw(2)
    assert whatif.warm_trace(1) == whatif.warm_trace(1)
    assert whatif.warm_trace(1) != whatif.warm_trace(2)
    assert whatif.cold_trace(1) == whatif.cold_trace(1)
    assert whatif.cold_trace(1) != whatif.cold_trace(2)


def test_every_seed_simulates_the_same_amount_of_work():
    assert {len(whatif.cold_trace(s)) for s in range(20)} == {98}
    assert {sum(whatif.request_cells(p, b) for p, b in whatif.cold_trace(s))
            for s in range(20)} == {168}
    assert {len(whatif.warm_trace(s)) for s in range(20)} == {800}


def test_warm_traffic_follows_the_load_generators_default_mix():
    from repro.loadgen.generator import LoadConfig
    defaults = LoadConfig()
    assert whatif.WARM_WORKLOADS == defaults.workloads
    assert whatif.WARM_SIZES_GB == defaults.sizes_gb
    assert whatif.MACHINES == defaults.machines
    assert whatif.FREQS == defaults.freqs_ghz
    assert whatif.GOALS == defaults.goals
    assert whatif.WARM_NODES == defaults.n_nodes
    mix = dict(whatif.WARM_MIX)
    point = mix["/compare"] + mix["/simulate"]
    assert mix["/compare"] / point == defaults.compare_fraction
    assert mix["/sweep"] / (point + mix["/sweep"]) == 0.1


def test_warm_prefill_covers_every_cell_the_trace_touches():
    from repro.serve.app import parse_run_key
    keys = set(whatif.warm_keys())
    for seed in range(5):
        for path, body in whatif.warm_trace(seed):
            doc = json.loads(body)
            if path == "/simulate":
                assert parse_run_key(doc) in keys
            elif path == "/compare":
                doc.pop("goal")
                for machine in whatif.MACHINES:
                    assert parse_run_key(dict(doc, machine=machine)) in keys
            else:
                for machine in doc["machine"]:
                    for freq in doc["freq_ghz"]:
                        assert parse_run_key(dict(
                            doc, machine=machine, freq_ghz=freq)) in keys


def test_trace_restore_leaves_the_program_unpatched():
    from repro.analysis.executor import ResultCache
    from repro.arch.cores import CoreSpec
    from repro.core import characterization
    from repro.serve import http
    from repro.serve.service import ShardedResultCache, SimulationService
    from repro.sim.engine import Simulator

    class Server:
        async def handler(self, request):
            return request

    server = Server()
    watched = [(CoreSpec, "evaluate"), (Simulator, "run"),
               (characterization, "simulate_cell"), (ResultCache, "get"),
               (http, "read_request"), (SimulationService, "submit"),
               (ShardedResultCache, "put")]
    before = [vars(owner)[attr] for owner, attr in watched]
    trace = LayerTrace()
    install_model(trace)
    install_cache(trace)
    install_serve(trace, server)
    assert vars(CoreSpec)["evaluate"] is not before[0]
    assert "handler" in vars(server)
    trace.restore()
    assert [vars(owner)[attr] for owner, attr in watched] == before
    assert "handler" not in vars(server)


def test_two_traced_runs_with_one_seed_repeat_every_deterministic_count():
    first = _run("paper-cold", 5, trace=1)
    second = _run("paper-cold", 5, trace=1)
    assert first["correct"] and second["correct"]
    for name in DETERMINISTIC:
        assert first["metrics"][name]["value"] > 0, name
        assert first["metrics"][name]["value"] \
            == second["metrics"][name]["value"], name


def test_warm_cache_reads_repeat_exactly():
    first = _run("whatif-warm", 5, trace=1)
    second = _run("whatif-warm", 5, trace=1)
    assert first["correct"] and second["correct"]
    for name in ("analysis.cache_get.calls", "analysis.cache_hit_ratio",
                 "core.cells"):
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["analysis.cache_hit_ratio"]["value"] == 1.0
    assert first["metrics"]["core.cells"]["value"] == 0
