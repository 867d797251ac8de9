"""Cache correctness: fresh vs cached results, invalidation, failures.

The persistent cache must be invisible except for speed — a cached cell
must equal a freshly simulated one field-for-field, the cache must go
cold when the model fingerprint changes, and a failing cell must report
its coordinates rather than a bare worker traceback.
"""

from __future__ import annotations

import pickle

import pytest

from repro.analysis.executor import (CACHE_FORMAT, CellError, ResultCache,
                                     cache_key, default_cache_dir,
                                     model_fingerprint, resolve_jobs,
                                     run_cells)
from repro.core.characterization import Characterizer, RunKey, simulate_cell
from repro.mapreduce.config import DEFAULT_CONF

#: Small cells keep these tests fast; determinism does not depend on size.
KEY = RunKey("atom", "wordcount", data_per_node_gb=0.25)
KEY2 = RunKey("xeon", "wordcount", freq_ghz=1.2, data_per_node_gb=0.25)


@pytest.fixture()
def cache(tmp_path) -> ResultCache:
    return ResultCache(tmp_path)


class TestCacheKey:
    def test_stable_for_equal_inputs(self):
        assert cache_key(KEY) == cache_key(RunKey("atom", "wordcount",
                                                  data_per_node_gb=0.25))

    def test_differs_per_runkey_field(self):
        assert cache_key(KEY) != cache_key(KEY2)
        assert cache_key(KEY) != cache_key(
            RunKey("atom", "wordcount", data_per_node_gb=0.25, n_nodes=4))

    def test_differs_per_conf(self):
        other = DEFAULT_CONF.override(replication=2)
        assert cache_key(KEY, DEFAULT_CONF) != cache_key(KEY, other)

    def test_fingerprint_is_stable_and_hex(self):
        fp = model_fingerprint()
        assert fp == model_fingerprint()
        assert len(fp) == 64 and int(fp, 16) >= 0


class TestResultCache:
    def test_fresh_and_cached_results_identical(self, cache):
        fresh = simulate_cell(KEY)
        cache.put(KEY, DEFAULT_CONF, fresh)
        cached = cache.get(KEY, DEFAULT_CONF)
        assert cached == fresh  # dataclass deep equality, every field
        assert pickle.dumps(cached) == pickle.dumps(fresh)

    def test_miss_on_empty(self, cache):
        assert cache.get(KEY) is None
        assert cache.misses == 1 and cache.hits == 0

    def test_fingerprint_change_invalidates(self, cache, tmp_path):
        cache.put(KEY, DEFAULT_CONF, simulate_cell(KEY))
        stale = ResultCache(tmp_path, fingerprint="0" * 64)
        assert stale.get(KEY) is None
        # The entry itself is still on disk under the old namespace.
        assert cache.stats().entries == 1
        assert stale.stats().stale_entries == 1

    def test_corrupt_entry_is_a_miss(self, cache):
        cache.put(KEY, DEFAULT_CONF, simulate_cell(KEY))
        entry = cache._entry(KEY, DEFAULT_CONF)
        entry.write_bytes(b"not a pickle")
        assert cache.get(KEY) is None
        assert not entry.exists()  # dropped, will be re-simulated
        assert cache.corrupt == 1 and cache.misses == 1

    def test_wrong_type_pickle_is_dropped(self, cache):
        # A readable pickle that is not a JobResult (foreign writer,
        # stale schema) must never masquerade as a cell result.
        entry = cache._entry(KEY, DEFAULT_CONF)
        entry.parent.mkdir(parents=True, exist_ok=True)
        entry.write_bytes(pickle.dumps({"execution_time_s": 1.0}))
        assert cache.get(KEY) is None
        assert not entry.exists()
        assert cache.corrupt == 1

    def test_corrupt_entry_is_rewritten_on_next_put(self, cache):
        fresh = simulate_cell(KEY)
        entry = cache._entry(KEY, DEFAULT_CONF)
        entry.parent.mkdir(parents=True, exist_ok=True)
        entry.write_bytes(b"\x80garbage")
        assert cache.get(KEY) is None
        cache.put(KEY, DEFAULT_CONF, fresh)
        assert cache.get(KEY) == fresh

    def test_put_leaves_no_tmp_files_behind(self, cache):
        cache.put(KEY, DEFAULT_CONF, simulate_cell(KEY))
        cache.put(KEY, DEFAULT_CONF, simulate_cell(KEY))  # overwrite path
        assert list(cache.path.rglob("*.tmp")) == []
        assert cache.stats().entries == 1

    def test_reap_orphans_deletes_only_aged_tmp_files(self, cache):
        import os
        cache.put(KEY, DEFAULT_CONF, simulate_cell(KEY))
        bucket = cache._bucket
        old = bucket / "dead-writer.tmp"
        old.write_bytes(b"partial")
        os.utime(old, (1, 1))                      # ancient mtime
        fresh = bucket / "live-writer.tmp"
        fresh.write_bytes(b"partial")              # now-ish mtime
        assert cache.reap_orphans(max_age_s=300.0) == 1
        assert not old.exists() and fresh.exists()
        assert cache.get(KEY) is not None          # entries untouched

    def test_reap_orphans_on_missing_dir_is_noop(self, tmp_path):
        cache = ResultCache(tmp_path / "never-created")
        assert cache.reap_orphans() == 0

    def test_clear(self, cache):
        result = simulate_cell(KEY)
        cache.put(KEY, DEFAULT_CONF, result)
        stale = ResultCache(cache.path, fingerprint="0" * 64)
        stale.put(KEY, DEFAULT_CONF, result)
        assert cache.clear(stale_only=True) == 1
        assert cache.stats().entries == 1
        assert cache.clear() == 1
        assert cache.stats().entries == 0

    def test_default_dir_honors_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        assert default_cache_dir() == tmp_path / "c"


class TestRunCells:
    def test_serves_hits_without_simulating(self, cache):
        first = run_cells([KEY, KEY2], cache=cache)
        assert cache.stores == 2
        warm = ResultCache(cache.path)
        second = run_cells([KEY, KEY2], cache=warm)
        assert warm.hits == 2 and warm.misses == 0 and warm.stores == 0
        assert second == first

    def test_worker_failure_reports_coordinates(self):
        bad = RunKey("atom", "no_such_workload", freq_ghz=1.4)
        with pytest.raises(CellError) as err:
            run_cells([bad])
        assert err.value.key == bad
        assert "no_such_workload" in str(err.value)
        assert "1.4" in str(err.value)

    def test_worker_failure_in_pool_reports_coordinates(self):
        bad = RunKey("xeon", "also_not_a_workload")
        with pytest.raises(CellError) as err:
            run_cells([RunKey("atom", "wordcount", data_per_node_gb=0.25),
                       bad, KEY2], jobs=2)
        assert err.value.key == bad

    def test_duplicates_collapsed(self):
        results = run_cells([KEY, KEY, KEY2])
        assert list(results) == [KEY, KEY2]


class TestCharacterizerIntegration:
    def test_run_uses_disk_cache(self, tmp_path):
        ch1 = Characterizer(cache=ResultCache(tmp_path))
        fresh = ch1.run(KEY)
        ch2 = Characterizer(cache=ResultCache(tmp_path))
        cached = ch2.run(KEY)
        assert cached == fresh
        assert ch2.disk_cache.hits == 1 and ch2.disk_cache.misses == 0

    def test_run_many_matches_run(self, tmp_path):
        ch = Characterizer(cache=ResultCache(tmp_path))
        batch = ch.run_many([KEY, KEY2])
        assert batch == [ch.run(KEY), ch.run(KEY2)]


class TestResolveJobs:
    def test_explicit(self):
        assert resolve_jobs(3) == 3

    def test_zero_means_cpu_count(self):
        assert resolve_jobs(0) >= 1

    def test_none_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5
        monkeypatch.delenv("REPRO_JOBS")
        assert resolve_jobs(None) == 1
        for bad in ("-2", "abc"):
            monkeypatch.setenv("REPRO_JOBS", bad)
            with pytest.raises(ValueError, match="REPRO_JOBS"):
                resolve_jobs(None)
