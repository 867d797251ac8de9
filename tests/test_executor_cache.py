"""Cache correctness: fresh vs cached results, invalidation, failures.

The persistent cache must be invisible except for speed — a cached cell
must equal a freshly simulated one field-for-field, the cache must go
cold when the model fingerprint changes, and a failing cell must report
its coordinates rather than a bare worker traceback.
"""

from __future__ import annotations

import pickle
from pathlib import Path

import pytest

from repro.analysis import executor
from repro.analysis.executor import (CACHE_FORMAT, MEMORY_ENTRIES, CellError,
                                     ResultCache, cache_key,
                                     default_cache_dir, model_fingerprint,
                                     resolve_jobs, run_cells)
from repro.core.characterization import Characterizer, RunKey, simulate_cell
from repro.mapreduce.config import DEFAULT_CONF

#: Small cells keep these tests fast; determinism does not depend on size.
KEY = RunKey("atom", "wordcount", data_per_node_gb=0.25)
KEY2 = RunKey("xeon", "wordcount", freq_ghz=1.2, data_per_node_gb=0.25)


@pytest.fixture()
def cache(tmp_path) -> ResultCache:
    return ResultCache(tmp_path)


def _entry_path(cache: ResultCache, key: RunKey) -> Path:
    """Where *cache* stores *key* under the default conf."""
    return Path(cache._entry(cache_key(key)))


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

    def test_key_bytes_are_pinned(self):
        # Entries on disk are addressed by these digests: a change to how
        # the key is built must keep every byte, or it orphans every
        # existing cache.
        assert cache_key(KEY) == (
            "7cd248c1cebbd419b393056c37bf63371d427e46beb315bab995cf23c314b9a3")
        assert cache_key(KEY, DEFAULT_CONF.override(replication=2)) == (
            "184996e50a769e10b2643a61b2ac9a9ed665f64244ce0b45211bd1b1db0091d5")
        assert cache_key(RunKey("xeon", "terasort", freq_ghz=1.2,
                                cores_per_node=4)) == (
            "60c32dabb6d6ca856e3f75fbca23f584944d47a4ba53374f1b8601ff58e9cad1")

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
        entry = _entry_path(cache, KEY)
        entry.write_bytes(b"not a pickle")
        assert cache.get(KEY) is None
        assert not entry.exists()  # dropped, will be re-simulated
        assert cache.corrupt == 1 and cache.misses == 1

    def test_wrong_type_pickle_is_dropped(self, cache):
        # A readable pickle that is not a JobResult (foreign writer,
        # stale schema) must never masquerade as a cell result.
        entry = _entry_path(cache, KEY)
        entry.parent.mkdir(parents=True, exist_ok=True)
        entry.write_bytes(pickle.dumps({"execution_time_s": 1.0}))
        assert cache.get(KEY) is None
        assert not entry.exists()
        assert cache.corrupt == 1

    def test_corrupt_entry_is_rewritten_on_next_put(self, cache):
        fresh = simulate_cell(KEY)
        entry = _entry_path(cache, KEY)
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

    def test_stats_and_clear_judge_service_shards_by_fingerprint(
            self, tmp_path):
        # The service shares a cache root but files its entries one
        # level deeper, under <root>/shard-XX/<fingerprint>/.
        from repro.serve.service import ShardedResultCache
        result = simulate_cell(KEY)
        key_hex = cache_key(KEY)
        ShardedResultCache(str(tmp_path), shards=2).put(
            key_hex, KEY, DEFAULT_CONF, result)
        ResultCache(tmp_path / "shard-00", fingerprint="0" * 64).put(
            KEY, DEFAULT_CONF, result)
        cache = ResultCache(tmp_path)
        stats = cache.stats()
        assert (stats.entries, stats.stale_entries) == (1, 1)
        assert cache.clear(stale_only=True) == 1
        assert cache.stats().entries == 1
        fresh = ShardedResultCache(str(tmp_path), shards=2)
        assert fresh.get(key_hex, KEY, DEFAULT_CONF) == result
        assert cache.clear() == 1
        assert cache.stats().entries == 0

    def test_default_dir_honors_env(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "c"))
        assert default_cache_dir() == tmp_path / "c"


class TestMemoryTier:
    """The in-process tier inside :meth:`ResultCache.get`."""

    def test_disk_hit_fills_tier_and_tier_hit_counts(self, cache):
        fresh = simulate_cell(KEY)
        cache.put(KEY, DEFAULT_CONF, fresh)
        first = cache.get(KEY)
        _entry_path(cache, KEY).unlink()      # only the tier can answer now
        assert cache.get(KEY) is first
        assert first == fresh
        assert cache.hits == 2 and cache.misses == 0

    def test_misses_puts_and_corrupt_entries_are_never_kept(self, cache):
        assert cache.get(KEY) is None
        cache.put(KEY, DEFAULT_CONF, simulate_cell(KEY))
        assert cache._memory == {}
        _entry_path(cache, KEY).write_bytes(b"not a pickle")
        assert cache.get(KEY) is None
        assert cache._memory == {}
        assert cache.misses == 2 and cache.corrupt == 1

    def test_tier_never_exceeds_its_bound(self, tmp_path):
        assert ResultCache(tmp_path).memory_entries == MEMORY_ENTRIES
        with pytest.raises(ValueError, match="memory_entries"):
            ResultCache(tmp_path, memory_entries=0)
        cache = ResultCache(tmp_path, memory_entries=2)
        result = simulate_cell(KEY)
        keys = [RunKey("atom", "wordcount", freq_ghz=f, data_per_node_gb=0.25)
                for f in (1.2, 1.4, 1.6, 1.8)]
        for key in keys:
            cache.put(key, DEFAULT_CONF, result)
            assert cache.get(key) is not None
            assert len(cache._memory) <= 2
        # Oldest-inserted goes first: the last two cells remain.
        assert list(cache._memory) == [cache_key(k) for k in keys[2:]]
        assert cache.hits == 4

    def test_clear_empties_the_tier(self, cache):
        cache.put(KEY, DEFAULT_CONF, simulate_cell(KEY))
        assert cache.get(KEY) is not None and cache._memory
        assert cache.clear() == 1
        assert cache._memory == {}
        assert cache.get(KEY) is None

    def test_run_cells_hashes_each_cell_once(self, cache, monkeypatch):
        calls = []

        def counting(key, conf=DEFAULT_CONF):
            calls.append(key)
            return cache_key(key, conf)

        monkeypatch.setattr(executor, "cache_key", counting)
        run_cells([KEY, KEY2], cache=cache)             # get + put per cell
        assert calls == [KEY, KEY2]
        run_cells([KEY, KEY2], cache=ResultCache(cache.path))   # warm
        assert calls == [KEY, KEY2] * 2


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
