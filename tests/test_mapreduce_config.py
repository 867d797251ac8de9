"""Unit tests for the Hadoop job configuration."""

from __future__ import annotations

import math

import pytest

from repro.mapreduce.config import DEFAULT_CONF, MB, JobConf


class TestDefaults:
    def test_default_block_size(self):
        assert DEFAULT_CONF.block_size_mb == pytest.approx(128.0)

    def test_default_slots_model_yarn_memory(self):
        assert DEFAULT_CONF.map_slots_per_node == 4

    def test_immutable(self):
        with pytest.raises(Exception):
            DEFAULT_CONF.block_size_bytes = 1


class TestOverrides:
    def test_with_block_size(self):
        conf = DEFAULT_CONF.with_block_size_mb(256)
        assert conf.block_size_bytes == 256 * MB
        assert DEFAULT_CONF.block_size_mb == pytest.approx(128.0)

    def test_override_multiple(self):
        conf = DEFAULT_CONF.override(replication=1, heartbeat_s=0.0)
        assert conf.replication == 1
        assert conf.heartbeat_s == 0.0


class TestValidation:
    @pytest.mark.parametrize("field,value", [
        ("block_size_bytes", 0),
        ("io_sort_bytes", -1),
        ("merge_memory_bytes", 0),
        ("merge_factor", 1),
        ("replication", 0),
        ("chunk_bytes", 0),
        ("heartbeat_s", -0.1),
        ("task_startup_instructions", -1),
        ("job_setup_instructions", -1),
        ("job_cleanup_instructions", -1),
        ("map_slots_per_node", 0),
        ("reduce_slots_per_node", 0),
    ])
    def test_rejects_bad_values(self, field, value):
        with pytest.raises(ValueError):
            DEFAULT_CONF.override(**{field: value})

    @pytest.mark.parametrize("field", [
        "block_size_bytes", "io_sort_bytes", "merge_memory_bytes",
        "chunk_bytes", "heartbeat_s", "retry_backoff_s",
        "speculation_slowdown", "speculation_min_runtime_s",
        "task_startup_instructions", "job_setup_instructions",
        "job_cleanup_instructions"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_rejects_non_finite_values(self, field, value):
        """A NaN block size used to run a job with no reduce phase."""
        with pytest.raises(ValueError, match="finite"):
            DEFAULT_CONF.override(**{field: value})

    def test_none_slots_allowed(self):
        conf = DEFAULT_CONF.override(map_slots_per_node=None,
                                     reduce_slots_per_node=None)
        assert conf.map_slots_per_node is None
