"""Unit and property tests for HDFS block splitting."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from repro.hdfs.blocks import MB, PAPER_BLOCK_SIZES_MB, Block, split_input


class TestBlock:
    def test_block_id(self):
        assert Block("f", 3, 100).block_id == "f#3"

    def test_locality(self):
        block = Block("f", 0, 100, ("n0", "n1"))
        assert block.is_local_to("n0")
        assert not block.is_local_to("n2")

    def test_with_replicas(self):
        block = Block("f", 0, 100).with_replicas(["a", "b"])
        assert block.replicas == ("a", "b")

    def test_validation(self):
        with pytest.raises(ValueError):
            Block("f", -1, 100)
        with pytest.raises(ValueError):
            Block("f", 0, -5)


class TestSplitInput:
    def test_paper_block_sizes(self):
        assert PAPER_BLOCK_SIZES_MB == (32, 64, 128, 256, 512)

    def test_exact_division(self):
        blocks = split_input("f", 4 * 64 * MB, 64 * MB)
        assert len(blocks) == 4
        assert all(b.size_bytes == 64 * MB for b in blocks)

    def test_tail_block_short(self):
        blocks = split_input("f", 100 * MB, 64 * MB)
        assert len(blocks) == 2
        assert blocks[-1].size_bytes == pytest.approx(36 * MB)

    def test_empty_input(self):
        assert split_input("f", 0, 64 * MB) == []

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            split_input("f", -1, 64 * MB)
        with pytest.raises(ValueError):
            split_input("f", 100, 0)

    @pytest.mark.parametrize("total, block", [
        (math.nan, 64 * MB), (100, math.nan), (100, math.inf)])
    def test_non_finite_sizes_rejected(self, total, block):
        """A NaN size used to split into no blocks, or into one NaN
        block.  (An infinite input would split forever; the runner
        refuses it before it gets here.)"""
        with pytest.raises(ValueError, match="finite"):
            split_input("f", total, block)

    @given(st.floats(min_value=1, max_value=1e12),
           st.sampled_from(PAPER_BLOCK_SIZES_MB))
    def test_paper_law_num_maps(self, total, block_mb):
        """num_maps = ceil(input / block size) — §3.1.1."""
        blocks = split_input("f", total, block_mb * MB)
        assert len(blocks) == math.ceil(total / (block_mb * MB))

    @given(st.floats(min_value=1, max_value=1e11),
           st.floats(min_value=1e7, max_value=1e9))
    def test_sizes_conserve_total(self, total, block_size):
        blocks = split_input("f", total, block_size)
        assert sum(b.size_bytes for b in blocks) == pytest.approx(total)

    @given(st.floats(min_value=1, max_value=1e11),
           st.floats(min_value=1e7, max_value=1e9))
    def test_indices_sequential(self, total, block_size):
        blocks = split_input("f", total, block_size)
        assert [b.index for b in blocks] == list(range(len(blocks)))

    @given(st.floats(min_value=1, max_value=1e11),
           st.floats(min_value=1e7, max_value=1e9))
    def test_only_tail_may_be_short(self, total, block_size):
        blocks = split_input("f", total, block_size)
        for block in blocks[:-1]:
            assert block.size_bytes == pytest.approx(block_size)
