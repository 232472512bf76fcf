"""Tests for the 2D block decomposition."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ValidationError
from repro.graph.generators import erdos_renyi_adjacency
from repro.linalg.blocks import (
    BlockGrid,
    all_block_ids,
    block_range,
    block_shape,
    blocks_to_matrix,
    matrix_to_blocks,
    num_blocks,
    upper_triangular_block_ids,
)


class TestGeometry:
    @pytest.mark.parametrize("n,b,q", [(16, 4, 4), (17, 4, 5), (16, 16, 1), (5, 2, 3), (1, 1, 1)])
    def test_num_blocks(self, n, b, q):
        assert num_blocks(n, b) == q

    def test_block_range_interior_and_edge(self):
        assert block_range(0, 4, 10) == slice(0, 4)
        assert block_range(2, 4, 10) == slice(8, 10)

    def test_block_range_out_of_bounds(self):
        with pytest.raises(ValidationError):
            block_range(3, 4, 10)

    def test_block_shape_edge_block(self):
        assert block_shape((2, 2), 4, 10) == (2, 2)
        assert block_shape((0, 2), 4, 10) == (4, 2)

    def test_upper_triangular_ids_count(self):
        ids = list(upper_triangular_block_ids(4))
        assert len(ids) == 10
        assert all(i <= j for i, j in ids)

    def test_all_ids_count(self):
        assert len(list(all_block_ids(4))) == 16


class TestRoundTrip:
    @pytest.mark.parametrize("n,b", [(12, 4), (13, 4), (16, 16), (7, 3), (20, 1)])
    def test_upper_only_round_trip_symmetric(self, n, b):
        adj = erdos_renyi_adjacency(n, seed=n + b)
        blocks = list(matrix_to_blocks(adj, b, layout="triangular"))
        rebuilt = blocks_to_matrix(blocks, n, b, layout="triangular")
        assert np.array_equal(rebuilt, adj)

    def test_full_round_trip(self):
        adj = erdos_renyi_adjacency(10, seed=3)
        blocks = list(matrix_to_blocks(adj, 3, layout="full"))
        rebuilt = blocks_to_matrix(blocks, 10, 3, layout="full")
        assert np.array_equal(rebuilt, adj)

    def test_upper_only_produces_upper_keys(self):
        adj = erdos_renyi_adjacency(12, seed=4)
        keys = [key for key, _ in matrix_to_blocks(adj, 4, layout="triangular")]
        assert all(i <= j for i, j in keys)
        assert len(keys) == 6

    def test_blocks_are_copies(self):
        adj = erdos_renyi_adjacency(8, seed=5)
        blocks = dict(matrix_to_blocks(adj, 4))
        blocks[(0, 0)][0, 1] = -99.0
        assert adj[0, 1] != -99.0

    def test_wrong_block_shape_rejected(self):
        with pytest.raises(ValidationError):
            blocks_to_matrix([((0, 0), np.zeros((2, 2)))], n=8, block_size=4)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 30), st.integers(1, 10), st.integers(0, 100_000))
    def test_property_round_trip(self, n, b, seed):
        b = min(b, n)
        adj = erdos_renyi_adjacency(n, seed=seed, p=0.3)
        rebuilt = blocks_to_matrix(matrix_to_blocks(adj, b), n, b)
        assert np.array_equal(rebuilt, adj)


class TestBlockRecords:
    def test_from_matrix_and_back(self):
        adj = erdos_renyi_adjacency(14, seed=6)
        assert num_blocks(14, 4) == 4
        assert np.array_equal(blocks_to_matrix(matrix_to_blocks(adj, 4), 14, 4), adj)

    def test_lower_triangle_is_the_stored_mirror_transposed(self):
        adj = erdos_renyi_adjacency(12, seed=7)
        blocks = dict(matrix_to_blocks(adj, 4))
        key, transposed = BlockGrid(3).locate(2, 0)
        assert (key, transposed) == ((0, 2), True)
        assert np.array_equal(blocks[key].T, adj[8:12, 0:4])

    def test_records_are_writable_copies(self):
        adj = erdos_renyi_adjacency(12, seed=7)
        block = dict(matrix_to_blocks(adj, 4))[(0, 2)]
        assert block.flags.writeable  # mutating the stored block is intended
        assert not np.shares_memory(block, adj)

    def test_float32_blocks_preserved(self):
        adj = erdos_renyi_adjacency(8, seed=13).astype(np.float32)
        blocks = list(matrix_to_blocks(adj, 4))
        assert all(b.dtype == np.float32 for _, b in blocks)
        assert blocks_to_matrix(blocks, 8, 4).dtype == np.float32

    def test_assembly_shape_check(self):
        blocks = dict(matrix_to_blocks(erdos_renyi_adjacency(8, seed=9), 4))
        blocks[(0, 0)] = np.zeros((2, 2))
        with pytest.raises(ValidationError):
            blocks_to_matrix(blocks.items(), 8, 4)
