"""Tests for the Floyd-Warshall kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ValidationError
from repro.graph.generators import erdos_renyi_adjacency, grid_adjacency, path_adjacency
from repro.linalg.kernels import (
    blocked_floyd_warshall_inplace,
    floyd_warshall,
    floyd_warshall_inplace,
    floyd_warshall_scipy,
    fw_rank1_update,
)
from repro.linalg.semiring import minplus_product, semiring_relax


class TestFloydWarshall:
    def test_path_graph_distances(self):
        dist = floyd_warshall(path_adjacency(6))
        for i in range(6):
            for j in range(6):
                assert dist[i, j] == abs(i - j)

    def test_grid_graph_distances_are_manhattan(self):
        rows, cols = 3, 4
        dist = floyd_warshall(grid_adjacency(rows, cols))
        for a in range(rows * cols):
            for b in range(rows * cols):
                ra, ca = divmod(a, cols)
                rb, cb = divmod(b, cols)
                assert dist[a, b] == abs(ra - rb) + abs(ca - cb)

    def test_matches_scipy(self):
        adj = erdos_renyi_adjacency(40, seed=1)
        assert np.allclose(floyd_warshall(adj), floyd_warshall_scipy(adj))

    def test_disconnected_pairs_stay_infinite(self):
        adj = np.full((4, 4), np.inf)
        np.fill_diagonal(adj, 0.0)
        adj[0, 1] = adj[1, 0] = 1.0
        dist = floyd_warshall(adj)
        assert np.isinf(dist[0, 2])
        assert dist[0, 1] == 1.0

    def test_input_not_modified(self):
        adj = erdos_renyi_adjacency(10, seed=2)
        before = adj.copy()
        floyd_warshall(adj)
        assert np.array_equal(adj, before)

    def test_inplace_modifies_argument(self):
        adj = path_adjacency(5)
        out = floyd_warshall_inplace(adj)
        assert out is adj
        assert adj[0, 4] == 4.0

    def test_inplace_rejects_non_native_dtype(self):
        # Regression: np.asarray(int_array, float64) re-allocates, so the
        # caller's array was left stale while a hidden copy got mutated.
        adj = np.zeros((4, 4), dtype=np.int32)
        with pytest.raises(ValidationError):
            floyd_warshall_inplace(adj)

    def test_inplace_mutates_float32_in_place(self):
        adj = path_adjacency(5).astype(np.float32)
        out = floyd_warshall_inplace(adj)
        assert out is adj
        assert adj.dtype == np.float32
        assert adj[0, 4] == 4.0

    def test_inplace_mutates_noncontiguous_view_in_place(self):
        big = np.full((8, 8), np.inf)
        np.fill_diagonal(big, 0.0)
        big[1:6, 1:6] = path_adjacency(5)
        view = big[1:6, 1:6]
        out = floyd_warshall_inplace(view)
        assert out.base is big
        assert big[1, 5] == 4.0

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            floyd_warshall_inplace(np.zeros((2, 3)))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 20), st.integers(0, 100_000))
    def test_property_triangle_inequality(self, n, seed):
        adj = erdos_renyi_adjacency(n, seed=seed, p=0.4)
        dist = floyd_warshall(adj)
        # d(i,j) <= d(i,k) + d(k,j) for all triples (sampled densely for small n).
        for k in range(n):
            candidate = dist[:, k, None] + dist[None, k, :]
            assert np.all(dist <= candidate + 1e-9)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 20), st.integers(0, 100_000))
    def test_property_idempotent(self, n, seed):
        adj = erdos_renyi_adjacency(n, seed=seed, p=0.3)
        once = floyd_warshall(adj)
        twice = floyd_warshall(once)
        assert np.allclose(once, twice)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(2, 16), st.integers(0, 100_000))
    def test_property_symmetric_input_symmetric_output(self, n, seed):
        adj = erdos_renyi_adjacency(n, seed=seed, p=0.35)
        dist = floyd_warshall(adj)
        assert np.allclose(dist, dist.T)


class TestRank1Update:
    def test_matches_definition(self):
        rng = np.random.default_rng(3)
        block = rng.uniform(1, 10, (4, 5))
        col = rng.uniform(1, 10, 4)
        row = rng.uniform(1, 10, 5)
        out = fw_rank1_update(block, col, row)
        expected = np.minimum(block, col[:, None] + row[None, :])
        assert np.allclose(out, expected)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            fw_rank1_update(np.zeros((3, 3)), np.zeros(2), np.zeros(3))

    def test_inf_pivot_is_noop(self):
        block = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = fw_rank1_update(block, np.full(2, np.inf), np.full(2, np.inf))
        assert np.array_equal(out, block)

    def test_full_fw_via_rank1_updates(self):
        # Applying the rank-1 update for every pivot reproduces Floyd-Warshall.
        adj = erdos_renyi_adjacency(16, seed=4)
        dist = adj.copy()
        for k in range(16):
            dist = fw_rank1_update(dist, dist[:, k], dist[k, :])
        assert np.allclose(dist, floyd_warshall(adj))


class TestMinPlusThenMin:
    def test_never_increases(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(1, 10, (6, 6))
        b = rng.uniform(1, 10, (6, 6))
        out = semiring_relax(a, a, b)
        assert np.all(out <= a + 1e-12)

    def test_equals_min_of_product_and_block(self):
        rng = np.random.default_rng(6)
        a = rng.uniform(1, 10, (5, 5))
        b = rng.uniform(1, 10, (5, 5))
        assert np.allclose(semiring_relax(a, a, b),
                           np.minimum(a, minplus_product(a, b)))


class TestBlockedFloydWarshall:
    @pytest.mark.parametrize("n,b", [(12, 3), (16, 4), (20, 7), (15, 15), (9, 4)])
    def test_matches_unblocked(self, n, b):
        adj = erdos_renyi_adjacency(n, seed=n * 31 + b)
        expected = floyd_warshall(adj)
        out = blocked_floyd_warshall_inplace(adj.copy(), b)
        assert np.allclose(out, expected)

    def test_block_size_one(self):
        adj = erdos_renyi_adjacency(8, seed=9)
        assert np.allclose(blocked_floyd_warshall_inplace(adj.copy(), 1),
                           floyd_warshall(adj))

    def test_block_larger_than_n_rejected(self):
        with pytest.raises(ValidationError):
            blocked_floyd_warshall_inplace(np.zeros((4, 4)), 8)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(4, 24), st.integers(1, 8), st.integers(0, 100_000))
    def test_property_block_size_invariance(self, n, b, seed):
        b = min(b, n)
        adj = erdos_renyi_adjacency(n, seed=seed, p=0.3)
        assert np.allclose(blocked_floyd_warshall_inplace(adj.copy(), b),
                           floyd_warshall(adj))
