"""Tests for the sequential reference solvers (Floyd-Warshall, Dijkstra, Johnson, squaring)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import SolverError, ValidationError
from repro.graph.generators import erdos_renyi_adjacency, path_adjacency, star_adjacency
from repro.sequential import (
    apsp_dijkstra,
    bellman_ford,
    dijkstra_single_source,
    floyd_warshall_blocked,
    floyd_warshall_numpy,
    floyd_warshall_reference,
    johnson_apsp,
    repeated_squaring_apsp,
)
from repro.linalg.kernels import semiring_closure
from repro.sequential.floyd_warshall import reference_closure

ALL_APSP = [
    ("floyd_warshall_reference", floyd_warshall_reference),
    ("floyd_warshall_numpy", floyd_warshall_numpy),
    ("apsp_dijkstra", apsp_dijkstra),
    ("johnson", johnson_apsp),
    ("repeated_squaring", repeated_squaring_apsp),
    ("blocked_fw", lambda adj: floyd_warshall_blocked(adj, min(8, adj.shape[0]))),
]


class TestAllSequentialSolversAgree:
    @pytest.mark.parametrize("name,solver", ALL_APSP, ids=[n for n, _ in ALL_APSP])
    def test_on_er_graph(self, name, solver, small_er_graph, small_er_reference):
        assert np.allclose(solver(small_er_graph), small_er_reference)

    @pytest.mark.parametrize("name,solver", ALL_APSP, ids=[n for n, _ in ALL_APSP])
    def test_on_grid_graph(self, name, solver, grid_graph):
        expected = floyd_warshall_reference(grid_graph)
        assert np.allclose(solver(grid_graph), expected)

    @pytest.mark.parametrize("name,solver", ALL_APSP, ids=[n for n, _ in ALL_APSP])
    def test_on_disconnected_graph(self, name, solver):
        adj = np.full((6, 6), np.inf)
        np.fill_diagonal(adj, 0.0)
        adj[0, 1] = adj[1, 0] = 1.0
        adj[3, 4] = adj[4, 3] = 2.0
        dist = solver(adj)
        assert dist[0, 1] == 1.0
        assert np.isinf(dist[0, 3])
        assert dist[3, 4] == 2.0

    def test_reference_keeps_zero_weight_edges(self):
        """The SciPy oracle reads only non-finite entries as missing edges."""
        inf = np.inf
        adj = np.array([[0.0, 0.0, inf], [0.0, 0.0, 1.0], [inf, 1.0, 0.0]])
        expected = semiring_closure(adj, "shortest-path")
        assert expected[0, 1] == 0.0 and expected[0, 2] == 1.0
        assert np.array_equal(reference_closure(adj), expected)
        assert np.array_equal(floyd_warshall_reference(adj), expected)

    @pytest.mark.parametrize("name,solver", ALL_APSP, ids=[n for n, _ in ALL_APSP])
    def test_single_vertex(self, name, solver):
        adj = np.zeros((1, 1))
        assert solver(adj)[0, 0] == 0.0


class TestDijkstra:
    def test_single_source_path_graph(self):
        adj = path_adjacency(6)
        dist = dijkstra_single_source(adj, 0)
        assert np.array_equal(dist, np.arange(6, dtype=float))

    def test_single_source_star(self):
        dist = dijkstra_single_source(star_adjacency(5), 1)
        assert dist[1] == 0.0 and dist[0] == 1.0 and dist[2] == 2.0

    def test_invalid_source(self):
        with pytest.raises(ValidationError):
            dijkstra_single_source(path_adjacency(4), 9)

    def test_respects_weights(self):
        adj = np.full((3, 3), np.inf)
        np.fill_diagonal(adj, 0.0)
        adj[0, 1] = adj[1, 0] = 10.0
        adj[0, 2] = adj[2, 0] = 1.0
        adj[2, 1] = adj[1, 2] = 1.0
        dist = dijkstra_single_source(adj, 0)
        assert dist[1] == 2.0  # through vertex 2, not the direct edge


class TestBellmanFordAndJohnson:
    def test_bellman_ford_matches_dijkstra_nonnegative(self):
        adj = erdos_renyi_adjacency(20, seed=3)
        assert np.allclose(bellman_ford(adj, 0), dijkstra_single_source(adj, 0))

    def test_bellman_ford_handles_negative_edges(self):
        adj = np.full((3, 3), np.inf)
        np.fill_diagonal(adj, 0.0)
        adj[0, 1] = 5.0
        adj[1, 2] = -2.0
        dist = bellman_ford(adj, 0)
        assert dist[2] == 3.0

    def test_bellman_ford_detects_negative_cycle(self):
        adj = np.full((2, 2), np.inf)
        np.fill_diagonal(adj, 0.0)
        adj[0, 1] = -1.0
        adj[1, 0] = -1.0
        with pytest.raises(SolverError):
            bellman_ford(adj, 0)

    def test_johnson_directed_with_negative_edges(self):
        adj = np.full((4, 4), np.inf)
        np.fill_diagonal(adj, 0.0)
        adj[0, 1] = 2.0
        adj[1, 2] = -1.0
        adj[2, 3] = 3.0
        adj[0, 3] = 10.0
        dist = johnson_apsp(adj)
        assert dist[0, 3] == 4.0
        assert dist[0, 2] == 1.0

    def test_johnson_matches_scipy_on_directed_graph(self):
        rng = np.random.default_rng(0)
        n = 15
        adj = np.full((n, n), np.inf)
        np.fill_diagonal(adj, 0.0)
        mask = rng.random((n, n)) < 0.3
        adj[mask] = rng.uniform(1.0, 5.0, size=mask.sum())
        np.fill_diagonal(adj, 0.0)
        from scipy.sparse.csgraph import floyd_warshall as scipy_fw
        expected = scipy_fw(adj, directed=True)
        assert np.allclose(johnson_apsp(adj), expected)


class TestRepeatedSquaring:
    def test_iteration_count_returned(self):
        adj = erdos_renyi_adjacency(17, seed=4)
        dist, iterations = repeated_squaring_apsp(adj, return_iterations=True)
        assert iterations == 4  # ceil(log2(16))
        assert np.allclose(dist, floyd_warshall_reference(adj))


class TestPropertyInvariants:
    @settings(max_examples=10, deadline=None)
    @given(st.integers(2, 24), st.integers(0, 100_000))
    def test_all_solvers_agree_randomized(self, n, seed):
        adj = erdos_renyi_adjacency(n, seed=seed, p=0.3)
        reference = floyd_warshall_reference(adj)
        for name, solver in ALL_APSP:
            if name == "blocked_fw" and n < 8:
                continue
            assert np.allclose(solver(adj), reference), name

    @settings(max_examples=10, deadline=None)
    @given(st.integers(2, 20), st.integers(0, 100_000))
    def test_distances_bounded_by_direct_edges(self, n, seed):
        adj = erdos_renyi_adjacency(n, seed=seed, p=0.4)
        dist = floyd_warshall_reference(adj)
        assert np.all(dist <= adj + 1e-9)
