"""Tests for adjacency construction, conversion and I/O."""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.graph.adjacency import (
    adjacency_from_edges,
    adjacency_from_networkx,
    knn_adjacency,
    num_reachable_pairs,
    to_networkx,
    validate_adjacency,
)
from repro.graph.generators import erdos_renyi_adjacency, path_adjacency
from repro.graph.io import load_graph, load_matrix, save_edge_list, save_matrix
from repro.graph.sparse import sparse_to_dense


class TestAdjacencyFromEdges:
    def test_basic_undirected(self):
        adj = adjacency_from_edges(3, [(0, 1, 2.0), (1, 2)])
        assert adj[0, 1] == 2.0 and adj[1, 0] == 2.0
        assert adj[1, 2] == 1.0
        assert np.isinf(adj[0, 2])

    def test_directed(self):
        adj = adjacency_from_edges(3, [(0, 1, 2.0)], directed=True)
        assert adj[0, 1] == 2.0
        assert np.isinf(adj[1, 0])

    def test_parallel_edges_keep_minimum(self):
        adj = adjacency_from_edges(2, [(0, 1, 5.0), (0, 1, 2.0)])
        assert adj[0, 1] == 2.0

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(ValidationError):
            adjacency_from_edges(2, [(0, 5)])

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            adjacency_from_edges(2, [(0, 1, -1.0)])

    def test_malformed_edge_rejected(self):
        with pytest.raises(ValidationError):
            adjacency_from_edges(3, [(0, 1, 2.0, 9.0)])


class TestNetworkxConversion:
    def test_round_trip(self):
        adj = erdos_renyi_adjacency(20, seed=1)
        graph = to_networkx(adj)
        back = adjacency_from_networkx(graph)
        assert np.array_equal(adj, back)

    def test_edge_weights_preserved(self):
        adj = path_adjacency(4, weight=3.5)
        graph = to_networkx(adj)
        assert graph[0][1]["weight"] == 3.5


class TestKnnAdjacency:
    def test_each_vertex_has_at_least_k_neighbors(self):
        rng = np.random.default_rng(0)
        points = rng.random((30, 3))
        adj = knn_adjacency(points, k=4)
        degrees = (np.isfinite(adj) & (adj > 0)).sum(axis=1)
        assert np.all(degrees >= 4)

    def test_symmetric(self):
        rng = np.random.default_rng(1)
        adj = knn_adjacency(rng.random((20, 2)), k=3)
        assert np.allclose(np.where(np.isfinite(adj), adj, -1),
                           np.where(np.isfinite(adj.T), adj.T, -1))

    def test_weights_are_euclidean_distances(self):
        points = np.array([[0.0, 0.0], [3.0, 4.0], [6.0, 8.0]])
        adj = knn_adjacency(points, k=1)
        assert adj[0, 1] == pytest.approx(5.0)

    def test_k_too_large_rejected(self):
        with pytest.raises(ValidationError):
            knn_adjacency(np.zeros((3, 2)), k=3)

    def test_non_2d_points_rejected(self):
        with pytest.raises(ValidationError):
            knn_adjacency(np.zeros(5), k=1)


class TestValidateAdjacency:
    def test_fills_diagonal(self):
        adj = np.array([[5.0, 1.0], [1.0, 5.0]])
        out = validate_adjacency(adj)
        assert np.allclose(np.diag(out), 0.0)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            validate_adjacency(np.array([[0.0, -1.0], [-1.0, 0.0]]))

    def test_asymmetric_rejected_when_required(self):
        adj = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValidationError):
            validate_adjacency(adj, require_symmetric=True)

    def test_asymmetric_allowed_by_default(self):
        adj = np.array([[0.0, 1.0], [2.0, 0.0]])
        validate_adjacency(adj)


class TestReachablePairs:
    def test_counts_ordered_pairs(self):
        dist = np.array([[0.0, 1.0, np.inf],
                         [1.0, 0.0, np.inf],
                         [np.inf, np.inf, 0.0]])
        assert num_reachable_pairs(dist) == 2

    def test_complete_graph(self):
        dist = np.zeros((4, 4))
        assert num_reachable_pairs(dist) == 12


class TestIo:
    def test_edge_list_round_trip(self, tmp_path):
        adj = erdos_renyi_adjacency(25, seed=2)
        path = tmp_path / "graph.txt"
        count = save_edge_list(adj, path)
        assert count == np.isfinite(adj[np.triu_indices(25, 1)]).sum()
        graph = load_graph(path)
        assert not graph.directed
        loaded = sparse_to_dense(graph.adjacency)
        assert np.allclose(np.where(np.isfinite(adj), adj, -1),
                           np.where(np.isfinite(loaded), loaded, -1))

    def test_edge_list_directed_round_trip(self, tmp_path):
        adj = np.full((3, 3), np.inf)
        np.fill_diagonal(adj, 0.0)
        adj[0, 1] = 2.0
        path = tmp_path / "digraph.txt"
        save_edge_list(adj, path, directed=True)
        graph = load_graph(path)
        assert graph.directed
        loaded = sparse_to_dense(graph.adjacency)
        assert loaded[0, 1] == 2.0
        assert np.isinf(loaded[1, 0])

    def test_matrix_round_trip(self, tmp_path):
        adj = erdos_renyi_adjacency(10, seed=3)
        path = tmp_path / "matrix.npy"
        save_matrix(adj, path)
        assert np.array_equal(load_matrix(path), adj)

    def test_malformed_edge_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 2.0 3\n")
        with pytest.raises(ValidationError):
            load_graph(path)
