"""Graph substrate: synthetic generators, adjacency matrices, and I/O.

The paper's evaluation uses Erdős–Rényi graphs with edge probability
``p_e = (1 + eps) * ln(n) / n`` (Section 5.1).  Beyond that, this package
provides the workloads the paper's introduction motivates — neighborhood
graphs over high-dimensional point clouds (Isomap / manifold learning) and
weighted network graphs — so the example applications exercise realistic
inputs.
"""

from repro.graph.generators import (
    erdos_renyi_adjacency,
    directed_erdos_renyi_adjacency,
    paper_edge_probability,
    erdos_renyi_graph,
    random_geometric_adjacency,
    grid_adjacency,
    path_adjacency,
    complete_adjacency,
    star_adjacency,
)
from repro.graph.adjacency import (
    adjacency_from_edges,
    adjacency_from_networkx,
    to_networkx,
    knn_adjacency,
    is_symmetric_adjacency,
    validate_adjacency,
    num_reachable_pairs,
)
from repro.graph.io import (LoadedGraph, save_edge_list,
                            save_matrix, load_matrix, save_sparse_npz,
                            load_sparse_npz, load_graph, load_external_edges,
                            load_mtx, convert_graph)
from repro.graph.sparse import (erdos_renyi_sparse, grid_sparse, is_sparse,
                                knn_sparse, random_geometric_sparse,
                                sparse_to_blocks, sparse_to_dense,
                                validate_sparse_adjacency)

__all__ = [
    "erdos_renyi_sparse",
    "grid_sparse",
    "knn_sparse",
    "random_geometric_sparse",
    "is_sparse",
    "sparse_to_blocks",
    "sparse_to_dense",
    "validate_sparse_adjacency",
    "save_sparse_npz",
    "load_sparse_npz",
    "erdos_renyi_adjacency",
    "directed_erdos_renyi_adjacency",
    "paper_edge_probability",
    "erdos_renyi_graph",
    "random_geometric_adjacency",
    "grid_adjacency",
    "path_adjacency",
    "complete_adjacency",
    "star_adjacency",
    "adjacency_from_edges",
    "adjacency_from_networkx",
    "to_networkx",
    "knn_adjacency",
    "is_symmetric_adjacency",
    "validate_adjacency",
    "num_reachable_pairs",
    "save_edge_list",
    "save_matrix",
    "load_matrix",
    "LoadedGraph",
    "load_graph",
    "load_external_edges",
    "load_mtx",
    "convert_graph",
]
