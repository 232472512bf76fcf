"""Adjacency-matrix construction and conversion utilities."""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.common.errors import ValidationError
from repro.common.validation import check_positive_int, check_square_matrix

try:
    import networkx as nx
    _HAVE_NX = True
except Exception:  # pragma: no cover
    _HAVE_NX = False


def adjacency_from_edges(n: int, edges: Iterable[tuple[int, int] | tuple[int, int, float]],
                         *, directed: bool = False, default_weight: float = 1.0) -> np.ndarray:
    """Build a dense adjacency matrix from an edge list.

    Each edge is ``(u, v)`` or ``(u, v, weight)``.  Parallel edges keep the
    minimum weight, matching shortest-path semantics.
    """
    check_positive_int(n, "n")
    adj = np.full((n, n), np.inf, dtype=np.float64)
    np.fill_diagonal(adj, 0.0)
    for edge in edges:
        if len(edge) == 2:
            u, v = edge  # type: ignore[misc]
            w = default_weight
        elif len(edge) == 3:
            u, v, w = edge  # type: ignore[misc]
        else:
            raise ValidationError(f"edge must have 2 or 3 elements, got {edge!r}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValidationError(f"edge ({u}, {v}) out of range for n={n}")
        if w < 0:
            raise ValidationError("negative edge weights are not supported")
        adj[u, v] = min(adj[u, v], float(w))
        if not directed:
            adj[v, u] = min(adj[v, u], float(w))
    return adj


def adjacency_from_networkx(graph, *, weight: str = "weight",
                            default_weight: float = 1.0) -> np.ndarray:
    """Convert a networkx graph to the dense inf-padded adjacency representation.

    Vertices are relabelled to 0..n-1 in sorted order of the original labels.
    """
    if not _HAVE_NX:  # pragma: no cover
        raise ImportError("networkx is required")
    nodes = sorted(graph.nodes())
    index = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    edges = []
    for u, v, data in graph.edges(data=True):
        w = float(data.get(weight, default_weight))
        edges.append((index[u], index[v], w))
    return adjacency_from_edges(max(n, 1), edges, directed=graph.is_directed())


def to_networkx(adjacency: np.ndarray, *, directed: bool = False):
    """Convert a dense adjacency matrix back to a networkx graph."""
    if not _HAVE_NX:  # pragma: no cover
        raise ImportError("networkx is required")
    arr = check_square_matrix(adjacency)
    n = arr.shape[0]
    graph = nx.DiGraph() if directed else nx.Graph()
    graph.add_nodes_from(range(n))
    rows, cols = np.nonzero(np.isfinite(arr) & (arr > 0))
    for u, v in zip(rows.tolist(), cols.tolist()):
        if not directed and u > v:
            continue
        graph.add_edge(u, v, weight=float(arr[u, v]))
    return graph


def knn_adjacency(points: np.ndarray, k: int, *, symmetrize: bool = True) -> np.ndarray:
    """k-nearest-neighbour graph over a point cloud, weighted by Euclidean distance.

    This is the Isomap-style neighborhood graph from the paper's motivation
    (Section 1): APSP over this graph approximates geodesic distances on the
    underlying manifold.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValidationError("points must be a 2-D array (n_points, n_dims)")
    n = pts.shape[0]
    check_positive_int(k, "k")
    if k >= n:
        raise ValidationError(f"k ({k}) must be smaller than the number of points ({n})")
    diff = pts[:, None, :] - pts[None, :, :]
    dists = np.sqrt((diff ** 2).sum(axis=2))
    np.fill_diagonal(dists, np.inf)
    adj = np.full((n, n), np.inf, dtype=np.float64)
    neighbor_idx = np.argsort(dists, axis=1)[:, :k]
    rows = np.repeat(np.arange(n), k)
    cols = neighbor_idx.reshape(-1)
    adj[rows, cols] = dists[rows, cols]
    if symmetrize:
        adj = np.minimum(adj, adj.T)
    np.fill_diagonal(adj, 0.0)
    return adj


def is_symmetric_adjacency(adjacency) -> bool:
    """True when the adjacency is symmetric (dense or SciPy sparse).

    This is the sniff behind ``layout="auto"``: a symmetric input keeps the
    mirrored upper-triangular block storage, an asymmetric one forces the
    full grid.  Non-finite cells compare equal to each other (two ``inf``
    entries both mean "no edge"), matching the tolerance used by
    ``validate_adjacency(require_symmetric=True)``.  An exactly symmetric
    array (the usual input) is settled by one equality pass; only one
    that is not pays for the tolerance rule, so the answer is the rule's
    on every input.
    """
    from repro.graph import sparse as sparse_mod
    if sparse_mod.is_sparse(adjacency):
        return (adjacency != adjacency.T).nnz == 0
    arr = np.asarray(adjacency)
    if np.array_equal(arr, arr.T):
        return True
    if arr.dtype == np.bool_:
        return False
    a, at = arr, arr.T
    both_inf = np.isinf(a) & np.isinf(at)
    return bool((np.isclose(a, at) | both_inf).all())


def validate_adjacency(adjacency: np.ndarray, *, require_symmetric: bool = False,
                       algebra=None, dtype=None,
                       allow_sparse: bool = False) -> np.ndarray:
    """Validate and normalize an adjacency matrix for a path algebra.

    With the default ``algebra=None`` this is the historical (min, +)
    behaviour: a float64 matrix with non-negative weights and a zero
    diagonal.  With an algebra (name or
    :class:`~repro.linalg.algebra.Semiring`) the input is checked against the
    algebra's own weight precondition (its input-validator hook), mapped into
    its domain (missing edges become the algebra's ``zero``, the diagonal its
    ``one``) and cast to the resolved ``dtype``.

    With ``allow_sparse=True`` (the distributed solvers' ``prepare`` path —
    the callers whose block construction understands CSR) SciPy sparse
    inputs are validated *without densifying* and returned as a canonical
    CSR matrix (see :func:`repro.graph.sparse.validate_sparse_adjacency`).
    Callers that need a dense matrix keep the default and get a fail-fast
    :class:`~repro.common.errors.ValidationError` for sparse input instead
    of an obscure crash downstream.
    """
    from repro.linalg.algebra import get_algebra
    from repro.graph import sparse as sparse_mod
    if sparse_mod.is_sparse(adjacency):
        if not allow_sparse:
            raise ValidationError(
                "this solver requires a dense adjacency matrix; densify the "
                "sparse input with repro.graph.sparse_to_dense(...) or solve "
                "it with a distributed solver via APSPEngine/solve_apsp")
        return sparse_mod.validate_sparse_adjacency(
            adjacency, require_symmetric=require_symmetric,
            algebra=algebra, dtype=dtype)
    resolved = get_algebra(algebra)
    arr = check_square_matrix(adjacency, "adjacency",
                              dtype=np.float64 if algebra is None and dtype is None
                              else None)
    resolved.validate_input(arr, "adjacency")
    if require_symmetric and not is_symmetric_adjacency(arr):
        raise ValidationError("adjacency must be symmetric for undirected solvers")
    return resolved.prepare_adjacency(arr, dtype=dtype)


def num_reachable_pairs(distances: np.ndarray) -> int:
    """Count ordered pairs (i, j), i != j, with a finite shortest-path distance."""
    arr = check_square_matrix(distances, "distances")
    finite = np.isfinite(arr)
    np.fill_diagonal(finite, False)
    return int(finite.sum())
