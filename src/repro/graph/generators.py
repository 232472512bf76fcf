"""Synthetic graph generators used by the evaluation and the examples.

All generators return dense adjacency matrices in the representation the
solvers expect: ``float64``, ``inf`` for missing edges, ``0`` on the diagonal,
and symmetric (undirected) unless stated otherwise.
"""

from __future__ import annotations

import math

import numpy as np

from repro.common.errors import ValidationError
from repro.common.rng import make_rng
from repro.common.validation import check_positive_int
from repro.linalg.algebra import get_algebra

try:
    import networkx as nx  # noqa: F401 — availability probe for the nx helpers
    _HAVE_NX = True
except Exception:  # pragma: no cover
    _HAVE_NX = False


def paper_edge_probability(n: int, epsilon: float = 0.1) -> float:
    """Edge probability used in the paper: ``p_e = (1 + eps) * ln(n) / n``.

    This is just above the connectivity threshold of the Erdős–Rényi model,
    chosen by the authors so that graphs are (almost surely) connected while
    remaining fast to generate (Section 5.1).
    """
    check_positive_int(n, "n")
    if n == 1:
        return 0.0
    return min(1.0, (1.0 + epsilon) * math.log(n) / n)


def _empty_adjacency(n: int) -> np.ndarray:
    adj = np.full((n, n), np.inf, dtype=np.float64)
    np.fill_diagonal(adj, 0.0)
    return adj


def erdos_renyi_adjacency(n: int, *, p: float | None = None, epsilon: float = 0.1,
                          weighted: bool = True, weight_low: float = 1.0,
                          weight_high: float = 10.0,
                          seed: int | np.random.Generator | None = 0) -> np.ndarray:
    """Generate the adjacency matrix of an undirected Erdős–Rényi graph G(n, p).

    Parameters
    ----------
    p:
        Edge probability; defaults to the paper's
        ``(1 + epsilon) * ln(n) / n`` when omitted.
    weighted:
        When true edge weights are drawn uniformly from
        ``[weight_low, weight_high)``; otherwise all edges have weight 1.
    """
    check_positive_int(n, "n")
    if p is None:
        p = paper_edge_probability(n, epsilon)
    if not (0.0 <= p <= 1.0):
        raise ValidationError(f"edge probability must be in [0, 1], got {p}")
    if weighted and weight_low <= 0:
        raise ValidationError("weight_low must be positive for weighted graphs")
    if weighted and weight_high < weight_low:
        raise ValidationError("weight_high must be >= weight_low")
    rng = make_rng(seed)
    adj = _empty_adjacency(n)
    if n == 1 or p == 0.0:
        return adj
    # Sample only the strict upper triangle and mirror it.
    iu = np.triu_indices(n, k=1)
    mask = rng.random(iu[0].shape[0]) < p
    if weighted:
        weights = rng.uniform(weight_low, weight_high, size=iu[0].shape[0])
    else:
        weights = np.ones(iu[0].shape[0], dtype=np.float64)
    values = np.where(mask, weights, np.inf)
    adj[iu] = values
    adj[(iu[1], iu[0])] = values
    return adj


def directed_erdos_renyi_adjacency(n: int, *, p: float | None = None,
                                   epsilon: float = 0.1, weighted: bool = True,
                                   weight_low: float = 1.0,
                                   weight_high: float = 10.0,
                                   acyclic: bool = False,
                                   seed: int | np.random.Generator | None = 0
                                   ) -> np.ndarray:
    """Generate the adjacency matrix of a *directed* Erdős–Rényi graph.

    Every ordered off-diagonal pair ``(u, v)`` gets an independent edge with
    probability ``p`` (default: the paper's ``(1 + epsilon) * ln(n) / n``),
    so ``A`` is asymmetric with overwhelming probability — the input shape
    the ``layout="full"`` block grid exists for.  With ``acyclic=True`` only
    pairs ``u < v`` are sampled, yielding a DAG (topologically ordered by
    vertex id) suitable for the longest-path algebra.
    """
    check_positive_int(n, "n")
    if p is None:
        p = paper_edge_probability(n, epsilon)
    if not (0.0 <= p <= 1.0):
        raise ValidationError(f"edge probability must be in [0, 1], got {p}")
    if weighted and weight_low <= 0:
        raise ValidationError("weight_low must be positive for weighted graphs")
    if weighted and weight_high < weight_low:
        raise ValidationError("weight_high must be >= weight_low")
    rng = make_rng(seed)
    adj = _empty_adjacency(n)
    if n == 1 or p == 0.0:
        return adj
    mask = rng.random((n, n)) < p
    np.fill_diagonal(mask, False)
    if acyclic:
        mask &= np.triu(np.ones((n, n), dtype=bool), k=1)
    if weighted:
        weights = rng.uniform(weight_low, weight_high, size=(n, n))
    else:
        weights = np.ones((n, n), dtype=np.float64)
    adj[mask] = weights[mask]
    return adj


def graph_domain(algebra, *, directed: bool = False) -> str:
    """The input-graph domain an algebra (and orientation) requires.

    Single source of truth for graph generation *and* any graph cache keyed
    by it, so the two can never disagree.  The longest-path algebra
    always needs a DAG; other algebras get a symmetric or directed variant
    of their weight domain.
    """
    name = get_algebra(algebra).name
    if name == "longest-path":
        return "dag"
    domain = "unit-interval" if name == "most-reliable" else "weighted"
    return f"{domain}-directed" if directed else domain


def graph_for_algebra(n: int, seed: int, algebra="shortest-path", *,
                      directed: bool = False) -> np.ndarray:
    """Generate an Erdős–Rényi input graph respecting the algebra's domain.

    Most algebras accept the standard weighted input; the (max, ×)
    ``most-reliable`` algebra needs edge weights in ``[0, 1]``; the
    longest-path algebra needs a DAG (always directed).  ``directed=True``
    samples each ordered pair independently, giving the asymmetric inputs
    the ``layout="full"`` grid stores.
    """
    domain = graph_domain(algebra, directed=directed)
    if domain == "dag":
        return directed_erdos_renyi_adjacency(n, seed=seed, acyclic=True)
    weights = ({"weight_low": 0.05, "weight_high": 0.95}
               if domain.startswith("unit-interval") else {})
    if domain.endswith("-directed"):
        return directed_erdos_renyi_adjacency(n, seed=seed, **weights)
    return erdos_renyi_adjacency(n, seed=seed, **weights)


def erdos_renyi_graph(n: int, **kwargs):
    """Generate an Erdős–Rényi graph as a :class:`networkx.Graph`.

    Convenience wrapper over :func:`erdos_renyi_adjacency` for the examples.
    """
    if not _HAVE_NX:  # pragma: no cover
        raise ImportError("networkx is required for erdos_renyi_graph")
    from repro.graph.adjacency import to_networkx
    return to_networkx(erdos_renyi_adjacency(n, **kwargs))


def random_geometric_adjacency(n: int, *, radius: float | None = None, dim: int = 2,
                               seed: int | np.random.Generator | None = 0) -> np.ndarray:
    """Random geometric graph: points uniform in the unit cube, edges below ``radius``.

    Edge weights are Euclidean distances, which is exactly the neighborhood
    graph used by manifold-learning pipelines (Isomap) that motivate the
    paper; the APSP distances then approximate geodesic distances.
    """
    check_positive_int(n, "n")
    check_positive_int(dim, "dim")
    rng = make_rng(seed)
    if radius is None:
        # Choose a radius that keeps the expected degree around 2 * ln(n) so the
        # graph is connected with high probability.
        target_degree = max(4.0, 2.0 * math.log(max(n, 2)))
        radius = float((target_degree / max(n - 1, 1)) ** (1.0 / dim))
    points = rng.random((n, dim))
    diff = points[:, None, :] - points[None, :, :]
    dists = np.sqrt((diff ** 2).sum(axis=2))
    adj = np.where(dists <= radius, dists, np.inf)
    np.fill_diagonal(adj, 0.0)
    return np.asarray(adj, dtype=np.float64)


def grid_adjacency(rows: int, cols: int, *, weight: float = 1.0) -> np.ndarray:
    """2-D grid graph with ``rows * cols`` vertices and 4-neighbour connectivity."""
    check_positive_int(rows, "rows")
    check_positive_int(cols, "cols")
    n = rows * cols
    adj = _empty_adjacency(n)

    def vid(r: int, c: int) -> int:
        """Map 2-D grid coordinates to a vertex id."""
        return r * cols + c

    for r in range(rows):
        for c in range(cols):
            if c + 1 < cols:
                a, b = vid(r, c), vid(r, c + 1)
                adj[a, b] = adj[b, a] = weight
            if r + 1 < rows:
                a, b = vid(r, c), vid(r + 1, c)
                adj[a, b] = adj[b, a] = weight
    return adj


def path_adjacency(n: int, *, weight: float = 1.0) -> np.ndarray:
    """Path graph 0 - 1 - ... - (n-1); distances are trivially checkable."""
    check_positive_int(n, "n")
    adj = _empty_adjacency(n)
    for i in range(n - 1):
        adj[i, i + 1] = adj[i + 1, i] = weight
    return adj


def complete_adjacency(n: int, *, weight: float = 1.0,
                       seed: int | np.random.Generator | None = None) -> np.ndarray:
    """Complete graph; random uniform weights in (0, weight] when a seed is given."""
    check_positive_int(n, "n")
    adj = _empty_adjacency(n)
    if n == 1:
        return adj
    iu = np.triu_indices(n, k=1)
    if seed is None:
        values = np.full(iu[0].shape[0], weight, dtype=np.float64)
    else:
        rng = make_rng(seed)
        values = rng.uniform(weight / 2.0, weight, size=iu[0].shape[0])
    adj[iu] = values
    adj[(iu[1], iu[0])] = values
    return adj


def star_adjacency(n: int, *, weight: float = 1.0) -> np.ndarray:
    """Star graph with vertex 0 at the center."""
    check_positive_int(n, "n")
    adj = _empty_adjacency(n)
    for i in range(1, n):
        adj[0, i] = adj[i, 0] = weight
    return adj
