"""Parent matrices checked for validity, not against a second implementation.

A parent row of source ``s`` is valid when every vertex ``j`` with a closure
entry walks back to ``s`` along ``j <- parents[s, j] <- ...`` within ``n``
steps, every step ``p -> j`` is an edge of the adjacency, and the walk folds
edge by edge to the closure entry: ``D[s, p] ⊗ w(p, j)`` matches ``D[s, j]``
under the tight-edge tolerance (``_tight_rtol``, exact for bool).  Vertices
without a closure entry, and the source itself, have no parent.  Any valid
parent rows pass; which of several optimal paths a row picks is not checked.
"""

from __future__ import annotations

import numpy as np

from repro.graph import sparse as sparse_mod
from repro.linalg import witness as W
from repro.linalg.algebra import get_algebra


def edge_weights(adjacency, algebra, dtype) -> np.ndarray:
    """The dense ``n x n`` weights of a prepared dense or CSR adjacency.

    Cells without an edge hold the algebra's ``zero``; a CSR's stored
    entries are edges whatever their value (a stored 0.0 is a 0-weight edge).
    """
    zero = algebra.zero_like(dtype)
    if not sparse_mod.is_sparse(adjacency):
        return np.asarray(adjacency, dtype=dtype)
    coo = adjacency.tocoo()
    weights = np.full(adjacency.shape, zero, dtype=dtype)
    weights[coo.row, coo.col] = (True if np.dtype(dtype) == np.bool_
                                 else coo.data.astype(dtype))
    return weights


def _tight(candidate, target, dtype) -> np.ndarray:
    if np.dtype(dtype) == np.bool_:
        return candidate & target
    rtol = W._tight_rtol(dtype)
    with np.errstate(invalid="ignore"):
        close = np.isclose(candidate, target, rtol=rtol, atol=rtol)
    return close | (np.isinf(candidate) & np.isinf(target)
                    & (np.sign(candidate) == np.sign(target)))


def assert_valid_parents(parents, distances, adjacency, algebra,
                         sources=None) -> None:
    """Every row of ``parents`` (source ``sources[r]``, default ``r``) is valid.

    ``adjacency`` is the prepared dense matrix or the CSR the closure
    ``distances`` was solved from.
    """
    algebra = get_algebra(algebra)
    distances = np.asarray(distances)
    parents = np.asarray(parents)
    n = distances.shape[0]
    sources = np.arange(n) if sources is None else np.asarray(sources)
    assert parents.shape == (sources.size, n) and parents.dtype == np.int32
    if not n:
        return
    zero = algebra.zero_like(distances.dtype)
    weights = edge_weights(adjacency, algebra, distances.dtype)
    for row, s in zip(parents, sources.tolist()):
        d_row = distances[s]
        reached = d_row != zero
        reached[s] = False
        assert np.all(row[~reached] == W.NO_VERTEX), f"source {s}: stray parent"
        js = np.flatnonzero(reached)
        ps = row[js]
        assert np.all((ps >= 0) & (ps < n) & (ps != js)), f"source {s}: bad parent"
        w = weights[ps, js]
        assert np.all(w != zero), f"source {s}: a parent step is not an edge"
        candidate = algebra.mul(d_row[ps], w)
        assert np.all(_tight(candidate, d_row[js], distances.dtype)), (
            f"source {s}: a parent step does not fold to the closure entry")
        # Every walk reaches the source within n steps.
        walk = np.where(reached, row, s).astype(np.int64)
        walk[s] = s
        for _ in range(int(np.log2(n)) + 2):
            walk = walk[walk]
        assert np.all(walk[js] == s), f"source {s}: a walk does not end at it"


def assert_valid_routes(parents, distances, adjacency, algebra) -> None:
    """:func:`assert_valid_parents` plus one full walk per reachable pair:
    ``reconstruct_path`` ends at the source and its ⊗-fold is the entry."""
    from repro.serve import fold_route
    algebra = get_algebra(algebra)
    assert_valid_parents(parents, distances, adjacency, algebra)
    zero = algebra.zero_like(distances.dtype)
    weights = edge_weights(adjacency, algebra, distances.dtype)
    for s, j in zip(*np.nonzero(distances != zero)):
        path = W.reconstruct_path(parents, int(s), int(j))
        assert path[0] == s and path[-1] == j and len(path) <= distances.shape[0]
        fold = fold_route(weights, path, algebra)
        if distances.dtype == np.bool_:
            assert bool(fold)
        else:
            rtol = W._tight_rtol(distances.dtype) * len(path)
            assert np.isclose(float(fold), float(distances[s, j]),
                              rtol=rtol, atol=rtol) or fold == distances[s, j]
