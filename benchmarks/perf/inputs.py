"""Seeded inputs and independent oracles for the perf harness.

Everything here is numpy/scipy only and imports nothing from ``repro``: a
later change to ``repro.graph`` or ``repro.bench`` cannot alter a workload,
and a bug in the program cannot hide in its own reference.  ``--seed`` is the
only input; the program sees only the arrays and files generated here.

Graphs are *canonical weight matrices*: float64, ``inf`` = no edge, 0 on the
diagonal — the external representation every algebra of the program accepts.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import (breadth_first_order, connected_components,
                                  minimum_spanning_tree, shortest_path)


def rng_for(seed: int, stream: int) -> np.random.Generator:
    """Independent generator per (seed, stream) so inputs do not share draws."""
    return np.random.default_rng([int(seed), int(stream)])


# ---------------------------------------------------------------------------
# Graphs
# ---------------------------------------------------------------------------
def paper_edge_probability(n: int, epsilon: float = 0.1) -> float:
    """The paper's Erdős–Rényi density, just above the connectivity threshold."""
    return min(1.0, (1.0 + epsilon) * math.log(max(n, 2)) / n)


def erdos_renyi(n: int, rng: np.random.Generator, *, directed: bool = False,
                low: float = 1.0, high: float = 10.0) -> np.ndarray:
    """ER graph with the paper's p_e and uniform weights in ``[low, high)``."""
    p = paper_edge_probability(n)
    adj = np.full((n, n), np.inf)
    if directed:
        mask = rng.random((n, n)) < p
        adj[mask] = rng.uniform(low, high, size=int(mask.sum()))
    else:
        iu = np.triu_indices(n, k=1)
        keep = rng.random(iu[0].size) < p
        u, v = iu[0][keep], iu[1][keep]
        w = rng.uniform(low, high, size=u.size)
        adj[u, v] = w
        adj[v, u] = w
    np.fill_diagonal(adj, 0.0)
    return adj


class GeometricGraph:
    """2-D random geometric graph: points, edge list (u < v) and Euclid weights."""

    def __init__(self, n: int, rng: np.random.Generator) -> None:
        self.n = n
        self.points = rng.random((n, 2))
        radius = math.sqrt(2.0 * math.log(max(n, 2)) / (math.pi * n))
        delta = self.points[:, None, :] - self.points[None, :, :]
        self.euclid = np.sqrt((delta ** 2).sum(axis=2))
        u, v = np.nonzero(np.triu(self.euclid <= radius, k=1))
        self.u, self.v, self.w = u, v, self.euclid[u, v]

    def dense(self) -> np.ndarray:
        """The canonical weight matrix of the graph."""
        return dense_from_edges(self.n, self.u, self.v, self.w)


def dense_from_edges(n: int, u, v, w) -> np.ndarray:
    """Canonical symmetric weight matrix from an undirected edge list."""
    adj = np.full((n, n), np.inf)
    adj[u, v] = w
    adj[v, u] = w
    np.fill_diagonal(adj, 0.0)
    return adj


def write_mtx(path, n: int, u, v, w, *, repeat: int = 1) -> int:
    """Write a symmetric coordinate-real MatrixMarket file; returns entry count.

    Weights are written with ``repr`` so they round-trip exactly.  ``repeat``
    writes every entry that many times (duplicates are legal and must collapse
    to the same graph) — the ladder uses it to get a file large enough to time.
    """
    u, v, w = np.asarray(u), np.asarray(v), np.asarray(w)
    lines = [f"{int(b) + 1} {int(a) + 1} {float(x)!r}\n"
             for a, b, x in zip(u.tolist(), v.tolist(), w.tolist())]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("%%MatrixMarket matrix coordinate real symmetric\n")
        fh.write(f"{n} {n} {len(lines) * repeat}\n")
        for _ in range(repeat):
            fh.writelines(lines)
    return len(lines) * repeat


# ---------------------------------------------------------------------------
# Query and update streams
# ---------------------------------------------------------------------------
def zipf_queries(n: int, count: int, rng: np.random.Generator,
                 a: float = 1.3) -> list[tuple[int, int]]:
    """Route queries: sources Zipf(a) mod n (hot rows), destinations uniform."""
    src = (rng.zipf(a, count) - 1) % n
    dst = rng.integers(0, n, count)
    return list(zip(src.tolist(), dst.tolist()))


def improving_batches(graph: GeometricGraph, rng: np.random.Generator,
                      batches: int, edges: int) -> list[list[tuple[int, int, float]]]:
    """Shortcut edges at half the Euclidean length of their endpoints.

    Every path in a geometric graph (shortcuts included) is at least half the
    straight line long, so each shortcut is an improvement (or, with
    probability zero, a tie) whatever was applied before it.
    """
    out = []
    for _ in range(batches):
        batch = []
        while len(batch) < edges:
            a, b = (int(x) for x in rng.integers(0, graph.n, 2))
            if a != b:
                batch.append((a, b, 0.5 * float(graph.euclid[a, b])))
        out.append(batch)
    return out


def deletion_batch(graph: GeometricGraph, improving, edges: int,
                   share: float = 1.0 / 32) -> list[tuple[int, int, None]]:
    """Delete the ``edges`` edges that each carry closest to ``share`` of the rows.

    A row is touched by deleting (u, v) exactly when its best route into v
    arrives over u→v or its best route into u over v→u.  Over random edges
    that count is heavy-tailed (2 to 320 of 768 rows here), and past a quarter
    of all rows the program abandons its restricted recompute for a full
    re-solve: a random batch lands on either side of that threshold by seed
    (0.7–1.7 s, ±60 MB).  So the batch is chosen, from the harness's own
    distances on the graph as it stands after the ``improving`` batches, to
    touch the same share of rows on every seed and stay on the restricted path.
    """
    adj = graph.dense()
    for batch in improving:
        apply_batch(adj, batch)
    dist = oracle_shortest(adj)
    u, v = graph.u, graph.v
    weight = adj[u, v]
    touched = (np.isclose(dist[:, u] + weight, dist[:, v], rtol=1e-12, atol=0.0)
               | np.isclose(dist[:, v] + weight, dist[:, u], rtol=1e-12, atol=0.0)
               ).sum(axis=0)
    picks = np.argsort(np.abs(touched - share * graph.n), kind="stable")[:edges]
    return [(int(u[i]), int(v[i]), None) for i in picks]


def apply_batch(adj: np.ndarray, batch) -> None:
    """Apply an undirected update batch to a canonical weight matrix in place."""
    for a, b, w in batch:
        adj[a, b] = adj[b, a] = np.inf if w is None else w


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------
def _csr(adj: np.ndarray) -> csr_matrix:
    mask = np.isfinite(adj)
    np.fill_diagonal(mask, False)
    rows, cols = np.nonzero(mask)
    return csr_matrix((adj[rows, cols], (rows, cols)), shape=adj.shape)


def oracle_shortest(adj: np.ndarray, *, directed: bool = False) -> np.ndarray:
    """Min-plus closure by per-source Dijkstra (scipy csgraph)."""
    return shortest_path(_csr(adj), method="D", directed=directed)


def oracle_widest(adj: np.ndarray) -> np.ndarray:
    """Max-min closure of an undirected graph via its maximum spanning forest.

    The widest u-v path is the tree path of the maximum spanning tree, so the
    closure is filled vertex by vertex in BFS order:
    ``W[v, seen] = min(W[parent, seen], w(parent, v))``.  Diagonal = ``inf``
    (the algebra's one), other components = 0 (its zero).
    """
    n = adj.shape[0]
    forest = minimum_spanning_tree(-_csr(adj))
    forest = (forest + forest.T).tocsr()
    wide = np.zeros((n, n))
    np.fill_diagonal(wide, np.inf)
    done = np.zeros(n, dtype=bool)
    for root in range(n):
        if done[root]:
            continue
        order, pred = breadth_first_order(forest, root, directed=False)
        seen = [root]
        for v in order[1:].tolist():
            p = int(pred[v])
            row = np.minimum(wide[p, seen], -forest[p, v])
            wide[v, seen] = row
            wide[seen, v] = row
            seen.append(v)
        done[order] = True
    return wide


def oracle_reachable(adj: np.ndarray) -> np.ndarray:
    """Boolean closure of an undirected graph from its component labels."""
    _, labels = connected_components(_csr(adj), directed=False)
    return labels[:, None] == labels[None, :]


def closure_loop(adj: np.ndarray, add, mul, zero, one) -> np.ndarray:
    """The plain k-loop semiring closure; O(n³), so only for small n (tests)."""
    d = np.where(np.isfinite(adj), adj, zero).astype(float)
    np.fill_diagonal(d, one)
    for k in range(d.shape[0]):
        d = add(d, mul(d[:, k, None], d[None, k, :]))
    return d


# ---------------------------------------------------------------------------
# Checks (program output vs oracle)
# ---------------------------------------------------------------------------
def tolerance(dtype) -> float:
    """Relative tolerance the algebra documents for the dtype."""
    return 1e-9 if np.dtype(dtype).itemsize >= 8 else 1e-4


def same_closure(got: np.ndarray, want: np.ndarray) -> bool:
    """Whole-matrix agreement within the dtype's tolerance (exact for bool)."""
    got = np.asarray(got)
    if got.shape != want.shape:
        return False
    if got.dtype == np.bool_:
        return bool(np.array_equal(got, want))
    return bool(np.allclose(got, want, rtol=tolerance(got.dtype), atol=0.0))


def parents_are_tight(parents: np.ndarray, adj: np.ndarray,
                      want: np.ndarray) -> bool:
    """Every predecessor is a tight edge of the oracle's shortest-path DAG.

    ``want[i, p] + adj[p, j] == want[i, j]`` for reachable ``i != j``, ``-1``
    elsewhere.  Weights are >= 1, so tight pointers cannot cycle: walking
    them reaches the source along an optimal path.
    """
    n = adj.shape[0]
    rows = np.arange(n)[:, None]
    need = np.isfinite(want) & ~np.eye(n, dtype=bool)
    if np.any(parents[~need] != -1) or np.any(parents[need] < 0):
        return False
    p = np.where(need, parents, 0)
    via = want[rows, p] + adj[p, np.arange(n)[None, :]]
    return bool(np.allclose(via[need], want[need], rtol=1e-9, atol=0.0))


def route_is_right(src: int, dst: int, path, distance, adj: np.ndarray,
                   want: np.ndarray) -> bool:
    """Path edges exist in ``adj`` and fold to the oracle distance.

    The program accepts a predecessor edge as tight within 1e-9 relative
    (float64), so a path of h hops may fold up to h·1e-9 above the optimum on
    a near-tie; the reported distance itself is held to 1e-9.
    """
    target = want[src, dst]
    if not np.isfinite(target):
        return path is None
    if path is None or path[0] != src or path[-1] != dst:
        return False
    hops = np.asarray(path)
    folded = float(adj[hops[:-1], hops[1:]].sum()) if len(path) > 1 else 0.0
    return (math.isclose(folded, target, rel_tol=1e-9 * max(1, len(path) - 1),
                         abs_tol=1e-12)
            and math.isclose(float(distance), target, rel_tol=1e-9, abs_tol=1e-12))
