"""Sequential semiring repeated squaring (the non-distributed analogue of Section 4.2)."""

from __future__ import annotations

import numpy as np

from repro.graph.adjacency import validate_adjacency
from repro.linalg.algebra import Semiring, get_algebra
from repro.linalg.semiring import semiring_square, closure_iterations
from repro.sequential.floyd_warshall import with_parents


def repeated_squaring_apsp(adjacency: np.ndarray, *, return_iterations: bool = False,
                           algebra: Semiring | str | None = None,
                           dtype=None, paths: bool = False):
    """Path closure by repeated semiring squaring of the adjacency matrix.

    Performs ``ceil(log2(n - 1))`` squarings, each ``O(n^3)``; asymptotically
    a ``log n`` factor worse than Floyd-Warshall, exactly the trade-off the
    paper discusses for its distributed Repeated Squaring solver.  Under the
    default algebra this is min-plus APSP; other registered algebras (widest
    path, reachability, ...) use the same iteration bound.  With
    ``paths=True`` the parents are derived from the closure and the
    result is ``(distances, parents)`` (prepended to the iteration count
    when ``return_iterations`` is also set).
    """
    resolved = get_algebra(algebra)
    adj = validate_adjacency(adjacency, algebra=resolved, dtype=dtype)
    n = adj.shape[0]
    iterations = closure_iterations(n)
    closure = adj.copy()
    for _ in range(iterations):
        closure = semiring_square(closure, resolved)
    result = with_parents(closure, adj, resolved) if paths else (closure,)
    if return_iterations:
        return (*result, iterations)
    return result if paths else closure
