"""Sequential Floyd-Warshall variants (algebra-parameterized)."""

from __future__ import annotations

import numpy as np

from repro.graph.adjacency import validate_adjacency
from repro.graph.sparse import is_sparse, sparse_to_dense
from repro.linalg import witness as witness_mod
from repro.linalg.algebra import Semiring, get_algebra
from repro.linalg.kernels import (
    floyd_warshall_inplace,
    floyd_warshall_scipy,
    blocked_floyd_warshall_inplace,
    semiring_closure,
)


def floyd_warshall_reference(adjacency: np.ndarray) -> np.ndarray:
    """SciPy-backed Floyd-Warshall — the paper's ``T1`` sequential baseline.

    This is the solver the paper calls "efficient sequential Floyd-Warshall as
    implemented in SciPy" (Section 5.4).  (min, +)/float64 only — use
    :func:`floyd_warshall_numpy` for other algebras.
    """
    adj = validate_adjacency(adjacency)
    return floyd_warshall_scipy(adj)


def reference_closure(adjacency: np.ndarray, algebra="shortest-path",
                      dtype: str | None = None) -> np.ndarray:
    """The sequential ground-truth closure for an (algebra, dtype) pair.

    The (min, +)/float64 case uses the fast SciPy reference; everything else
    goes through the dense generic closure.  Both are dense oracles: a CSR
    (what a CSR-ingested ``engine.closure.adjacency`` stays) is expanded here.
    """
    if is_sparse(adjacency):
        adjacency = sparse_to_dense(adjacency, algebra=algebra)
    if get_algebra(algebra).name == "shortest-path" and dtype in (None, "float64"):
        return floyd_warshall_reference(adjacency)
    return semiring_closure(adjacency, algebra, dtype=dtype)


def verify_tolerances(dtype: str | None) -> dict:
    """Keyword tolerances for comparing a result of ``dtype`` to its reference.

    float32 accumulates rounding in a solver-dependent order and needs a
    loose gate; float64 (and bool) keep the strict ``np.allclose`` defaults.
    """
    return {"rtol": 1e-4, "atol": 1e-6} if dtype == "float32" else {}


def with_parents(distances: np.ndarray, prepared: np.ndarray,
                 algebra: Semiring):
    """``(distances, parents)``: a closure and its derived predecessor matrix.

    ``prepared`` is the adjacency the closure was solved from; the parents
    come from :func:`repro.linalg.witness.derive_parents`, as after every
    ``paths=True`` solve.
    """
    witness_mod.require_witness(algebra, "paths=True")
    edges = witness_mod.CsrEdges.of(prepared, algebra, distances.dtype)
    return distances, witness_mod.derive_parents(distances, edges, algebra)


def floyd_warshall_numpy(adjacency: np.ndarray, *,
                         algebra: Semiring | str | None = None,
                         dtype=None, paths: bool = False):
    """Pure NumPy Floyd-Warshall (vectorized rank-1 updates per pivot).

    Generic over the path algebra: pass ``algebra="widest-path"`` (etc.) to
    compute the closure under a different semiring, and ``dtype="float32"``
    to halve memory traffic.  The DAG-only ``longest-path`` algebra is
    supported here (inputs need not be symmetric), unlike in the distributed
    solvers.  With ``paths=True`` returns ``(distances, parents)`` where
    ``parents`` is the predecessor matrix of
    :func:`repro.linalg.witness.reconstruct_path`.
    """
    resolved = get_algebra(algebra)
    adj = validate_adjacency(adjacency, algebra=resolved, dtype=dtype)
    closure = floyd_warshall_inplace(adj.copy() if paths else adj, resolved)
    return with_parents(closure, adj, resolved) if paths else closure


def floyd_warshall_blocked(adjacency: np.ndarray, block_size: int, *,
                           algebra: Semiring | str | None = None,
                           dtype=None, paths: bool = False):
    """Cache-blocked Floyd-Warshall of Venkataraman et al. on a single machine.

    This is the sequential analogue of the Blocked In-Memory / Blocked
    Collect-Broadcast distributed solvers, useful both as ground truth and for
    the single-block benchmarks of Figure 2.  Generic over the path algebra.
    With ``paths=True`` returns ``(distances, parents)``.
    """
    resolved = get_algebra(algebra)
    adj = validate_adjacency(adjacency, algebra=resolved, dtype=dtype)
    closure = blocked_floyd_warshall_inplace(adj.copy() if paths else adj,
                                             block_size, resolved)
    return with_parents(closure, adj, resolved) if paths else closure
