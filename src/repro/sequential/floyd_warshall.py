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


def _finalize_witnessed(block, prepared: np.ndarray, algebra: Semiring):
    """Extract ``(distances, parents)`` from a solved witnessed matrix.

    Applies the plateau-consistency repair (see
    :func:`repro.linalg.witness.repair_parents`) so the returned predecessor
    matrix is walk-consistent for every source.
    """
    parents, _ = witness_mod.repair_parents(block.values, block.parents,
                                            prepared, algebra)
    return block.values, parents


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
    if not paths:
        return floyd_warshall_inplace(adj, resolved)
    witnessed = witness_mod.witness_matrix(adj, resolved)
    floyd_warshall_inplace(witnessed, resolved)
    return _finalize_witnessed(witnessed, adj, resolved)


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
    if not paths:
        return blocked_floyd_warshall_inplace(adj, block_size, resolved)
    witnessed = witness_mod.witness_matrix(adj, resolved)
    blocked_floyd_warshall_inplace(witnessed, block_size, resolved)
    return _finalize_witnessed(witnessed, adj, resolved)
