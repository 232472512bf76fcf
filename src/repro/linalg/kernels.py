"""Floyd-Warshall kernels: full, rank-1 update, and cache-blocked variants.

These functions correspond to the ``FloydWarshall`` and ``FloydWarshallUpdate``
building blocks in Table 1 of the paper, generalized over a pluggable
:class:`~repro.linalg.algebra.Semiring`.  Under the default (min, +) algebra
they operate on dense distance matrices where ``inf`` encodes "no path" and
the diagonal is expected to be 0; other algebras substitute their own
``zero``/``one``.
"""

from __future__ import annotations

import numpy as np

from repro.common.validation import check_square_matrix
from repro.linalg.algebra import Semiring, get_algebra
from repro.linalg.payload import payload_ops

try:  # SciPy is a hard dependency of the package, but keep the import local.
    from scipy.sparse.csgraph import csgraph_from_dense as _csgraph_from_dense
    from scipy.sparse.csgraph import floyd_warshall as _scipy_floyd_warshall
    _HAVE_SCIPY = True
except Exception:  # pragma: no cover - exercised only without SciPy
    _HAVE_SCIPY = False


def floyd_warshall_inplace(dist: np.ndarray,
                           algebra: Semiring | str | None = None) -> np.ndarray:
    """Run the classic Floyd-Warshall algorithm in place and return ``dist``.

    The k-loop is sequential; the inner two loops are vectorized as a rank-1
    (outer-⊗) update, which is how the paper's 2D decomposition also
    parallelizes the algorithm.

    ``dist`` must already be an ndarray in one of the algebra's supported
    dtypes: a silent conversion would operate on a *copy*, leaving callers
    that rely on in-place mutation with a stale array, so unsupported dtypes
    raise :class:`~repro.common.errors.ValidationError` instead.  Non-array
    inputs (nested lists) are converted — the mutated array is returned.
    """
    algebra = get_algebra(algebra)
    return payload_ops(dist, algebra=algebra).fw_inplace(dist, algebra)


def floyd_warshall(matrix: np.ndarray,
                   algebra: Semiring | str | None = None) -> np.ndarray:
    """Return the closure of ``matrix`` under ``algebra`` without modifying the input."""
    algebra = get_algebra(algebra)
    arr = check_square_matrix(matrix, dtype=None)
    work = np.array(arr, dtype=algebra.result_dtype(arr), copy=True)
    return floyd_warshall_inplace(work, algebra)


def semiring_closure(weights: np.ndarray, algebra: Semiring | str | None = None, *,
                     dtype: str | np.dtype | None = None) -> np.ndarray:
    """Dense reference closure: validate + coerce weights, then Floyd-Warshall.

    This is the ground truth the cross-solver equivalence tests and the
    benchmark verifier compare against: canonical edge weights (non-finite =
    missing edge) are checked against the algebra's precondition, mapped into
    its domain (diagonal = ``one``, missing = ``zero``) and closed.
    """
    algebra = get_algebra(algebra)
    algebra.validate_input(weights)
    prepared = algebra.prepare_adjacency(weights, dtype=dtype)
    return floyd_warshall_inplace(prepared, algebra)


def floyd_warshall_scipy(matrix: np.ndarray) -> np.ndarray:
    """Floyd-Warshall via :func:`scipy.sparse.csgraph.floyd_warshall`.

    This is the paper's "bare metal" sequential solver (SciPy + MKL); it is the
    reference ``T1`` measurement of Section 5.4.  (min, +)-only — SciPy has no
    algebra parameter.  Falls back to the NumPy kernel when SciPy is
    unavailable.
    """
    arr = check_square_matrix(matrix)
    if not _HAVE_SCIPY:  # pragma: no cover
        return floyd_warshall(arr)
    work = arr.copy()
    np.fill_diagonal(work, 0.0)
    # A dense csgraph reads 0 as "no edge"; only non-finite entries are.
    graph = _csgraph_from_dense(work, null_value=np.inf)
    return np.asarray(_scipy_floyd_warshall(graph, directed=True), dtype=np.float64)


def fw_rank1_update(block: np.ndarray, col_i: np.ndarray, row_j: np.ndarray,
                    algebra: Semiring | str | None = None) -> np.ndarray:
    """The ``FloydWarshallUpdate`` building block (Table 1).

    Given block ``A_IJ`` and the slices of the pivot column restricted to the
    block's rows (``col_i = B_Ik``, length = block rows) and columns
    (``row_j = B_Jk``, length = block cols), compute

        ``C = col_i ⊗ 1^T  ⊕ ... `` i.e. the outer-⊗ ``col_i[:, None] ⊗ row_j[None, :]``

    and return ``A_IJ ⊕ C``.  For an undirected graph the pivot row equals
    the pivot column, which is why both arguments can be extracted from the
    same broadcast column.
    """
    algebra = get_algebra(algebra)
    return payload_ops(block, algebra=algebra).rank1(block, col_i, row_j, algebra)


def fw_rank1_update_inplace(block, col_i, row_j,
                            algebra: Semiring | str | None = None) -> np.ndarray:
    """In-place ``FloydWarshallUpdate`` returning the changed-row mask.

    The dynamic-update sibling of :func:`fw_rank1_update`: mutates ``block``
    (dense ndarray or :class:`~repro.linalg.bitset.PackedBlock`) directly
    and reports which
    rows improved, so the caller can invalidate exactly the serving-cache
    rows a batched edge update touched.  Dense blocks must already be in one
    of the algebra's dtypes — a silent conversion would mutate a copy.
    """
    algebra = get_algebra(algebra)
    return payload_ops(block, algebra=algebra).rank1_inplace(
        block, col_i, row_j, algebra)


def blocked_floyd_warshall_inplace(dist: np.ndarray, block_size: int,
                                   algebra: Semiring | str | None = None) -> np.ndarray:
    """Cache-blocked Floyd-Warshall (Venkataraman et al. [23]) on a single array.

    This is the sequential analogue of the paper's Blocked In-Memory /
    Collect-Broadcast solvers: for each diagonal block ``(t, t)`` run
    Floyd-Warshall on the block (phase 1), update row/column blocks of the
    pivot block-row/column (phase 2), and finally all remaining blocks
    (phase 3).  Used for ground-truth testing and the cache-behaviour
    benchmarks of Figure 2.
    """
    algebra = get_algebra(algebra)
    return payload_ops(dist, algebra=algebra).blocked_fw_inplace(
        dist, block_size, algebra)
