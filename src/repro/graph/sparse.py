"""Sparse (CSR) adjacency ingestion: blocks are cut straight from CSR.

The historical ingestion path materializes every graph — however sparse — as
a dense ``n x n`` matrix on the driver before the first block is cut.  For
the near-threshold Erdős–Rényi graphs the paper evaluates
(``p_e ≈ ln(n) / n``, so ``nnz ≈ n ln n``), that dense staging dominates
driver memory long before the solve starts.  This module keeps the input in
Compressed Sparse Row form end to end:

* :func:`erdos_renyi_sparse` samples G(n, p) directly into CSR by geometric
  index skipping over the upper triangle — O(nnz) work and memory, no
  ``n x n`` Bernoulli matrix; :func:`random_geometric_sparse`,
  :func:`grid_sparse` and :func:`knn_sparse` are the CSR twins of the
  remaining dense generators (k-d tree range/nearest queries replace the
  dense pairwise-distance matrices);
* :func:`validate_sparse_adjacency` is the CSR counterpart of
  :func:`repro.graph.adjacency.validate_adjacency` (squareness, the
  algebra's weight precondition, symmetry), returning a canonical CSR that a
  :class:`~repro.core.base.SolvePlan` carries *instead of* a dense matrix;
* :func:`sparse_to_blocks` groups the stored entries by block id in one
  O(nnz) pass and emits each ``((I, J), block)`` record individually —
  dense ndarray or packed bitset per the storage policy — so peak driver
  memory during block construction is O(nnz + b²), never O(n²).

CSR semantics: a *stored* entry is an edge (its value the weight; any value
for the boolean algebra), an *unstored* cell is "no edge" (the algebra's
``zero``); the diagonal of the closure is forced to the algebra's ``one``
exactly as the dense preparation does.  Explicitly stored non-finite values
are treated as missing edges and pruned during validation.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.common.errors import ValidationError
from repro.common.rng import make_rng
from repro.common.validation import check_block_size, check_positive_int
from repro.linalg.algebra import Semiring, get_algebra, validate_dag_weights
from repro.linalg.blocks import BlockGrid, BlockId, block_shape, num_blocks
from repro.linalg.payload import storage_ops

try:  # SciPy is a hard dependency of the package, but keep the import local.
    import scipy.sparse as _sp
    _HAVE_SCIPY = True
except Exception:  # pragma: no cover - exercised only without SciPy
    _sp = None
    _HAVE_SCIPY = False


def is_sparse(obj) -> bool:
    """True when ``obj`` is a SciPy sparse matrix/array."""
    return _HAVE_SCIPY and _sp.issparse(obj)


def _require_scipy() -> None:
    if not _HAVE_SCIPY:  # pragma: no cover - scipy ships with the package
        raise ImportError("scipy is required for sparse adjacency support")


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------
def _sample_upper_triangle(n: int, p: float, rng) -> np.ndarray:
    """Sample strict-upper-triangle linear indices of G(n, p) in O(nnz).

    Geometric skipping: successive gaps between present pairs are
    Geometric(p), so only the ~``p * n(n-1)/2`` hits are ever touched —
    never the full Bernoulli triangle.
    """
    total = n * (n - 1) // 2
    if total == 0 or p <= 0.0:
        return np.empty(0, dtype=np.int64)
    if p >= 1.0:
        return np.arange(total, dtype=np.int64)
    chunks = []
    pos = np.int64(-1)
    # Draw skip batches sized to the expected remaining hit count.
    batch = max(1024, int(total * p * 1.1) + 16)
    while pos < total:
        steps = rng.geometric(p, size=batch)
        positions = pos + np.cumsum(steps, dtype=np.int64)
        chunks.append(positions[positions < total])
        pos = positions[-1]
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)


def _linear_to_pairs(idx: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Map strict-upper-triangle linear indices to ``(i, j)`` with ``i < j``.

    Row ``i`` owns ``n - 1 - i`` consecutive indices; the row boundary table
    has only ``n`` entries, so the inversion is a searchsorted, not algebra
    on 64-bit squares.
    """
    counts = np.arange(n - 1, 0, -1, dtype=np.int64)      # pairs per row
    offsets = np.concatenate(([0], np.cumsum(counts)))     # row start indices
    i = np.searchsorted(offsets, idx, side="right") - 1
    j = idx - offsets[i] + i + 1
    return i.astype(np.int64), j.astype(np.int64)


def erdos_renyi_sparse(n: int, *, p: float | None = None, epsilon: float = 0.1,
                       weighted: bool = True, weight_low: float = 1.0,
                       weight_high: float = 10.0,
                       seed: int | np.random.Generator | None = 0,
                       dtype: str | np.dtype | None = None):
    """Generate an undirected G(n, p) adjacency directly as a CSR matrix.

    The sparse twin of
    :func:`repro.graph.generators.erdos_renyi_adjacency`: same parameter
    surface and paper edge probability, but O(nnz) time and memory — no
    dense ``n x n`` array is ever allocated.  ``dtype="bool"`` produces a
    boolean structure-only graph for the reachability algebra.
    """
    _require_scipy()
    from repro.graph.generators import paper_edge_probability
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
    idx = _sample_upper_triangle(n, float(p), rng)
    i, j = _linear_to_pairs(idx, n)
    dt = np.dtype(dtype) if dtype is not None else np.dtype(np.float64)
    if dt == np.bool_:
        data = np.ones(idx.shape[0], dtype=bool)
    elif weighted:
        data = rng.uniform(weight_low, weight_high, size=idx.shape[0]).astype(dt)
    else:
        data = np.ones(idx.shape[0], dtype=dt)
    rows = np.concatenate([i, j])
    cols = np.concatenate([j, i])
    values = np.concatenate([data, data])
    out = _sp.coo_matrix((values, (rows, cols)), shape=(n, n)).tocsr()
    out.sort_indices()
    return out


def _symmetric_csr(i: np.ndarray, j: np.ndarray, values: np.ndarray, n: int):
    """Build a symmetric CSR from one orientation of each undirected edge."""
    rows = np.concatenate([i, j])
    cols = np.concatenate([j, i])
    data = np.concatenate([values, values])
    out = _sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    out.sort_indices()
    return out


def random_geometric_sparse(n: int, *, radius: float | None = None, dim: int = 2,
                            seed: int | np.random.Generator | None = 0):
    """Random geometric graph directly as CSR: the sparse twin of
    :func:`repro.graph.generators.random_geometric_adjacency`.

    Same point cloud and radius policy as the dense generator (identical
    graph for an identical seed), but neighbour pairs come from a k-d tree
    range query instead of the dense ``n x n`` pairwise-distance matrix, so
    time and memory are O(n log n + nnz).
    """
    _require_scipy()
    import math
    from scipy.spatial import cKDTree
    check_positive_int(n, "n")
    check_positive_int(dim, "dim")
    rng = make_rng(seed)
    if radius is None:
        # Same policy as the dense twin: expected degree around 2 ln(n).
        target_degree = max(4.0, 2.0 * math.log(max(n, 2)))
        radius = float((target_degree / max(n - 1, 1)) ** (1.0 / dim))
    points = rng.random((n, dim))
    pairs = cKDTree(points).query_pairs(float(radius), output_type="ndarray")
    i = pairs[:, 0].astype(np.int64)
    j = pairs[:, 1].astype(np.int64)
    values = np.sqrt(((points[i] - points[j]) ** 2).sum(axis=1))
    return _symmetric_csr(i, j, values, n)


def grid_sparse(rows: int, cols: int, *, weight: float = 1.0):
    """2-D grid graph directly as CSR: the sparse twin of
    :func:`repro.graph.generators.grid_adjacency`.

    4-neighbour connectivity built from vectorized index arithmetic —
    O(nnz) with no Python-level loop over cells and no dense matrix.
    """
    _require_scipy()
    check_positive_int(rows, "rows")
    check_positive_int(cols, "cols")
    n = rows * cols
    vid = np.arange(n, dtype=np.int64).reshape(rows, cols)
    horiz_a = vid[:, :-1].reshape(-1)
    horiz_b = vid[:, 1:].reshape(-1)
    vert_a = vid[:-1, :].reshape(-1)
    vert_b = vid[1:, :].reshape(-1)
    i = np.concatenate([horiz_a, vert_a])
    j = np.concatenate([horiz_b, vert_b])
    values = np.full(i.shape[0], float(weight), dtype=np.float64)
    return _symmetric_csr(i, j, values, n)


def knn_sparse(points: np.ndarray, k: int, *, symmetrize: bool = True):
    """k-nearest-neighbour graph directly as CSR: the sparse twin of
    :func:`repro.graph.adjacency.knn_adjacency`.

    Neighbours come from a k-d tree query (``k + 1`` hits per point, the
    self-match dropped) rather than the dense pairwise-distance matrix.
    ``symmetrize=True`` keeps an edge when *either* endpoint selected the
    other — since both orientations carry the same Euclidean distance,
    that is an elementwise maximum against the transpose in CSR land
    (the unstored mirror is an implicit zero, and distances are >= 0).
    """
    _require_scipy()
    from scipy.spatial import cKDTree
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValidationError("points must be a 2-D array (n_points, n_dims)")
    n = pts.shape[0]
    check_positive_int(k, "k")
    if k >= n:
        raise ValidationError(f"k ({k}) must be smaller than the number of points ({n})")
    dists, idx = cKDTree(pts).query(pts, k=k + 1)
    # Drop each row's self-match; with duplicated points the self hit may not
    # sit in column 0, so a stable sort on the self mask keeps the k nearest
    # non-self neighbours in distance order.
    self_mask = idx == np.arange(n)[:, None]
    order = np.argsort(self_mask, axis=1, kind="stable")[:, :k]
    take = np.arange(n)[:, None]
    i = np.repeat(np.arange(n, dtype=np.int64), k)
    j = idx[take, order].reshape(-1).astype(np.int64)
    values = dists[take, order].reshape(-1)
    out = _sp.coo_matrix((values, (i, j)), shape=(n, n)).tocsr()
    if symmetrize:
        out = out.maximum(out.T).tocsr()
    out.sort_indices()
    return out


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------
def validate_sparse_adjacency(adjacency, *, require_symmetric: bool = False,
                              algebra: Semiring | str | None = None,
                              dtype: str | np.dtype | None = None):
    """Validate and canonicalize a SciPy sparse adjacency matrix.

    The CSR counterpart of :func:`repro.graph.adjacency.validate_adjacency`:
    checks squareness, runs the algebra's weight precondition over the stored
    values, optionally checks symmetry, prunes explicitly stored non-finite
    entries (they mean "no edge"), and casts the values to the resolved
    dtype.  Returns a canonical CSR matrix with sorted indices — *not* a
    dense matrix; the dense mapping into the algebra's domain happens
    per-block in :func:`sparse_to_blocks`.
    """
    _require_scipy()
    if not is_sparse(adjacency):
        raise ValidationError("validate_sparse_adjacency expects a scipy.sparse matrix")
    resolved = get_algebra(algebra)
    if resolved.input_validator is validate_dag_weights:
        raise ValidationError(
            f"algebra {resolved.name!r} requires a DAG (cycle) check, which the "
            "sparse ingestion path does not perform; provide a dense matrix")
    csr = adjacency.tocsr()
    if csr.ndim != 2 or csr.shape[0] != csr.shape[1]:
        raise ValidationError(f"adjacency must be square, got shape {csr.shape}")
    if csr.shape[0] == 0:
        raise ValidationError("adjacency must be non-empty")
    csr.sum_duplicates()

    # Resolve the element dtype against the algebra's policy, preserving a
    # supported input dtype just like the dense path does.
    if dtype is not None:
        dt = resolved.resolve_dtype(dtype)
    elif csr.dtype.name in resolved.dtypes:
        dt = np.dtype(csr.dtype)
    else:
        dt = np.dtype(resolved.default_dtype)

    if csr.dtype != np.bool_:
        finite = np.isfinite(csr.data)
        if not finite.all():
            # Rebuild without the non-finite entries rather than zeroing them:
            # eliminate_zeros() would also drop legitimate zero-weight edges.
            coo = csr.tocoo()
            keep = np.isfinite(coo.data)
            csr = _sp.coo_matrix(
                (coo.data[keep], (coo.row[keep], coo.col[keep])),
                shape=csr.shape).tocsr()
    resolved.validate_input(csr.data, "adjacency")

    if require_symmetric:
        if (csr != csr.T).nnz != 0:
            raise ValidationError("adjacency must be symmetric for undirected solvers")

    if dt == np.bool_:
        # Every stored entry is an edge, a stored 0.0 weight included: a
        # plain astype(bool) would store it as False.
        csr = _sp.csr_matrix((np.ones(csr.nnz, dtype=bool),
                              csr.indices.copy(), csr.indptr.copy()),
                             shape=csr.shape)
    elif csr.dtype != dt:
        csr = csr.astype(dt)
    csr.sort_indices()
    return csr


# ---------------------------------------------------------------------------
# Single-edge reads and edits on a canonical CSR
# ---------------------------------------------------------------------------
def _csr_find(indptr, indices, r: int, c: int) -> tuple[int, bool]:
    lo, hi = indptr[r], indptr[r + 1]
    pos = int(lo + np.searchsorted(indices[lo:hi], c))
    return pos, pos < hi and indices[pos] == c


def csr_edge(csr, u: int, v: int):
    """Stored value of cell ``(u, v)`` of a canonical CSR; ``None`` = no edge."""
    pos, stored = _csr_find(csr.indptr, csr.indices, u, v)
    return csr.data[pos] if stored else None


def csr_with_edge(csr, u: int, v: int, value, *, mirror: bool = False):
    """A *new* canonical CSR: ``csr`` with edge ``(u, v)`` set to ``value``.

    ``value=None`` physically removes the entry (stored entries are edges, so
    a deletion must not leave an explicit zero); otherwise the entry is
    overwritten or inserted in index order.  ``mirror`` applies the same edit
    to ``(v, u)``.  O(nnz) per edit; ``csr`` itself is never written, so
    whoever holds it keeps one immutable adjacency version.
    """
    indptr, indices, data = csr.indptr, csr.indices, csr.data
    for r, c in ((u, v), (v, u)) if mirror else ((u, v),):
        pos, stored = _csr_find(indptr, indices, r, c)
        if stored and value is not None:
            data = data.copy()
            data[pos] = value
        elif stored:
            indices, data = np.delete(indices, pos), np.delete(data, pos)
            indptr = indptr.copy()
            indptr[r + 1:] -= 1
        elif value is not None:
            indices = np.insert(indices, pos, c)
            data = np.insert(data, pos, value)
            indptr = indptr.copy()
            indptr[r + 1:] += 1
    out = type(csr)((data, indices, indptr), shape=csr.shape)
    out.has_canonical_format = True
    return out


# ---------------------------------------------------------------------------
# Block construction
# ---------------------------------------------------------------------------
def sparse_to_blocks(csr, block_size: int, *,
                     algebra: Semiring | str | None = None,
                     dtype: str | np.dtype | None = None,
                     storage: str = "dense",
                     layout: str = "triangular") -> Iterator[tuple[BlockId, object]]:
    """Cut a validated CSR adjacency into ``((I, J), block)`` records.

    The sparse counterpart of
    :func:`repro.linalg.blocks.matrix_to_blocks` *fused with* the algebra's
    :meth:`~repro.linalg.algebra.Semiring.prepare_adjacency` mapping: stored
    entries land in their block, unstored cells become the algebra's
    ``zero``, diagonal blocks get ``one`` on the diagonal.  One record is cut
    per stored key of the ``layout``'s
    :class:`~repro.linalg.blocks.BlockGrid`.  Entries are
    grouped by block id in a single O(nnz) pass; each block is materialized
    (and, under ``storage="packed"``, packed) one at a time, so no dense
    ``n x n`` array ever exists — peak extra memory is O(nnz + b²).
    """
    _require_scipy()
    algebra = get_algebra(algebra)
    n = csr.shape[0]
    b = check_block_size(block_size, n)
    q = num_blocks(n, b)
    grid = BlockGrid(q, layout)
    encode = storage_ops(storage).encode
    dt = algebra.resolve_dtype(dtype) if dtype is not None else \
        (np.dtype(csr.dtype) if csr.dtype.name in algebra.dtypes
         else np.dtype(algebra.default_dtype))

    coo = csr.tocoo()
    rows = np.asarray(coo.row, dtype=np.int64)
    cols = np.asarray(coo.col, dtype=np.int64)
    data = coo.data
    bi = rows // b
    bj = cols // b
    # Entries of blocks the grid does not store are mirrors of stored ones
    # (validation has already checked symmetry).
    keep = grid.stores(bi, bj)
    rows, cols, data, bi, bj = rows[keep], cols[keep], data[keep], bi[keep], bj[keep]
    key = bi * q + bj
    order = np.argsort(key, kind="stable")
    rows, cols, data, key = rows[order], cols[order], data[order], key[order]

    zero = algebra.zero_like(dt)
    one = algebra.one_like(dt)
    for (i, j) in grid.keys():
        lo, hi = np.searchsorted(key, [i * q + j, i * q + j + 1])
        shape = block_shape((i, j), b, n)
        block = np.full(shape, zero, dtype=dt)
        if hi > lo:
            local_r = rows[lo:hi] - i * b
            local_c = cols[lo:hi] - j * b
            if dt == np.bool_:
                block[local_r, local_c] = True
            else:
                block[local_r, local_c] = data[lo:hi].astype(dt, copy=False)
        if i == j:
            np.fill_diagonal(block, one)
        # copy=False: the window was just built here and aliases nothing.
        yield (i, j), encode(block, copy=False)


def sparse_to_dense(csr, *, algebra: Semiring | str | None = None) -> np.ndarray:
    """Expand a CSR adjacency to the *canonical* dense representation.

    For numeric algebras that is the historical form — ``inf`` for missing
    edges, ``0`` on the diagonal; for the boolean algebra a plain boolean
    matrix with a ``True`` diagonal.  Intended for verification and small
    inputs; this is exactly the allocation the sparse ingestion path avoids.
    """
    _require_scipy()
    algebra = get_algebra(algebra)
    n = csr.shape[0]
    coo = csr.tocoo()
    if np.dtype(algebra.default_dtype) == np.bool_ or csr.dtype == np.bool_:
        out = np.zeros((n, n), dtype=bool)
        out[coo.row, coo.col] = True
        np.fill_diagonal(out, True)
        return out
    out = np.full((n, n), np.inf, dtype=np.float64)
    out[coo.row, coo.col] = coo.data
    np.fill_diagonal(out, 0.0)
    return out
