"""Parent rows: which way a closure's optimal paths go.

The closure of the adjacency matrix answers "how far?"; this module answers
"which way?" for every algebra with a witness policy, from the closure and
the adjacency alone.  A ``paths=True`` solve runs exactly the bare solve of
``paths=False`` and then calls :func:`derive_parents` once; the sequential
solvers, dynamic updates and the serving layer's row misses derive their
rows the same way, so every parent row in the program is
:func:`parent_row`'s (see there for the tight-edge rule).
:func:`derive_parents` runs it as the compiled breadth-first search of
:mod:`repro.linalg.native` where that loaded, and as :func:`parent_row`
per source where it did not; the two give the same rows.

``parents[i, j]`` is the predecessor of ``j`` on an optimal path from ``i``
to ``j``, :data:`NO_VERTEX` for unreachable pairs and the diagonal;
:func:`walk_parent_row` / :func:`reconstruct_path` walk it.

:class:`WitnessBlock` carries parent and successor planes beside a block's
values, :func:`witness_block` stamps them onto a prepared block, and
:func:`witness_product` composes them with the classic argmin witness
(``P_C[i, j] = P_B[k*, j]``, falling back to ``P_A[i, k*]`` when
``k* == j``; ``R_C[i, j] = R_A[i, k*]``, falling back to ``R_B[k*, j]``
when ``k* == i``; ``NO_VERTEX`` where the value is the algebra's ``zero``).  No solve runs them; they are kept for the benchmark
ladder's ``linalg.witness_product_gops`` rung and retire with it
(ROADMAP ``[ruler-refresh]``).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from repro.common.errors import SolverError, ValidationError
from repro.linalg import native
from repro.linalg.algebra import Semiring, get_algebra

#: Sentinel for "no predecessor/successor": unreachable pairs and the
#: diagonal (a path from a vertex to itself is empty).
NO_VERTEX = np.int32(-1)


def _as_witness_index(array: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    arr = np.asarray(array, dtype=np.int32)
    if arr.shape != shape:
        raise ValidationError(
            f"witness plane has shape {arr.shape}, expected {shape}")
    return arr


class WitnessBlock:
    """A matrix block paired with its parent/successor witness planes.

    ``values`` is the ordinary distance block; ``parents[i, j]`` (the
    predecessor of column-vertex ``j`` on an optimal path from row-vertex
    ``i``) and ``succs[i, j]`` (``i``'s successor on that path) are
    ``int32`` arrays of the same shape holding global vertex ids.  Not an
    ndarray subclass: :func:`~repro.linalg.payload.payload_ops` resolves it
    to the ``WITNESS`` kernel set, whose one operation is the product.
    Kept for the benchmark ladder's ``witness_product`` rung; retires with it
    (ROADMAP ``[ruler-refresh]``).
    """

    __slots__ = ("values", "parents", "succs")

    def __init__(self, values: np.ndarray, parents: np.ndarray,
                 succs: np.ndarray) -> None:
        values = np.asarray(values)
        if values.ndim != 2:
            raise ValidationError(
                f"witnessed block values must be 2-D, got ndim={values.ndim}")
        self.values = values
        self.parents = _as_witness_index(parents, values.shape)
        self.succs = _as_witness_index(succs, values.shape)

    @property
    def shape(self) -> tuple[int, int]:
        """Logical (rows, cols) of the block."""
        return self.values.shape

    @property
    def dtype(self) -> np.dtype:
        """The element dtype of the *values* plane."""
        return self.values.dtype

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WitnessBlock(shape={self.shape}, dtype={self.dtype})"


def require_witness(algebra: Semiring, op: str) -> Semiring:
    """Resolve ``algebra`` and fail fast when it cannot track witnesses."""
    algebra = get_algebra(algebra)
    if not algebra.supports_witness:
        raise ValidationError(
            f"{op} needs an algebra with a witness policy; {algebra.name!r} "
            "declares none (witness_select is None)")
    return algebra


# ---------------------------------------------------------------------------
# The witnessed product (the benchmark ladder's rung)
# ---------------------------------------------------------------------------
def witness_block(values: np.ndarray, row_start: int, col_start: int,
                  algebra: Semiring | str | None = None) -> WitnessBlock:
    """Stamp initial witnesses onto a *prepared* adjacency block.

    ``values`` must already live in the algebra's domain (missing edges are
    ``zero``, the diagonal is ``one``); ``row_start``/``col_start`` are the
    global indices of the block's first row/column.  A direct edge
    ``i -> j`` starts with ``parents = i`` and ``succs = j`` (the path is the
    edge itself); everything else, including the diagonal, starts at
    :data:`NO_VERTEX`.
    """
    algebra = require_witness(get_algebra(algebra), "witness_block")
    vals = np.array(values, copy=True)
    if vals.ndim != 2:
        raise ValidationError(f"block must be 2-D, got ndim={vals.ndim}")
    r, c = vals.shape
    rows_g = np.arange(row_start, row_start + r, dtype=np.int32)
    cols_g = np.arange(col_start, col_start + c, dtype=np.int32)
    edge = vals != algebra.zero_like(vals.dtype)
    edge &= rows_g[:, None] != cols_g[None, :]
    parents = np.where(edge, rows_g[:, None], NO_VERTEX).astype(np.int32)
    succs = np.where(edge, cols_g[None, :], NO_VERTEX).astype(np.int32)
    return WitnessBlock(vals, parents, succs)


def witness_product(a: WitnessBlock, b: WitnessBlock,
                    algebra: Semiring | str | None = None) -> WitnessBlock:
    """Semiring product with witness composition (``MatProd`` + argmin).

    For every output cell the winning inner index ``k*`` is selected with
    the algebra's ``witness_select`` arg-reduction over the same row panels
    of the broadcast cube the value kernel streams
    (:meth:`~repro.linalg.algebra.Semiring.mul_panels`), and the planes
    compose as ``P_C[i, j] = P_B[k*, j]`` / ``R_C[i, j] = R_A[i, k*]`` with
    the empty-subpath fallbacks described in the module docstring.
    """
    algebra = require_witness(algebra, "witnessed MatProd")
    av, bv = algebra.product_operands(a.values, b.values)
    shape = (av.shape[0], bv.shape[1])
    # Zero-filled: an empty inner dimension composes no path at all.
    values = np.full(shape, algebra.zero_like(av.dtype))
    parents = np.empty(shape, dtype=np.int32)
    succs = np.empty(shape, dtype=np.int32)
    row_ids = np.arange(shape[0])[:, None]
    cols = np.arange(shape[1])[None, :]
    # k-innermost cubes: arg-reductions are only fast along a contiguous axis.
    for rows, cube in algebra.mul_panels(av, bv, reduce_last=True):
        here = row_ids[rows]
        ks = algebra.arg_select(cube, axis=1)                  # (|rows|, n)
        values[rows] = cube[here - rows.start, ks, cols]
        p = b.parents[ks, cols]                 # tail pointers from B
        p_fallback = a.parents[here, ks]        # k* == j: B-subpath empty
        parents[rows] = np.where(p == NO_VERTEX, p_fallback, p)
        r = a.succs[here, ks]                   # head pointers from A
        r_fallback = b.succs[ks, cols]          # k* == i: A-subpath empty
        succs[rows] = np.where(r == NO_VERTEX, r_fallback, r)
    no_path = values == algebra.zero_like(av.dtype)
    parents[no_path] = NO_VERTEX
    succs[no_path] = NO_VERTEX
    return WitnessBlock(values, parents, succs)


# ---------------------------------------------------------------------------
# Parent rows: the one definition and its compiled form
# ---------------------------------------------------------------------------
def _tight_rtol(dtype: np.dtype) -> float:
    """Relative tolerance for the tight-edge test, matched to the dtype.

    Closure values are composed in solver-dependent association orders, so
    the last-edge identity ``D[i, p] ⊗ E[p, j] == D[i, j]`` holds only up to
    rounding for float algebras (and exactly for bool).
    """
    if dtype == np.bool_:
        return 0.0
    return 1e-4 if np.dtype(dtype).itemsize < 8 else 1e-9


def _adjacency_row_values(adjacency, rows: np.ndarray, algebra: Semiring,
                          dtype: np.dtype) -> np.ndarray:
    """Materialize adjacency rows in the algebra's domain (dense or CSR).

    For CSR inputs, unstored cells become the algebra's ``zero`` (a plain
    ``toarray`` would yield numeric 0, which is *not* "no edge" under
    (min, +)).
    """
    from repro.graph import sparse as sparse_mod
    if not sparse_mod.is_sparse(adjacency):
        return np.asarray(adjacency)[rows]
    sub = adjacency[rows]
    out = np.full((rows.shape[0], adjacency.shape[1]),
                  algebra.zero_like(dtype), dtype=dtype)
    indptr = sub.indptr
    data = np.asarray(sub.data, dtype=dtype)
    for local in range(rows.shape[0]):
        lo, hi = indptr[local], indptr[local + 1]
        out[local, sub.indices[lo:hi]] = data[lo:hi]
    return out


class CsrEdges(NamedTuple):
    """An adjacency's edges ``p -> j`` as parallel row-major arrays.

    The one form :func:`parent_row` reads edges in, derived by :meth:`of`
    from either adjacency form: a canonical CSR's stored entries, or a dense
    prepared matrix's off-diagonal cells that are not the algebra's
    ``zero``.  Deriving it costs about as much as one row, so a caller that
    derives many rows against one adjacency version derives it once.
    ``p_idx`` is non-decreasing, which is what lets :func:`parent_row` and
    :func:`derive_parents` build their CSR from a ``bincount``.
    """

    p_idx: np.ndarray
    j_idx: np.ndarray
    vals: np.ndarray

    @classmethod
    def of(cls, adjacency, algebra: Semiring, dtype: np.dtype) -> "CsrEdges":
        """The edges of a dense prepared or canonical CSR adjacency."""
        from repro.graph import sparse as sparse_mod
        dtype = np.dtype(dtype)
        zero = algebra.zero_like(dtype)
        if not sparse_mod.is_sparse(adjacency):
            arr = np.asarray(adjacency, dtype=dtype)
            present = arr != zero
            np.fill_diagonal(present, False)
            rows, cols = np.nonzero(present)
            return cls(rows.astype(np.intp, copy=False),
                       cols.astype(np.intp, copy=False), arr[present])
        coo = adjacency.tocoo()
        vals = np.asarray(coo.data, dtype=dtype)
        keep = (coo.row != coo.col) & (vals != zero)
        return cls(coo.row[keep].astype(np.intp), coo.col[keep].astype(np.intp),
                   vals[keep])


def parent_row(source: int, distances: np.ndarray, edges: CsrEdges,
               algebra: Semiring) -> np.ndarray:
    """The parent row of ``source``, derived from the closure's row.

    An edge ``p -> j`` is *tight* when it extends an optimal path:
    ``D[s, p] ⊗ E[p, j] == D[s, j]`` (within a dtype-matched tolerance for
    floats, exactly for bool).  One breadth-first search from ``source``
    over the tight edges assigns every vertex it reaches the vertex it was
    reached from, so the pointers strictly decrease the BFS depth: every
    walk ends at the source, and folds to the closure entry one tight edge
    at a time.  In an absorptive selective semiring the tight edges reach
    every vertex with a non-``zero`` closure entry; when they do not, the
    closure and the edges disagree and :class:`SolverError` is raised.
    """
    d_row = np.asarray(distances)[source]
    n = d_row.shape[0]
    dtype = d_row.dtype
    zero = algebra.zero_like(dtype)
    p_idx, j_idx, vals = edges
    candidate = algebra.mul(d_row[p_idx], vals)
    target = d_row[j_idx]
    if dtype == np.bool_:
        tight = candidate & target
    else:
        # np.isclose(candidate, target, rtol=rtol, atol=rtol), or both
        # infinite, written out: on this per-row path it costs half as much.
        rtol = _tight_rtol(dtype)
        with np.errstate(invalid="ignore"):
            tight = np.abs(candidate - target) <= rtol * (1 + np.abs(target))
        tight &= np.isfinite(target)
        tight |= (candidate == target) | (np.isinf(candidate) & np.isinf(target))
        tight &= candidate != zero
    hit = np.flatnonzero(tight)
    # float64 data and int32 indices are the layout csgraph works on, so it
    # reads this matrix without copying it.
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(p_idx[hit], minlength=n), out=indptr[1:])
    graph = csr_matrix((np.ones(hit.size), j_idx[hit].astype(np.int32),
                        indptr), shape=(n, n))
    _, predecessors = breadth_first_order(graph, source, directed=True,
                                          return_predecessors=True)
    row = np.where(predecessors < 0, NO_VERTEX, predecessors).astype(np.int32)
    missing = (d_row != zero) & (row == NO_VERTEX)
    missing[source] = False
    if missing.any():
        raise SolverError(
            f"no tight-edge path reaches {int(missing.sum())} vertices from "
            f"source {source}; closure and adjacency are inconsistent")
    return row


def derive_parents(distances: np.ndarray, edges: CsrEdges, algebra: Semiring,
                   sources=None) -> np.ndarray:
    """The parent rows of ``sources`` (every row when ``None``), stacked.

    Returns an ``int32`` matrix of shape ``(len(sources), n)`` whose row
    ``r`` is :func:`parent_row` of ``sources[r]``, bit for bit: the
    compiled search of :mod:`repro.linalg.native` runs the same tight-edge
    test in the closure's dtype over ``edges`` (built in that dtype) in the
    same order, and where it cannot run (no kernel loaded, an algebra it has
    no code for) each row is :func:`parent_row`'s own.  Raises
    :class:`SolverError` as :func:`parent_row` does when the closure and the
    edges disagree.
    """
    distances = np.asarray(distances)
    n = distances.shape[0]
    sources = (np.arange(n, dtype=np.int64) if sources is None
               else np.asarray(sources, dtype=np.int64).reshape(-1))
    if sources.size and (sources.min() < 0 or sources.max() >= n):
        raise ValidationError(f"parent-row sources out of range for n={n}")
    dtype = distances.dtype
    compiled = native.parents_kernel_for(algebra, dtype)
    if compiled is None:
        out = np.empty((sources.size, n), dtype=np.int32)
        for r, source in enumerate(sources.tolist()):
            out[r] = parent_row(source, distances, edges, algebra)
        return out
    kernel, code = compiled
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(np.bincount(edges.p_idx, minlength=n), out=indptr[1:])
    out, bad = kernel.parents(code, float(algebra.zero_like(dtype)),
                              _tight_rtol(dtype), distances, indptr,
                              edges.j_idx, edges.vals, sources)
    if bad >= 0:
        # parent_row raises for exactly this source, with the message.
        parent_row(int(sources[bad]), distances, edges, algebra)
        raise SolverError(f"closure and adjacency are inconsistent from "
                          f"source {int(sources[bad])}")
    return out


# ---------------------------------------------------------------------------
# Path reconstruction
# ---------------------------------------------------------------------------
def walk_parent_row(parents_row: np.ndarray, src: int, dst: int) -> list[int]:
    """Walk a single source row of a predecessor matrix back from ``dst``.

    ``parents_row[j]`` is the predecessor of ``j`` on an optimal path from
    ``src`` (the row's source) to ``j``.  Returns the vertex list
    ``[src, ..., dst]`` (``[src]`` when ``src == dst``).  Raises
    :class:`~repro.common.errors.SolverError` when no path exists or the row
    is inconsistent (a walk that fails to reach ``src`` within ``n`` steps).
    This is the per-row primitive both :func:`reconstruct_path` (full
    matrix) and the serving layer's row cache walk.
    """
    row = np.asarray(parents_row)
    n = row.shape[0]
    if not (0 <= src < n and 0 <= dst < n):
        raise ValidationError(
            f"route endpoints ({src}, {dst}) out of range for n={n}")
    if src == dst:
        return [int(src)]
    if row[dst] == NO_VERTEX:
        raise SolverError(f"no path from {src} to {dst}")
    path = [int(dst)]
    cur = int(dst)
    for _ in range(n):
        cur = int(row[cur])
        if cur == NO_VERTEX:
            raise SolverError(
                f"parent matrix is inconsistent: walk from {dst} hit a dead "
                f"end before reaching {src}")
        path.append(cur)
        if cur == src:
            return path[::-1]
    raise SolverError(
        f"parent matrix is inconsistent: walk from {dst} did not reach "
        f"{src} within {n} steps")


def reconstruct_path(parents: np.ndarray, src: int, dst: int) -> list[int]:
    """Walk a predecessor matrix back from ``dst`` to ``src``.

    Returns the vertex list ``[src, ..., dst]`` (``[src]`` when
    ``src == dst``).  Raises :class:`~repro.common.errors.SolverError` when
    no path exists or the matrix is inconsistent (a walk that fails to reach
    ``src`` within ``n`` steps).
    """
    parents = np.asarray(parents)
    n = parents.shape[0]
    if not (0 <= src < n):
        raise ValidationError(
            f"route endpoints ({src}, {dst}) out of range for n={n}")
    return walk_parent_row(parents[src], src, dst)
