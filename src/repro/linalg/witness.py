"""Witness (parent-pointer) tracking for path reconstruction.

The closure of the adjacency matrix answers "how far?"; this module makes
every witness-capable algebra also answer "which way?".  The idea is the
classic "argmin witness": wherever ⊕ chooses between path values, remember
*which* operand won, and wherever ⊗ extends paths, compose the remembered
pointers with the standard rule ``parent[i, j] = parent[k*, j]`` (the
predecessor of ``j`` only depends on the tail of the combined path).

Storage model — why every block carries **two** witness planes
--------------------------------------------------------------
The solvers store only upper-triangular blocks and materialize ``A_JI`` as
``A_IJ.T`` (Section 4's symmetric storage).  Distance values transpose; a
predecessor matrix does **not**: ``parents[j, i]`` (the predecessor of ``i``
on an optimal ``j -> i`` path) is not a function of ``parents[i, j]``.  For
an undirected graph, however, the reverse of an optimal ``i -> j`` path is an
optimal ``j -> i`` path, so the predecessor of ``i`` on the reversed path is
exactly the *successor* of ``i`` on the forward path.  A
:class:`WitnessBlock` therefore carries, alongside its ``values``:

* ``parents[i, j]`` — the global predecessor of column-vertex ``j`` on an
  optimal path from row-vertex ``i`` to ``j``;
* ``succs[i, j]``  — the global successor of row-vertex ``i`` on that path
  (``i``'s neighbour toward ``j``).

With both planes the transpose is closed::

    (V, P, R).T  =  (V.T, R.T, P.T)

which is what lets witnessed blocks flow through ``CopyCol``, the mirror
reads of :func:`witness_blocks_to_matrices`, and the repeated-squaring
column orientation completely unchanged.

The successor plane exists *only* to serve those mirrored reads.  Under the
full-grid directed layout nothing is ever mirrored, so blocks carry a
**single plane** (``succs is None``): every kernel composes parents from
parents exactly as below and simply skips the successor arithmetic, and
``.T`` raises rather than fabricate a plane that does not exist.

Composition rules
-----------------
For the semiring product ``C = A ⊗ B`` with winning inner index ``k*``::

    P_C[i, j] = P_B[k*, j]      (falling back to P_A[i, k*] when k* == j)
    R_C[i, j] = R_A[i, k*]      (falling back to R_B[k*, j] when k* == i)

the fallbacks cover the empty-subpath cases (the winning index hitting the
``one`` diagonal of either operand); cells whose combined value is the
algebra's ``zero`` ("no path") are masked back to :data:`NO_VERTEX`.  For
elementwise ⊕ the winner simply keeps its planes, with ties resolved to the
*first* operand — which also makes the Floyd-Warshall rank-1 update safe:
the degenerate pivot cells (``i == k`` or ``j == k``) can tie but never
strictly improve, so their meaningless candidate pointers never survive.

All indices are **global** vertex ids (stamped at block-cutting time by
:func:`witness_block`), so kernels only ever gather and select; they never
need to know a block's position in the grid.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order

from repro.common.errors import SolverError, ValidationError
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

    ``values`` is the ordinary distance block; ``parents`` and ``succs`` are
    ``int32`` arrays of the same shape holding global vertex ids (see the
    module docstring for their exact meaning).  Like
    :class:`~repro.linalg.bitset.PackedBlock`, this is deliberately *not* an
    ndarray subclass: the public kernel entry points resolve it to the
    ``WITNESS`` kernel set of :mod:`repro.linalg.payload`, and no NumPy
    kernel can silently drop the witness planes.  Instances pickle by their
    three arrays, so they travel through shuffles, the ``processes``
    backend's IPC and the shared file system like any other block payload —
    at roughly 1.5-2x the bytes of a bare value block, which is the traffic
    overhead ``SolveRequest(paths=True)`` pays.
    """

    __slots__ = ("values", "parents", "succs")

    def __init__(self, values: np.ndarray, parents: np.ndarray,
                 succs: np.ndarray | None) -> None:
        values = np.asarray(values)
        if values.ndim != 2:
            raise ValidationError(
                f"witnessed block values must be 2-D, got ndim={values.ndim}")
        self.values = values
        self.parents = _as_witness_index(parents, values.shape)
        # succs=None is the *single-plane* witness of the full-grid directed
        # layout: with no mirror-transpose reads there is nothing for a
        # successor plane to serve, so it is simply not carried.
        self.succs = (None if succs is None
                      else _as_witness_index(succs, values.shape))

    @property
    def single_plane(self) -> bool:
        """True when this block carries parents only (full-grid layout)."""
        return self.succs is None

    # -- ndarray-flavoured surface the solvers rely on ---------------------
    @property
    def shape(self) -> tuple[int, int]:
        """Logical (rows, cols) of the block."""
        return self.values.shape

    @property
    def dtype(self) -> np.dtype:
        """The element dtype of the *values* plane."""
        return self.values.dtype

    @property
    def nbytes(self) -> int:
        """Total bytes across the value and witness planes."""
        succs_bytes = 0 if self.succs is None else self.succs.nbytes
        return int(self.values.nbytes + self.parents.nbytes + succs_bytes)

    @property
    def T(self) -> "WitnessBlock":
        """Transposed role ``A_JI`` of a stored block ``A_IJ``.

        Swaps the witness planes (see the module docstring): the transposed
        block's predecessors are the stored successors and vice versa.
        Returns cheap views, mirroring ``ndarray.T``.  Single-plane blocks
        cannot transpose — the successor plane the mirror's parents would
        come from does not exist (and the full-grid layout never mirrors).
        """
        if self.succs is None:
            raise ValidationError(
                "single-plane witness blocks have no successor plane and "
                "cannot be transposed; the full-grid layout never mirrors")
        return WitnessBlock(self.values.T, self.succs.T, self.parents.T)

    def copy(self) -> "WitnessBlock":
        """Deep copy of all planes."""
        return WitnessBlock(self.values.copy(), self.parents.copy(),
                            None if self.succs is None else self.succs.copy())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WitnessBlock):
            return NotImplemented
        if (self.succs is None) != (other.succs is None):
            return False
        succs_equal = (self.succs is None
                       or bool(np.array_equal(self.succs, other.succs)))
        return (bool(np.array_equal(self.values, other.values))
                and bool(np.array_equal(self.parents, other.parents))
                and succs_equal)

    def __hash__(self) -> None:  # pragma: no cover - mutable container
        raise TypeError("WitnessBlock is unhashable")

    def __reduce__(self):
        """Pickle by plane arrays (``__slots__`` classes need an explicit reducer)."""
        return (WitnessBlock, (self.values, self.parents, self.succs))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WitnessBlock(shape={self.shape}, dtype={self.dtype})"


class WitnessVector:
    """A witnessed pivot-column slice for the 2D Floyd-Warshall broadcast.

    ``values[v]`` is the distance between vertex ``v`` and the pivot vertex
    ``k``; ``toward[v]`` is ``v``'s neighbour on that optimal path, on
    ``v``'s side.  By symmetry that single plane serves both operand roles of
    the rank-1 update: it is simultaneously the *successor* of ``v`` on
    ``v -> k`` (row role) and the *predecessor* of ``v`` on ``k -> v``
    (column role), which is why the broadcast column needs only one witness
    plane where blocks need two.
    """

    __slots__ = ("values", "toward")

    def __init__(self, values: np.ndarray, toward: np.ndarray) -> None:
        values = np.asarray(values)
        if values.ndim != 1:
            raise ValidationError(
                f"witnessed column must be 1-D, got ndim={values.ndim}")
        self.values = values
        self.toward = _as_witness_index(toward, values.shape)

    @property
    def shape(self) -> tuple[int]:
        """Length of the column as a 1-tuple (ndarray-compatible)."""
        return self.values.shape

    @property
    def dtype(self) -> np.dtype:
        """The element dtype of the values plane."""
        return self.values.dtype

    def __getitem__(self, index: slice) -> "WitnessVector":
        """Slice both planes together (the per-block windowing of the update)."""
        if not isinstance(index, slice):
            raise ValidationError("witnessed columns only support slice indexing")
        return WitnessVector(self.values[index], self.toward[index])

    def __reduce__(self):
        """Pickle by plane arrays (for the broadcast under ``processes``)."""
        return (WitnessVector, (self.values, self.toward))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WitnessVector(n={self.values.shape[0]}, dtype={self.dtype})"


def is_witnessed(block) -> bool:
    """True when ``block`` is a :class:`WitnessBlock`."""
    return isinstance(block, WitnessBlock)


def is_witness_vector(piece) -> bool:
    """True when ``piece`` is a :class:`WitnessVector`."""
    return isinstance(piece, WitnessVector)


def require_witness(algebra: Semiring, op: str) -> Semiring:
    """Resolve ``algebra`` and fail fast when it cannot track witnesses."""
    algebra = get_algebra(algebra)
    if not algebra.supports_witness:
        raise ValidationError(
            f"{op} received witnessed operands but algebra {algebra.name!r} "
            "declares no witness policy (witness_select is None)")
    return algebra


# ---------------------------------------------------------------------------
# Construction / destruction
# ---------------------------------------------------------------------------
def witness_block(values: np.ndarray, row_start: int, col_start: int,
                  algebra: Semiring | str | None = None, *,
                  single_plane: bool = False) -> WitnessBlock:
    """Stamp initial witnesses onto a *prepared* adjacency block.

    ``values`` must already live in the algebra's domain (missing edges are
    ``zero``, the diagonal is ``one``); ``row_start``/``col_start`` are the
    global indices of the block's first row/column.  A direct edge
    ``i -> j`` starts with ``parents = i`` and ``succs = j`` (the path is the
    edge itself); everything else, including the diagonal, starts at
    :data:`NO_VERTEX`.  ``single_plane=True`` (the full-grid directed
    layout) stamps parents only.
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
    if single_plane:
        return WitnessBlock(vals, parents, None)
    succs = np.where(edge, cols_g[None, :], NO_VERTEX).astype(np.int32)
    return WitnessBlock(vals, parents, succs)


def witness_matrix(prepared: np.ndarray,
                   algebra: Semiring | str | None = None) -> WitnessBlock:
    """Stamp a full prepared ``n x n`` matrix (the sequential solvers' entry)."""
    return witness_block(prepared, 0, 0, algebra)


def witness_blocks_to_matrices(blocks, n: int, block_size: int, *,
                               layout: str = "triangular",
                               fill, dtype=None):
    """Assemble witnessed block records into ``(distances, parents)`` matrices.

    The witnessed counterpart of
    :func:`~repro.linalg.blocks.blocks_to_matrix`: positions a record plays
    transposed on the ``layout``'s grid are reconstructed from it — values by
    transpose, parents from its *successor* plane (the transpose rule).  The
    returned ``parents`` is the full ``n x n`` predecessor matrix
    (``parents[i, j]`` = predecessor of ``j`` on an optimal ``i -> j`` path,
    :data:`NO_VERTEX` for unreachable pairs and the diagonal).
    """
    from repro.linalg.blocks import BlockGrid, blocks_to_matrix, num_blocks
    grid = BlockGrid(num_blocks(n, block_size), layout)
    records = {}
    for key, blk in blocks:
        if not isinstance(blk, WitnessBlock):
            raise ValidationError(
                f"block {key} is not witnessed; paths=True solves must keep "
                "witness planes attached end-to-end")
        records[tuple(key)] = blk
    distances = blocks_to_matrix(records.items(), n, block_size,
                                 layout=layout, fill=fill, dtype=dtype)
    # The transpose rule: a mirror's parents are the stored successors.
    planes = [((r, c), blk.succs.T if transposed else blk.parents)
              for key, blk in records.items()
              for r, c, transposed in grid.roles(key)
              if not transposed or (r, c) not in records]
    parents = blocks_to_matrix(planes, n, block_size, layout="full",
                               fill=NO_VERTEX, dtype=np.int32)
    return distances, parents


# ---------------------------------------------------------------------------
# Paired value+witness kernels
# ---------------------------------------------------------------------------
def _check_same_planes(a: WitnessBlock, b: WitnessBlock, op: str) -> None:
    """Reject mixing single-plane and two-plane operands in one kernel.

    A solve runs entirely in one layout, so mixed plane-ness only happens on
    a bug — and silently dropping (or inventing) a successor plane would be
    far worse than failing here.
    """
    if (a.succs is None) != (b.succs is None):
        raise ValidationError(
            f"{op} cannot mix single-plane and two-plane witness blocks; "
            "a solve runs entirely in one block layout")


def witness_combine(a: WitnessBlock, b: WitnessBlock,
                    algebra: Semiring | str | None = None) -> WitnessBlock:
    """Elementwise ⊕ of two witnessed blocks: the winner keeps its pointers.

    ``take_b`` requires *strict* improvement (``⊕(a, b) == b`` and ``!= a``),
    so ties keep the first operand's witnesses — the property the
    Floyd-Warshall updates rely on to discard degenerate pivot candidates.
    """
    algebra = require_witness(algebra, "witnessed MatMin")
    if a.shape != b.shape:
        raise ValidationError(
            f"MatMin requires equal shapes, got {a.shape} and {b.shape}")
    _check_same_planes(a, b, "MatMin")
    av, bv = a.values, b.values
    combined = algebra.add(av, bv)
    take_b = (combined == bv) & (combined != av)
    succs = (None if a.succs is None
             else np.where(take_b, b.succs, a.succs))
    return WitnessBlock(
        combined,
        np.where(take_b, b.parents, a.parents),
        succs,
    )


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
    _check_same_planes(a, b, "MatProd")
    av, bv = algebra.product_operands(a.values, b.values)
    shape = (av.shape[0], bv.shape[1])
    single_plane = a.succs is None
    # Zero-filled: an empty inner dimension composes no path at all.
    values = np.full(shape, algebra.zero_like(av.dtype))
    parents = np.empty(shape, dtype=np.int32)
    succs = None if single_plane else np.empty(shape, dtype=np.int32)
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
        if single_plane:
            continue
        r = a.succs[here, ks]                   # head pointers from A
        r_fallback = b.succs[ks, cols]          # k* == i: A-subpath empty
        succs[rows] = np.where(r == NO_VERTEX, r_fallback, r)
    no_path = values == algebra.zero_like(av.dtype)
    parents[no_path] = NO_VERTEX
    if succs is not None:
        succs[no_path] = NO_VERTEX
    return WitnessBlock(values, parents, succs)


def witness_floyd_warshall_inplace(block: WitnessBlock,
                                   algebra: Semiring | str | None = None,
                                   ) -> WitnessBlock:
    """In-place Floyd-Warshall on a witnessed (square) block.

    Each pivot relaxation ``V[i, j] = V[i, j] ⊕ (V[i, k] ⊗ V[k, j])``
    carries ``P[i, j] = P[k, j]`` and ``R[i, j] = R[i, k]`` on strict
    improvement.  The degenerate cells (``i == k`` or ``j == k``) can only
    tie — ``one ⊗ x = x`` — so the pivot row/column, and with them the
    pointers being read, are stable within an iteration.
    """
    algebra = require_witness(algebra, "witnessed Floyd-Warshall")
    values, parents, succs = block.values, block.parents, block.succs
    if values.shape[0] != values.shape[1]:
        raise ValidationError(
            f"Floyd-Warshall needs a square block, got {block.shape}")
    if values.dtype.name not in algebra.dtypes:
        raise ValidationError(
            f"witnessed Floyd-Warshall cannot mutate a {values.dtype.name} "
            f"array in place under algebra {algebra.name!r}")
    n = values.shape[0]
    for k in range(n):
        candidate = algebra.mul(values[:, k, None], values[None, k, :])
        relaxed = algebra.add(values, candidate)
        improved = relaxed != values
        parents[improved] = np.broadcast_to(
            parents[k, :][None, :], parents.shape)[improved]
        if succs is not None:
            succs[improved] = np.broadcast_to(
                succs[:, k][:, None], succs.shape)[improved]
        values[...] = relaxed
    return block


def witness_rank1_update(block: WitnessBlock, col_i: WitnessVector,
                         row_j: WitnessVector,
                         algebra: Semiring | str | None = None) -> WitnessBlock:
    """Witnessed ``FloydWarshallUpdate``: rank-1 relaxation through pivot ``k``.

    The candidate path ``i -> k -> j`` wins a cell only on strict
    improvement, in which case ``parents`` takes ``row_j.toward[j]`` (the
    predecessor of ``j`` on ``k -> j``) and ``succs`` takes
    ``col_i.toward[i]`` (the successor of ``i`` on ``i -> k``).  Degenerate
    candidates through the pivot's own row/column tie and are discarded.

    Single-plane blocks only compose parents, so their column operand needs
    no witness plane: ``col_i`` may then be a plain values vector.
    """
    algebra = require_witness(algebra, "witnessed FloydWarshallUpdate")
    single_plane = block.succs is None
    if not is_witness_vector(row_j) or not (single_plane
                                            or is_witness_vector(col_i)):
        raise ValidationError(
            "witnessed rank-1 update needs witnessed pivot slices; "
            "extract_col emits them for witnessed blocks")
    bv = block.values
    cv = (np.asarray(col_i).reshape(-1) if not is_witness_vector(col_i)
          else col_i.values.reshape(-1))
    rv = row_j.values.reshape(-1)
    if cv.shape[0] != bv.shape[0] or rv.shape[0] != bv.shape[1]:
        raise ValidationError(
            f"pivot slices have lengths {cv.shape[0]}/{rv.shape[0]} "
            f"but block is {block.shape}")
    candidate = algebra.mul(cv[:, None], rv[None, :])
    relaxed = algebra.add(bv, candidate)
    improved = relaxed != bv
    parents = np.where(improved, row_j.toward[None, :], block.parents)
    succs = (None if single_plane
             else np.where(improved, col_i.toward[:, None], block.succs))
    return WitnessBlock(relaxed, parents, succs)


def witness_rank1_update_inplace(block: WitnessBlock, col_i, row_j: WitnessVector,
                                 algebra: Semiring | str | None = None,
                                 ) -> np.ndarray:
    """In-place witnessed rank-1 update returning the changed-row mask.

    Derived from :func:`witness_rank1_update` (the one rank-1 body): the
    pointer planes only change where a value strictly improved, so rows whose
    values differ are exactly the rows to report, and all planes are written
    back.  Single-plane blocks accept a plain values vector for ``col_i``,
    exactly as the immutable variant does.
    """
    relaxed = witness_rank1_update(block, col_i, row_j, algebra)
    changed = np.any(relaxed.values != block.values, axis=1)
    if changed.any():
        block.values[...] = relaxed.values
        block.parents[...] = relaxed.parents
        if block.succs is not None:
            block.succs[...] = relaxed.succs
    return changed


# ---------------------------------------------------------------------------
# Global consistency: detection + the one parent row
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


def consistent_parent_rows(parents: np.ndarray) -> np.ndarray:
    """Boolean mask of source rows whose pointer chains all reach the source.

    Row ``i`` of a predecessor matrix is *consistent* when following
    ``j -> parents[i, j]`` from every assigned ``j`` terminates at ``i`` —
    the property :func:`reconstruct_path` walks rely on.  Checked for all
    rows at once by pointer doubling (O(n² log n), no Python-level loops
    over cells).
    """
    parents = np.asarray(parents)
    n = parents.shape[0]
    if n == 0:
        return np.zeros((0,), dtype=bool)
    sentinel = n  # virtual absorbing node for "-1" (unassigned / dead end)
    chase = np.where(parents == NO_VERTEX, sentinel, parents).astype(np.int64)
    rows = np.arange(n)
    # The source is a root: absorb chains that reach it.
    chase[rows, rows] = rows
    padded = np.empty((n, n + 1), dtype=np.int64)
    doublings = max(1, int(np.ceil(np.log2(max(2, n)))) + 1)
    for _ in range(doublings):
        padded[:, :n] = chase
        padded[:, n] = sentinel
        chase = np.take_along_axis(padded, chase, axis=1)
    reached_root = chase == rows[:, None]
    unassigned = parents == NO_VERTEX
    return np.all(reached_root | unassigned, axis=1)


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
    ``p_idx`` is non-decreasing, which is what lets :func:`parent_row` build
    its tight-edge CSR from a ``bincount``.
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
        if sparse_mod.is_sparse(adjacency):
            coo = adjacency.tocoo()
            rows, cols = coo.row, coo.col
            vals = np.asarray(coo.data, dtype=dtype)
        else:
            arr = np.asarray(adjacency, dtype=dtype)
            rows, cols = np.nonzero(arr != zero)
            vals = arr[rows, cols]
        keep = (rows != cols) & (vals != zero)
        return cls(rows[keep].astype(np.intp), cols[keep].astype(np.intp),
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


def repair_parents(distances: np.ndarray, parents: np.ndarray, adjacency,
                   algebra: Semiring | str | None = None,
                   ) -> tuple[np.ndarray, int]:
    """Make a predecessor matrix globally walk-consistent, row by row.

    The distributed solvers produce *locally* valid witnesses — every
    pointer is a genuine edge-predecessor of an optimal path — but on
    equal-value plateaus (boolean reachability, shared bottlenecks)
    independently-updated cells can point at each other, leaving a source
    row whose walk cycles.  This pass detects such rows with
    :func:`consistent_parent_rows` and derives only those again with
    :func:`parent_row`; consistent rows keep the solver's witnesses
    untouched.  Returns ``(parents, repaired_row_count)`` (``parents`` is
    modified in place).
    """
    algebra = get_algebra(algebra)
    parents = np.asarray(parents)
    bad_rows = np.flatnonzero(~consistent_parent_rows(parents))
    if bad_rows.size:
        edges = CsrEdges.of(adjacency, algebra, np.asarray(distances).dtype)
        for source in bad_rows.tolist():
            parents[source] = parent_row(source, distances, edges, algebra)
    return parents, int(bad_rows.size)


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
