"""The block-payload protocol: one resolver, one kernel set per representation.

The paper writes its four solvers over six block kernels on *one* block type
(Table 1).  This repo moves three representations through those kernels —
bare ``ndarray`` (dense float64/float32/bool), packed bitsets
(:class:`~repro.linalg.bitset.PackedBlock`) and witnessed blocks
(:class:`~repro.linalg.witness.WitnessBlock`) — and this module is the only
place that tells them apart.  :func:`payload_ops` maps its operands to the
:class:`PayloadOps` kernel set of their representation (:data:`DENSE`,
:data:`PACKED` or :data:`WITNESS`), raising a typed
:class:`~repro.common.errors.ValidationError` for mixed operands or an
algebra without that storage; every public kernel entry point
(:mod:`repro.linalg.semiring`, :mod:`repro.linalg.kernels`), the block
decomposition (:mod:`repro.linalg.blocks`, :mod:`repro.graph.sparse`) and the
solver building blocks call the operation they need on the returned object.

Dense blocks stay bare ndarrays — there is no wrapper class, so pickled, IPC
and staged bytes are exactly the array's.  A new representation is one new
:class:`PayloadOps` subclass plus its entry in the resolver's type table.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ValidationError
from repro.common.validation import check_block_size
from repro.linalg import bitset, native, witness
from repro.linalg.algebra import Semiring


class PayloadOps:
    """The operations the solvers use on one block representation.

    Every operation takes the block(s) first and the resolved
    :class:`~repro.linalg.algebra.Semiring` where the arithmetic needs one.
    Each subclass supplies its representation's kernels:

    * ``supports(algebra)`` — whether the algebra has kernels for it;
    * ``product(a, b, algebra, *, out=None)`` — ``MatProd``;
    * ``combine(a, b, algebra)`` — ``MatMin``, the elementwise ⊕;
    * ``fw_inplace(block, algebra)`` — ``FloydWarshall``, closes a square
      block in place and returns it;
    * ``rank1(block, col, row, algebra)`` — ``FloydWarshallUpdate``, a *new*
      block ``block ⊕ (col ⊗ row)``; ``rank1_inplace`` writes that result
      back and returns the changed-row mask;
    * ``column_piece(block, k)`` / ``row_piece(block, k)`` — ``ExtractCol``:
      column/row ``k`` as a piece of the broadcast pivot vector;
    * ``encode(window, *, copy)`` — a prepared dense window becomes a
      block (``copy=False`` promises the caller owns ``window``);
    * ``to_dense(block)`` — the values as an ndarray.

    The operations that are compositions of those (``relax``, the
    cache-blocked Floyd-Warshall) are written once, here.
    """

    #: Representation name used in error messages.
    name = ""

    def relax(self, base, left, right, algebra: Semiring):
        """``MinPlus``: ``base ⊕ (left ⊗ right)``, the blocked solvers' update."""
        return self.combine(base, self.product(left, right, algebra), algebra)

    def copy(self, block):
        """A deep copy the caller may mutate."""
        return block.copy()

    def view(self, block, rows: slice, cols: slice):
        """The sub-block ``[rows, cols]``; write results back with :meth:`store`."""
        raise ValidationError(f"{self.name} blocks have no sub-block views")

    def store(self, block, rows: slice, cols: slice, value) -> None:
        """Write ``value`` into the sub-block ``[rows, cols]``."""
        raise ValidationError(f"{self.name} blocks have no sub-block views")

    # -- Cache-blocked Floyd-Warshall (Venkataraman et al. [23]) -----------
    def blocked_fw_inplace(self, block, block_size: int, algebra: Semiring):
        """Three-phase blocked Floyd-Warshall over :meth:`view`/:meth:`store`.

        Per diagonal sub-block: close it, relax its block-row and
        block-column against it, then every other sub-block against its pair.
        """
        n = block.shape[0]
        if block.shape[1] != n:
            raise ValidationError(
                f"Floyd-Warshall needs a square matrix, got {block.shape}")
        b = check_block_size(block_size, n)
        spans = [slice(s, min(s + b, n)) for s in range(0, n, b)]
        for pivot in spans:
            self.fw_inplace(self.view(block, pivot, pivot), algebra)
            diag = self.view(block, pivot, pivot)
            others = [span for span in spans if span is not pivot]
            for span in others:
                across = self.view(block, pivot, span)
                self.store(block, pivot, span,
                           self.relax(across, diag, across, algebra))
                down = self.view(block, span, pivot)
                self.store(block, span, pivot,
                           self.relax(down, down, diag, algebra))
            for rows in others:
                left = self.view(block, rows, pivot)
                for cols in others:
                    self.store(block, rows, cols, self.relax(
                        self.view(block, rows, cols), left,
                        self.view(block, pivot, cols), algebra))
        return block


#: The largest block whose rank-1 pass stays on NumPy.  A compiled call pays
#: a fixed 10-20 µs to marshal its four arrays through ctypes, most of it
#: Python that two threads cannot overlap: up to 128 x 128 cells NumPy's two
#: passes cost less (fw-2d at b=128 on two threads ran 15-20 % slower
#: compiled), from 256 x 256 on they cost several times more, because their
#: block-sized temporaries no longer fit the cache (timed on a 2-core x86-64
#: host; see CHANGES.md).
_NUMPY_RANK1_CELLS = 128 * 128


class DenseOps(PayloadOps):
    """Bare ``ndarray`` blocks, in the algebra's dtype (``float32`` stays ``float32``).

    This is the one dispatch point between the two dense kernels.  Float
    blocks under the four numeric algebras run ``relax``, ``product``,
    ``rank1``/``rank1_inplace`` (on blocks larger than
    :data:`_NUMPY_RANK1_CELLS`) and ``fw_inplace`` through the compiled
    loop of :mod:`repro.linalg.native` whenever it loaded: dtypes are
    coerced first, operands without unit-stride rows (mirror ``.T`` views,
    column-strided sub-blocks) are copied to C order, and the product is a
    relax with no base, the rank-1 pass a relax with an inner dimension of
    one.  Everything else (bool blocks, other algebras, a product with a
    single output column, mixed-dtype relaxes) and every process where the
    kernel did not load runs the NumPy kernels, which give the same bits:

    the product is a broadcast-and-reduce over *row panels* of the left
    operand (:meth:`~repro.linalg.algebra.Semiring.mul_panels`): a few rows
    of ``A`` at a time are ⊗-broadcast against all of ``B`` into one reused,
    L2-sized ``(rows, k, n)`` buffer and ⊕-reduced over the whole inner
    axis, instead of materializing the ``m x k x n`` cube; Floyd-Warshall is
    a k-loop of vectorized rank-1 updates.
    """

    name = "dense"

    def supports(self, algebra):
        """Every algebra has dense kernels."""
        return True

    def product(self, a, b, algebra, *, out=None):
        """``MatProd`` into a new block or ``out`` (see the class docstring)."""
        a, b = algebra.product_operands(a, b)
        shape = (a.shape[0], b.shape[1])
        if out is None:
            out = np.empty(shape, dtype=a.dtype)
        elif out.shape != shape:
            raise ValidationError(f"out has shape {out.shape}, expected {shape}")
        elif np.shares_memory(out, a) or np.shares_memory(out, b):
            # Every panel reads all of b and rows of a that earlier panels'
            # output would already have overwritten.
            raise ValidationError("out must not overlap a MatProd operand")
        if not a.shape[1]:
            out[...] = algebra.zero_like(a.dtype)
            return out
        compiled = native.kernel_for(algebra, a.dtype)
        # NumPy ⊕-reduces a single output column along the inner axis in its
        # own vectorized order, which decides the sign of a zero result: that
        # shape stays on NumPy, and so does an ``out`` NumPy would cast into.
        if compiled is not None and shape[1] > 1 and out.dtype == a.dtype:
            kernel, code = compiled
            kernel.relax(code, out, a, b)
            return out
        for rows, cube in algebra.mul_panels(a, b):
            algebra.add_reduce(cube, axis=1, out=out[rows])
        return out

    def relax(self, base, left, right, algebra):
        """``base ⊕ (left ⊗ right)`` in one compiled pass, when it can run."""
        left, right = algebra.product_operands(left, right)
        base = np.asarray(base)
        compiled = native.kernel_for(algebra, left.dtype)
        if (compiled is None or not left.shape[1] or right.shape[1] < 2
                or base.shape != (left.shape[0], right.shape[1])
                or algebra.result_dtype(base, left) != left.dtype):
            return super().relax(base, left, right, algebra)
        kernel, code = compiled
        out = np.empty(base.shape, dtype=left.dtype)
        kernel.relax(code, out, left, right, base.astype(left.dtype, copy=False))
        return out

    def combine(self, a, b, algebra):
        """``algebra.add`` in the operands' common supported dtype."""
        dtype = algebra.result_dtype(np.asarray(a), np.asarray(b))
        a = np.asarray(a, dtype=dtype)
        b = np.asarray(b, dtype=dtype)
        if a.shape != b.shape:
            raise ValidationError(
                f"MatMin requires equal shapes, got {a.shape} and {b.shape}")
        return algebra.add(a, b)

    @staticmethod
    def _require_mutable(block, algebra, op: str) -> None:
        """In-place kernels refuse arrays they could only mutate a copy of."""
        if not isinstance(block, np.ndarray) or block.dtype.name not in algebra.dtypes:
            raise ValidationError(
                f"{op} cannot mutate a {np.asarray(block).dtype.name} array in "
                f"place under algebra {algebra.name!r} (supported dtypes: "
                f"{', '.join(algebra.dtypes)}); convert the input first, e.g. "
                f"arr.astype(np.{algebra.default_dtype})")
        if block.ndim != 2:
            raise ValidationError(f"{op} needs a 2-D block, got ndim={block.ndim}")

    def fw_inplace(self, block, algebra):
        """Floyd-Warshall sweeps, pivot by pivot; array-likes are converted."""
        if not isinstance(block, np.ndarray):
            block = np.asarray(block, dtype=algebra.resolve_dtype(None))
        self._require_mutable(block, algebra, "floyd_warshall_inplace")
        if block.shape[0] != block.shape[1]:
            raise ValidationError(
                f"distance matrix must be square, got shape {block.shape}")
        compiled = native.kernel_for(algebra, block.dtype)
        if compiled is not None:
            kernel, code = compiled
            kernel.fw(code, block)
            return block
        for k in range(block.shape[0]):
            # block[i, j] = block[i, j] ⊕ (block[i, k] ⊗ block[k, j])
            algebra.add(block, algebra.mul(block[:, k, None], block[None, k, :]),
                        out=block)
        return block

    def rank1(self, block, col, row, algebra):
        """``block ⊕ (col[:, None] ⊗ row[None, :])`` in the common dtype."""
        dtype = algebra.result_dtype(np.asarray(block), np.asarray(col),
                                     np.asarray(row))
        block = np.asarray(block, dtype=dtype)
        col = np.asarray(col, dtype=dtype).reshape(-1)
        row = np.asarray(row, dtype=dtype).reshape(-1)
        if block.ndim != 2:
            raise ValidationError("block must be 2-D")
        if col.shape[0] != block.shape[0] or row.shape[0] != block.shape[1]:
            raise ValidationError(
                f"pivot slices have lengths {col.shape[0]}/{row.shape[0]} "
                f"but block is {block.shape}")
        compiled = (native.kernel_for(algebra, dtype)
                    if block.size > _NUMPY_RANK1_CELLS else None)
        if compiled is None:
            return algebra.add(block, algebra.mul(col[:, None], row[None, :]))
        kernel, code = compiled
        out = np.empty(block.shape, dtype=dtype)
        kernel.relax(code, out, col[:, None], row[None, :], block)
        return out

    def rank1_inplace(self, block, col, row, algebra):
        """Relax through :meth:`rank1`, write improved blocks back."""
        self._require_mutable(block, algebra, "fw_rank1_update_inplace")
        relaxed = self.rank1(block, col, row, algebra)
        changed = np.any(relaxed != block, axis=1)
        if changed.any():
            block[...] = relaxed
        return changed

    def column_piece(self, block, k):
        """A copy of column ``k`` (the block dtype is preserved)."""
        return np.array(block[:, k], copy=True)

    def row_piece(self, block, k):
        """A copy of row ``k``."""
        return np.array(block[k, :], copy=True)

    def encode(self, window, *, copy=True):
        """The window itself, copied unless the caller owns it."""
        return np.array(window, copy=True) if copy else window

    def to_dense(self, block):
        """The block itself, as an ndarray."""
        return np.asarray(block)

    def copy(self, block):
        """``np.array(block, copy=True)`` (accepts any array-like)."""
        return np.array(block, copy=True)

    def view(self, block, rows, cols):
        """A writable ndarray view."""
        return block[rows, cols]

    def store(self, block, rows, cols, value):
        """Slice assignment."""
        block[rows, cols] = value

    def blocked_fw_inplace(self, block, block_size, algebra):
        """Coerce unsupported inputs to the algebra's dtype, then run the generic loop."""
        if not isinstance(block, np.ndarray) or block.dtype.name not in algebra.dtypes:
            block = np.asarray(block, dtype=algebra.result_dtype(np.asarray(block)))
        return super().blocked_fw_inplace(block, block_size, algebra)


class PackedOps(PayloadOps):
    """:class:`~repro.linalg.bitset.PackedBlock`: word-parallel boolean kernels."""

    name = "packed"

    def supports(self, algebra):
        """Only algebras declaring ``"packed"`` storage (boolean reachability)."""
        return "packed" in algebra.storages

    def product(self, a, b, algebra, *, out=None):
        """:func:`~repro.linalg.bitset.packed_product`, overwriting ``out``."""
        if out is not None:
            # Match the dense kernel's out= contract (overwrite, don't
            # accumulate): packed_product itself ORs into out.
            out.words[:] = 0
        return bitset.packed_product(a, b, out=out)

    def combine(self, a, b, algebra):
        """Word-wise OR — 64 cells per machine word."""
        return bitset.packed_or(a, b)

    def fw_inplace(self, block, algebra):
        """:func:`~repro.linalg.bitset.packed_floyd_warshall_inplace`."""
        return bitset.packed_floyd_warshall_inplace(block)

    def rank1(self, block, col, row, algebra):
        """:func:`~repro.linalg.bitset.packed_rank1_update`."""
        return bitset.packed_rank1_update(block, col, row)

    def rank1_inplace(self, block, col, row, algebra):
        """:func:`~repro.linalg.bitset.packed_rank1_update_inplace`."""
        return bitset.packed_rank1_update_inplace(block, col, row)

    def column_piece(self, block, k):
        """A dense boolean column — pieces are tiny; packing happens at assembly."""
        return block.bit_column(k)

    def row_piece(self, block, k):
        """A dense boolean row."""
        return block.bit_row(k)

    def encode(self, window, *, copy=True):
        """Pack the (truthy) window; packing always copies."""
        return bitset.PackedBlock.from_dense(window)

    def to_dense(self, block):
        """Unpack to a boolean ndarray."""
        return block.to_dense()

    def blocked_fw_inplace(self, block, block_size, algebra):
        """Sub-blocks are not word-aligned: run the packed kernel on the whole block."""
        check_block_size(block_size, block.shape[0])
        return self.fw_inplace(block, algebra)


class WitnessOps(PayloadOps):
    """:class:`~repro.linalg.witness.WitnessBlock`: the witnessed product only.

    No solve carries witnessed blocks (parents are derived from the closure
    after it, :func:`~repro.linalg.witness.derive_parents`); this kernel set
    is kept for the benchmark ladder's ``witness_product`` rung and retires
    with it (ROADMAP ``[ruler-refresh]``).  Float blocks under the four
    numeric algebras take the compiled loop of :mod:`repro.linalg.native`
    whenever it loaded (planes without unit-stride rows are copied to C
    order first); everything else runs
    :func:`~repro.linalg.witness.witness_product`, which gives the same
    values and pointers.
    """

    name = "witnessed"

    def supports(self, algebra):
        """Only algebras with a witness policy (``witness_select``)."""
        return algebra.supports_witness

    def product(self, a, b, algebra, *, out=None):
        """``MatProd`` with witness composition (no ``out=``)."""
        if out is not None:
            raise ValidationError(
                "MatProd does not support out= for witnessed operands")
        lv, rv = algebra.product_operands(a.values, b.values)
        compiled = (native.kernel_for(algebra, lv.dtype)
                    if algebra.supports_witness else None)
        if compiled is None or not lv.shape[1]:
            return witness.witness_product(a, b, algebra)
        kernel, code = compiled
        shape = (lv.shape[0], rv.shape[1])
        product = witness.WitnessBlock(np.empty(shape, lv.dtype),
                                       np.empty(shape, np.int32),
                                       np.empty(shape, np.int32))
        kernel.witness_product(
            code, float(algebra.zero_like(lv.dtype)), product,
            witness.WitnessBlock(lv, a.parents, a.succs),
            witness.WitnessBlock(rv, b.parents, b.succs))
        return product


#: The three kernel sets (stateless singletons).
DENSE = DenseOps()
PACKED = PackedOps()
WITNESS = WitnessOps()

#: The resolver's type table; anything not listed is array-like, hence dense.
_OPS_BY_TYPE = {bitset.PackedBlock: PACKED, witness.WitnessBlock: WITNESS}

_OPS_BY_STORAGE = {"dense": DENSE, "packed": PACKED}


def payload_ops(*operands, algebra: Semiring | None = None) -> PayloadOps:
    """Resolve the kernel set shared by ``operands`` (block payloads).

    Raises :class:`~repro.common.errors.ValidationError` when the operands
    mix representations (a solve carries one payload type on every block) or
    when ``algebra`` (a resolved semiring) has no kernels for it.
    """
    found = {_OPS_BY_TYPE.get(type(operand), DENSE) for operand in operands}
    if len(found) != 1:
        raise ValidationError(
            f"cannot mix {' and '.join(sorted(o.name for o in found))} block "
            "operands; a solve carries one payload type on every block")
    ops = found.pop()
    if algebra is not None and not ops.supports(algebra):
        raise ValidationError(
            f"algebra {algebra.name!r} has no kernels for {ops.name} blocks")
    return ops


def storage_ops(storage: str = "dense") -> PayloadOps:
    """The kernel set a request's block ``storage`` decomposes its matrix into."""
    if storage not in _OPS_BY_STORAGE:
        raise ValidationError(
            f"unknown block storage {storage!r}; expected one of "
            f"{', '.join(_OPS_BY_STORAGE)}")
    return _OPS_BY_STORAGE[storage]

