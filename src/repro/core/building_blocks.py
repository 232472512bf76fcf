"""The functional building blocks of Table 1.

Each function here corresponds to an entry of Table 1 in the paper.  They are
written as *factories* returning closures suitable for passing to RDD
transformations, so a solver body reads almost exactly like the paper's
pseudo-code (e.g. ``A.filter(in_column(j))`` or
``A.map(FloydWarshallBlock(algebra))``).

All kernels are parameterized by a :class:`~repro.linalg.algebra.Semiring`
(``algebra=None`` keeps the paper's (min, +)); the callables that must cross
process boundaries under the ``processes`` scheduler backend are picklable
classes, and semirings themselves pickle by name.

Two presentational differences from Table 1, both noted per function:

* With symmetric (upper-triangular) block storage, "column-block x" means
  every stored block with *either* index equal to ``x``; the symmetric
  predicates are provided alongside the literal ones.
* Block copies produced by ``CopyDiag``/``CopyCol`` carry an orientation tag
  (``'D'``, ``'L'``, ``'R'``, ``'A'``) so that ``ListUnpack`` can pick the
  correct operand order for the non-commutative semiring product.  The paper
  leaves this bookkeeping implicit.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.linalg import bitset, witness
from repro.linalg.algebra import Semiring, get_algebra
from repro.linalg.blocks import BlockId
from repro.linalg.kernels import fw_rank1_update
from repro.linalg.payload import payload_ops
from repro.linalg.semiring import (elementwise_combine, semiring_product,
                                   semiring_relax)

#: Record type used by all solvers: ``((I, J), block)``.
BlockRecord = tuple[BlockId, np.ndarray]

# Orientation tags used by the blocked solvers' pairing step.
TAG_BASE = "A"      # the block being updated
TAG_DIAG = "D"      # processed diagonal (pivot) block
TAG_LEFT = "L"      # left operand  A_It  of the phase-3 product
TAG_RIGHT = "R"     # right operand A_tJ  of the phase-3 product


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------
def in_column(x: int) -> Callable[[BlockRecord], bool]:
    """``InColumn``: true when the record's block-column index ``J`` equals ``x``."""
    def predicate(record: BlockRecord) -> bool:
        """Test one block record against the column filter."""
        (_, j), _ = record
        return j == x
    return predicate


def in_block_row_or_column(x: int) -> Callable[[BlockRecord], bool]:
    """Symmetric-storage variant of ``InColumn``.

    With only upper-triangular blocks stored, block-column ``x`` of the full
    matrix is covered by stored blocks whose row *or* column index equals
    ``x`` (the latter provide the transposed part).
    """
    def predicate(record: BlockRecord) -> bool:
        """Test a record against the symmetric row/column filter."""
        (i, j), _ = record
        return i == x or j == x
    return predicate


def not_in_block_row_or_column(x: int) -> Callable[[BlockRecord], bool]:
    """Negation of :func:`in_block_row_or_column` (the Phase-3 block set)."""
    inner = in_block_row_or_column(x)
    return lambda record: not inner(record)


def on_diagonal(x: int) -> Callable[[BlockRecord], bool]:
    """``OnDiagonal``: true for the block ``(x, x)``."""
    def predicate(record: BlockRecord) -> bool:
        """Test whether a record is the pivot diagonal block."""
        (i, j), _ = record
        return i == x and j == x
    return predicate


def off_diagonal_in_row_or_column(x: int) -> Callable[[BlockRecord], bool]:
    """Stored blocks of block-row/column ``x`` excluding the diagonal block itself."""
    def predicate(record: BlockRecord) -> bool:
        """Test for off-diagonal blocks of the pivot row/column."""
        (i, j), _ = record
        return (i == x) ^ (j == x)
    return predicate


# ---------------------------------------------------------------------------
# Column extraction (2D Floyd-Warshall)
# ---------------------------------------------------------------------------
def extract_col(pivot_block: int, k_local: int) -> Callable[[BlockRecord], list]:
    """``ExtractCol``: emit ``(I, column-slice)`` pieces of global column ``k``.

    ``k = pivot_block * b + k_local``.  For a stored block ``(I, K)`` the piece
    is column ``k_local`` of the block; for a stored block ``(K, J)`` (which
    represents ``A_JK`` by transposition) the piece is row ``k_local``.
    What a piece *is* depends on the payload
    (:meth:`~repro.linalg.payload.PayloadOps.column_piece`): dense blocks emit
    slices in the block dtype; packed-bitset blocks emit dense boolean slices
    — the pieces are per-block and tiny, so packing happens once at assembly
    instead, where :func:`assemble_column` turns a boolean column into a
    :class:`~repro.linalg.bitset.PackedVector` and the per-pivot broadcast
    ships 1/8th the bytes.  Witnessed blocks emit
    :class:`~repro.linalg.witness.WitnessVector` pieces whose single
    ``toward`` plane is each vertex's neighbour on its optimal path to the
    pivot vertex: the *successor* column for a column slice, the *parent* row
    for a row slice — the same quantity by symmetry, which is what lets one
    broadcast vector serve both operand roles of the rank-1 update.
    """
    def run(record: BlockRecord) -> list:
        """Emit this record's pieces of the pivot column."""
        (i, j), block = record
        ops = payload_ops(block)
        pieces = []
        if j == pivot_block:
            pieces.append((i, ops.column_piece(block, k_local)))
        if i == pivot_block and j != pivot_block:
            pieces.append((j, ops.row_piece(block, k_local)))
        return pieces
    return run


def extract_rowcol(pivot_block: int, k_local: int) -> Callable[[BlockRecord], list]:
    """Full-grid ``ExtractCol``: emit tagged pieces of pivot column *and* row ``k``.

    The directed counterpart of :func:`extract_col`: with all q² blocks
    stored nothing transposes, so the pivot **column** comes only from
    blocks in block-column ``pivot_block`` (tag ``("col", I)``) and the
    pivot **row** only from blocks in block-row ``pivot_block`` (tag
    ``("row", J)``) — they are different vectors for an asymmetric matrix.
    The column of a (single-plane) witnessed block carries bare values —
    parents-only composition needs no pointer plane on the column operand —
    and its row carries the pivot's parent row as the ``toward`` plane.
    """
    def run(record: BlockRecord) -> list:
        """Emit this record's tagged pieces of the pivot row/column."""
        (i, j), block = record
        ops = payload_ops(block)
        pieces = []
        if j == pivot_block:
            pieces.append((("col", i), ops.column_piece(block, k_local)))
        if i == pivot_block:
            pieces.append((("row", j), ops.row_piece(block, k_local)))
        return pieces
    return run


def assemble_column(pieces: list[tuple[int, np.ndarray]], n: int, block_size: int,
                    algebra: Semiring | str | None = None) -> np.ndarray:
    """Assemble ``(block-row index, slice)`` pieces into the full length-``n`` column.

    Cells not covered by any piece hold the algebra's ``zero`` ("no path").
    Witnessed pieces assemble into a full
    :class:`~repro.linalg.witness.WitnessVector` (uncovered ``toward`` cells
    hold :data:`~repro.linalg.witness.NO_VERTEX`).  Boolean (reachability)
    columns assemble into a :class:`~repro.linalg.bitset.PackedVector` — the
    fw-2d solver broadcasts the assembled vector every pivot, and packing
    shrinks that wire payload 8×; the rank-1 update callables are oblivious
    because packed-vector slices unpack to dense boolean windows.
    """
    algebra = get_algebra(algebra)
    if pieces and witness.is_witness_vector(pieces[0][1]):
        dtype = pieces[0][1].dtype
        values = np.full(n, algebra.zero_like(dtype), dtype=dtype)
        toward = np.full(n, witness.NO_VERTEX, dtype=np.int32)
        for block_row, piece in pieces:
            start = block_row * block_size
            values[start:start + piece.shape[0]] = piece.values
            toward[start:start + piece.shape[0]] = piece.toward
        return witness.WitnessVector(values, toward)
    dtype = (np.asarray(pieces[0][1]).dtype if pieces
             else np.dtype(algebra.default_dtype))
    if dtype.kind not in ("f", "b"):
        dtype = np.dtype(algebra.default_dtype)
    column = np.full(n, algebra.zero_like(dtype), dtype=dtype)
    for block_row, piece in pieces:
        start = block_row * block_size
        column[start:start + piece.shape[0]] = piece
    if dtype.kind == "b":
        return bitset.PackedVector.from_dense(column)
    return column


class FloydWarshallUpdateWithColumn:
    """``FloydWarshallUpdate``: rank-1 update of a block with the broadcast pivot column.

    Exploits symmetry: the pivot row equals the pivot column, so both operand
    slices come from the same vector.  A picklable callable so the
    ``processes`` backend can ship the update to worker processes.
    """

    __slots__ = ("column", "block_size", "algebra")

    def __init__(self, column: np.ndarray, block_size: int,
                 algebra: Semiring | str | None = None) -> None:
        self.column = column
        self.block_size = block_size
        self.algebra = get_algebra(algebra)

    def __call__(self, record: BlockRecord) -> BlockRecord:
        (i, j), block = record
        rows = self.column[i * self.block_size: i * self.block_size + block.shape[0]]
        cols = self.column[j * self.block_size: j * self.block_size + block.shape[1]]
        return (i, j), fw_rank1_update(block, rows, cols, self.algebra)


class FloydWarshallUpdateWithRowCol:
    """Directed ``FloydWarshallUpdate``: distinct pivot column and pivot row.

    The full-grid counterpart of :class:`FloydWarshallUpdateWithColumn`: an
    asymmetric matrix's pivot row is *not* its pivot column, so the rank-1
    update broadcasts both vectors and slices the row operand from the
    column vector and the column operand from the row vector.  Picklable for
    the ``processes`` backend.
    """

    __slots__ = ("column", "row", "block_size", "algebra")

    def __init__(self, column: np.ndarray, row: np.ndarray, block_size: int,
                 algebra: Semiring | str | None = None) -> None:
        self.column = column
        self.row = row
        self.block_size = block_size
        self.algebra = get_algebra(algebra)

    def __call__(self, record: BlockRecord) -> BlockRecord:
        (i, j), block = record
        rows = self.column[i * self.block_size: i * self.block_size + block.shape[0]]
        cols = self.row[j * self.block_size: j * self.block_size + block.shape[1]]
        return (i, j), fw_rank1_update(block, rows, cols, self.algebra)


# ---------------------------------------------------------------------------
# Block kernels
# ---------------------------------------------------------------------------
class FloydWarshallBlock:
    """``FloydWarshall``: solve the path closure within a diagonal block.

    A picklable callable class (rather than a closure over the algebra) so
    the phase-1 kernel can run in worker processes under the ``processes``
    scheduler backend.
    """

    __slots__ = ("algebra",)

    def __init__(self, algebra: Semiring | str | None = None) -> None:
        self.algebra = get_algebra(algebra)

    def __call__(self, record: BlockRecord) -> BlockRecord:
        key, block = record
        ops = payload_ops(block, algebra=self.algebra)
        return key, ops.fw_inplace(ops.copy(block), self.algebra)


def mat_min(record: BlockRecord, other: np.ndarray,
            algebra: Semiring | str | None = None) -> BlockRecord:
    """``MatMin``: elementwise ⊕ of the record's block with ``other``."""
    key, block = record
    return key, elementwise_combine(block, other, algebra)


def mat_prod(record: BlockRecord, other: np.ndarray,
             algebra: Semiring | str | None = None) -> BlockRecord:
    """``MatProd``: semiring product of the record's block with ``other``."""
    key, block = record
    return key, semiring_product(block, other, algebra)


def min_plus(record: BlockRecord, other: np.ndarray, *, other_on_left: bool = False,
             algebra: Semiring | str | None = None) -> BlockRecord:
    """``MinPlus``: ``MatProd`` followed by ``MatMin`` against the original block.

    ``other_on_left`` selects ``other ⊗ A_IJ`` instead of ``A_IJ ⊗ other``;
    the orientation matters because semiring products do not commute in
    general (even with a commutative ⊗, the matrix product does not).
    """
    key, block = record
    if other_on_left:
        return key, semiring_relax(block, other, block, algebra)
    return key, semiring_relax(block, block, other, algebra)


# ---------------------------------------------------------------------------
# Copy / pairing helpers for the blocked solvers
# ---------------------------------------------------------------------------
def tag_base(record: BlockRecord) -> tuple[BlockId, tuple[str, np.ndarray]]:
    """Wrap a stored block as the ``'A'`` (base) member of a pairing list."""
    key, block = record
    return key, (TAG_BASE, block)


def copy_diag(q: int, pivot: int, *, layout: str = "triangular",
              ) -> Callable[[BlockRecord], list]:
    """``CopyDiag``: create keyed copies of the processed diagonal block.

    Each copy is keyed by a stored block of block-row/column ``pivot`` so
    the subsequent ``combineByKey`` pairs it with the block it must update.
    Under the triangular layout that is one key per partner (``(X, pivot)``
    for ``X < pivot``, ``(pivot, X)`` for ``X > pivot``); under the full
    grid both ``(X, pivot)`` and ``(pivot, X)`` are distinct stored blocks
    and each gets its own copy (``2 (q - 1)`` in total).
    """
    def run(record: BlockRecord) -> list:
        """Emit the keyed copies of the pivot diagonal block."""
        (_, _), block = record
        out = []
        for x in range(q):
            if x == pivot:
                continue
            if layout == "full":
                out.append(((x, pivot), (TAG_DIAG, block)))
                out.append(((pivot, x), (TAG_DIAG, block)))
            else:
                key = (x, pivot) if x < pivot else (pivot, x)
                out.append((key, (TAG_DIAG, block)))
        return out
    return run


def copy_col(q: int, pivot: int) -> Callable[[BlockRecord], list]:
    """``CopyCol``: replicate updated row/column blocks to the Phase-3 targets.

    A stored block ``(I, pivot)`` (``I < pivot``) holds ``A_{I,pivot}``; it is
    the **left** operand for every target in block-row ``I`` and, transposed,
    the **right** operand for every target in block-column ``I``.  A stored
    block ``(pivot, J)`` (``J > pivot``) holds ``A_{pivot,J}``; it is the
    **right** operand for block-column ``J`` and, transposed, the **left**
    operand for block-row ``J``.  Targets are restricted to stored
    (upper-triangular) keys outside block-row/column ``pivot``.
    """
    def run(record: BlockRecord) -> list:
        """Emit the oriented operand copies for the phase-3 targets."""
        (i, j), block = record
        out = []
        if j == pivot and i != pivot:
            owner = i            # block A_{owner, pivot}
            left, right = block, block.T
        elif i == pivot and j != pivot:
            owner = j            # block A_{pivot, owner} -> transpose is A_{owner, pivot}
            left, right = block.T, block
        else:  # diagonal pivot block never reaches CopyCol
            return out
        for x in range(q):
            if x == pivot:
                continue
            key = (min(owner, x), max(owner, x))
            if x >= owner:
                # target (owner, x): left operand A_{owner, pivot}
                out.append((key, (TAG_LEFT, left)))
            if x <= owner:
                # target (x, owner): right operand A_{pivot, owner}
                out.append((key, (TAG_RIGHT, right)))
        return out
    return run


def copy_col_full(q: int, pivot: int) -> Callable[[BlockRecord], list]:
    """Full-grid ``CopyCol``: replicate pivot row/column blocks without transposes.

    With every block stored, orientation is trivial: stored ``(I, pivot)``
    is the **left** operand ``A_{I,pivot}`` for every phase-3 target
    ``(I, X)``, and stored ``(pivot, J)`` is the **right** operand
    ``A_{pivot,J}`` for every target ``(X, J)`` — ``X`` ranging over all
    block indices except ``pivot`` (including ``X == I``/``X == J``: the
    off-pivot diagonal blocks are ordinary phase-3 targets).  No ``.T``
    anywhere, which is what lets single-plane witnessed blocks flow through.
    """
    def run(record: BlockRecord) -> list:
        """Emit the oriented operand copies for the full-grid phase-3 targets."""
        (i, j), block = record
        out = []
        if j == pivot and i != pivot:
            for x in range(q):
                if x == pivot:
                    continue
                out.append(((i, x), (TAG_LEFT, block)))
        elif i == pivot and j != pivot:
            for x in range(q):
                if x == pivot:
                    continue
                out.append(((x, j), (TAG_RIGHT, block)))
        return out
    return run


def list_append(acc: list, item) -> list:
    """``ListAppend``: combiner that accumulates paired entries into a list."""
    acc.append(item)
    return acc


def create_list(item) -> list:
    """``ListAppend`` companion: create the initial single-element list."""
    return [item]


def merge_lists(a: list, b: list) -> list:
    """``ListAppend`` companion: merge two partial lists (combiner merge)."""
    return a + b


class ElementwiseCombine:
    """Picklable binary ⊕ for ``reduceByKey`` (``MatMin`` as a reducer)."""

    __slots__ = ("algebra",)

    def __init__(self, algebra: Semiring | str | None = None) -> None:
        self.algebra = get_algebra(algebra)

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return elementwise_combine(a, b, self.algebra)


def unpack_phase2(pivot: int, algebra: Semiring | str | None = None,
                  ) -> Callable[[tuple[BlockId, list]], BlockRecord]:
    """``ListUnpack`` for Phase 2: pair a row/column block with the pivot diagonal.

    For a block in block-column ``pivot`` (key ``(I, pivot)``) the update is
    ``A ⊕ (A ⊗ D)``; for a block in block-row ``pivot`` (key ``(pivot, J)``)
    it is ``A ⊕ (D ⊗ A)``.
    """
    algebra = get_algebra(algebra)

    def run(item: tuple[BlockId, list]) -> BlockRecord:
        """Apply the phase-2 update to one paired record."""
        key, entries = item
        base = _find(entries, TAG_BASE)
        diag = _find(entries, TAG_DIAG)
        if base is None:
            raise ValueError(f"phase-2 pairing for block {key} is missing the base block")
        if diag is None:
            # A diagonal copy can be missing only if the block set is
            # inconsistent; keep the block unchanged to stay safe.
            return key, base
        if key[1] == pivot:
            return key, semiring_relax(base, base, diag, algebra)
        return key, semiring_relax(base, diag, base, algebra)
    return run


def unpack_phase3(pivot: int, algebra: Semiring | str | None = None,
                  ) -> Callable[[tuple[BlockId, list]], BlockRecord]:
    """``ListUnpack`` + ``MatMin`` for Phase 3: ``A_IJ ⊕ (A_It ⊗ A_tJ)``."""
    algebra = get_algebra(algebra)

    def run(item: tuple[BlockId, list]) -> BlockRecord:
        """Apply the phase-3 update to one paired record."""
        key, entries = item
        base = _find(entries, TAG_BASE)
        left = _find(entries, TAG_LEFT)
        right = _find(entries, TAG_RIGHT)
        if base is None:
            raise ValueError(f"phase-3 pairing for block {key} is missing the base block")
        if left is None or right is None:
            return key, base
        return key, semiring_relax(base, left, right, algebra)
    return run


def _find(entries: list, tag: str):
    for entry_tag, value in entries:
        if entry_tag == tag:
            return value
    return None


# ---------------------------------------------------------------------------
# Repeated-squaring emission
# ---------------------------------------------------------------------------
def matprod_column_contributions(target_column: int,
                                 column_blocks: dict[int, np.ndarray] | Callable[[int], np.ndarray],
                                 algebra: Semiring | str | None = None, *,
                                 layout: str = "triangular",
                                 ) -> Callable[[BlockRecord], list]:
    """Emit the semiring-product contributions of a stored block to output column ``J``.

    Under the triangular layout a stored block ``(R, C)`` plays two roles,
    ``A_RC`` and ``A_CR`` (by transposition), and output keys above the
    diagonal are skipped (covered by the symmetric mirror).  For output key
    ``(row, J)`` the contribution of role ``A_{row, inner}`` is
    ``A_{row, inner} ⊗ A_{inner, J}`` where ``A_{inner, J}`` is block
    ``inner`` of the staged column ``J``.  Under the full grid each stored
    block plays exactly its one role ``A_RC`` and every output key is real —
    no transposes, no skips.  ``column_blocks`` is either the dict of staged
    blocks or a callable fetching them lazily (e.g. from the shared file
    system).
    """
    algebra = get_algebra(algebra)

    def fetch(inner: int) -> np.ndarray:
        """Resolve a staged column block by block-row index."""
        if callable(column_blocks):
            return column_blocks(inner)
        return column_blocks[inner]

    def run(record: BlockRecord) -> list:
        """Emit this record's products into the target column."""
        (r, c), block = record
        if layout == "full":
            return [((r, target_column),
                     semiring_product(block, fetch(c), algebra))]
        roles = [(r, c, block)]
        if r != c:
            roles.append((c, r, block.T))
        out = []
        for row, inner, oriented in roles:
            if row > target_column:
                continue  # covered by the symmetric output block
            other = fetch(inner)
            out.append(((row, target_column),
                        semiring_product(oriented, other, algebra)))
        return out
    return run
