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

* Table 1 speaks of logical blocks ``A_rc``; records are *stored* blocks.
  Every function that has to tell the two apart (``InColumn``,
  ``ExtractCol``, ``CopyDiag``, ``CopyCol``, the ``MatProd`` emission) takes
  the solve's :class:`~repro.linalg.blocks.BlockGrid` and asks it which
  logical roles a record plays and which keys are stored — one body serves
  the mirrored upper triangle and the full directed grid.  The only other
  grid fact consulted is ``mirrored``, by ``ExtractCol``: a mirrored grid's
  pivot row is its pivot column, so one vector is cut instead of two.
* Block copies produced by ``CopyDiag``/``CopyCol`` carry an orientation tag
  (``'D'``, ``'L'``, ``'R'``, ``'A'``) so that ``ListUnpack`` can pick the
  correct operand order for the non-commutative semiring product.  The paper
  leaves this bookkeeping implicit.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.common.errors import SolverError
from repro.linalg import bitset
from repro.linalg.algebra import Semiring, get_algebra
from repro.linalg.blocks import BlockGrid, BlockId
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
def in_column(grid: BlockGrid, x: int) -> Callable[[BlockRecord], bool]:
    """``InColumn``: true when the record holds part of logical block-column ``x``.

    That is every stored record one of whose grid roles has column index
    ``x`` — on a mirrored grid also the blocks of block-row ``x``, which
    supply the column's lower part transposed.
    """
    def predicate(record: BlockRecord) -> bool:
        """Test one block record against the column filter."""
        return any(c == x for _, c, _ in grid.roles(record[0]))
    return predicate


def in_block_row_or_column(x: int) -> Callable[[BlockRecord], bool]:
    """Stored blocks of the pivot cross: row *or* column index equals ``x``."""
    def predicate(record: BlockRecord) -> bool:
        """Test a record against the row/column filter."""
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
def extract_col(grid: BlockGrid, pivot_block: int,
                k_local: int) -> Callable[[BlockRecord], list]:
    """``ExtractCol``: emit this record's pieces of global pivot column (and row) ``k``.

    ``k = pivot_block * b + k_local``.  Every grid role ``A_rc`` of the record
    with ``c == pivot_block`` yields the piece of the pivot **column** in
    block-row ``r``: column ``k_local`` of the stored block, or its row
    ``k_local`` when the role is the transposed one.  On a mirrored grid that
    is everything — the pivot row is the column's transpose — and pieces are
    ``(r, piece)``.  A grid that does not mirror also needs the pivot
    **row** (a different vector of an asymmetric matrix), taken from the
    roles with ``r == pivot_block``; its pieces are tagged
    ``(("col", r), piece)`` / ``(("row", c), piece)``.

    What a piece *is* depends on the payload
    (:meth:`~repro.linalg.payload.PayloadOps.column_piece`): dense blocks emit
    slices in the block dtype; packed-bitset blocks emit dense boolean slices
    — the pieces are per-block and tiny, so packing happens once at assembly
    instead, where :func:`assemble_column` turns a boolean column into a
    :class:`~repro.linalg.bitset.PackedVector` and the per-pivot broadcast
    ships 1/8th the bytes.
    """
    mirrored = grid.mirrored

    def run(record: BlockRecord) -> list:
        """Emit this record's pieces of the pivot column (and row)."""
        key, block = record
        ops = payload_ops(block)
        pieces = []
        for r, c, transposed in grid.roles(key):
            if c == pivot_block:
                cut = ops.row_piece if transposed else ops.column_piece
                pieces.append((r if mirrored else ("col", r), cut(block, k_local)))
            if r == pivot_block and not mirrored:
                pieces.append((("row", c), ops.row_piece(block, k_local)))
        return pieces
    return run


def assemble_column(pieces: list[tuple[int, np.ndarray]], n: int, block_size: int,
                    algebra: Semiring | str | None = None) -> np.ndarray:
    """Assemble ``(block-row index, slice)`` pieces into the full length-``n`` column.

    Cells not covered by any piece hold the algebra's ``zero`` ("no path").
    Boolean (reachability)
    columns assemble into a :class:`~repro.linalg.bitset.PackedVector` — the
    fw-2d solver broadcasts the assembled vector every pivot, and packing
    shrinks that wire payload 8×; the rank-1 update callables are oblivious
    because packed-vector slices unpack to dense boolean windows.
    """
    algebra = get_algebra(algebra)
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


def assemble_pivot(pieces: list, grid: BlockGrid, n: int, block_size: int,
                   algebra: Semiring | str | None = None) -> list:
    """Assemble :func:`extract_col` pieces into the distinct pivot vectors.

    ``[column]`` on a mirrored grid (the pivot row is the same vector),
    ``[column, row]`` otherwise — each via :func:`assemble_column`.
    """
    if grid.mirrored:
        return [assemble_column(pieces, n, block_size, algebra)]
    return [assemble_column([(index, piece) for (tag, index), piece in pieces
                             if tag == side], n, block_size, algebra)
            for side in ("col", "row")]


class FloydWarshallUpdate:
    """``FloydWarshallUpdate``: rank-1 update of a block with the pivot column and row.

    The row operand of block ``(I, J)`` is sliced from the pivot column, the
    column operand from the pivot row.  On a mirrored grid both are the same
    (once-broadcast) vector.  A picklable callable so the ``processes``
    backend can ship the update to worker processes.
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


def blocked_work(grid: BlockGrid, block_size: int) -> dict[str, float]:
    """One blocked iteration's ``b³`` products as the paper counts them: the
    pivot closure, ``2(q - 1)`` row/column products, then the rest."""
    q, stored = grid.q, float(grid.count)
    kernel = float(block_size) ** 3
    panel = 2.0 * (q - 1)
    bulk = max(0.0, stored - 2 * (q - 1) - 1)
    return dict(pivot_ops=kernel, panel_ops=panel * kernel,
                bulk_ops=bulk * kernel, kernel_calls=1.0 + panel + bulk)


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


def copy_diag(grid: BlockGrid, pivot: int) -> Callable[[BlockRecord], list]:
    """``CopyDiag``: create keyed copies of the processed diagonal block.

    One copy per stored block of block-row/column ``pivot`` — for every other
    block index ``X``, whichever of the keys ``(X, pivot)`` and ``(pivot, X)``
    the grid stores — so the subsequent ``combineByKey`` pairs it with the
    block it must update.
    """
    keys = [key for x in range(grid.q) if x != pivot
            for key in ((x, pivot), (pivot, x)) if grid.stores(*key)]

    def run(record: BlockRecord) -> list:
        """Emit the keyed copies of the pivot diagonal block."""
        _, block = record
        return [(key, (TAG_DIAG, block)) for key in keys]
    return run


def copy_col(grid: BlockGrid, pivot: int) -> Callable[[BlockRecord], list]:
    """``CopyCol``: replicate updated row/column blocks to the Phase-3 targets.

    A grid role ``A_{I,pivot}`` of the record is the **left** operand of
    every stored target ``(I, X)``; a role ``A_{pivot,J}`` is the **right**
    operand of every stored target ``(X, J)`` — ``X`` ranging over all block
    indices except ``pivot`` (the off-pivot diagonal blocks are ordinary
    targets).  On a mirrored grid a record plays one role of each kind, the
    second through its transpose; otherwise exactly one, never transposed.
    """
    stores = grid.stores

    def run(record: BlockRecord) -> list:
        """Emit the oriented operand copies for the phase-3 targets."""
        key, block = record
        left = right = None
        for r, c, transposed in grid.roles(key):
            # (the diagonal pivot block is neither: it never reaches CopyCol)
            if c == pivot and r != pivot:
                left = (r, block.T if transposed else block)    # A_{r, pivot}
            elif r == pivot and c != pivot:
                right = (c, block.T if transposed else block)   # A_{pivot, c}
        out = []
        for x in range(grid.q):
            if x == pivot:
                continue
            if left is not None and stores(left[0], x):
                out.append(((left[0], x), (TAG_LEFT, left[1])))
            if right is not None and stores(x, right[0]):
                out.append(((x, right[0]), (TAG_RIGHT, right[1])))
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
        if base is None:
            raise ValueError(f"phase-2 pairing for block {key} is missing the base block")
        diag = _operand(entries, TAG_DIAG, key)
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
        if base is None:
            raise ValueError(f"phase-3 pairing for block {key} is missing the base block")
        left = _operand(entries, TAG_LEFT, key)
        right = _operand(entries, TAG_RIGHT, key)
        return key, semiring_relax(base, left, right, algebra)
    return run


def _find(entries: list, tag: str):
    for entry_tag, value in entries:
        if entry_tag == tag:
            return value
    return None


def _operand(entries: list, tag: str, key: BlockId):
    """The ``tag`` entry of a pairing list; its absence is a copy-emission bug.

    Every row/column block gets a diagonal copy and every phase-3 target both
    operands, so a missing one must not degrade into an unchanged (silently
    wrong) block.
    """
    value = _find(entries, tag)
    if value is None:
        raise SolverError(
            f"pairing for block {key} is missing its {tag!r} operand "
            f"(got tags {[entry_tag for entry_tag, _ in entries]})")
    return value


# ---------------------------------------------------------------------------
# Repeated-squaring emission
# ---------------------------------------------------------------------------
def matprod_column_contributions(grid: BlockGrid, target_column: int,
                                 column_blocks: dict[int, np.ndarray] | Callable[[int], np.ndarray],
                                 algebra: Semiring | str | None = None,
                                 ) -> Callable[[BlockRecord], list]:
    """Emit the semiring-product contributions of a stored block to output column ``J``.

    Each grid role ``A_{row, inner}`` of the record (the stored orientation
    first, then — on a mirrored grid — its transpose) contributes
    ``A_{row, inner} ⊗ A_{inner, J}`` to output key ``(row, J)``, where
    ``A_{inner, J}`` is block ``inner`` of the staged column ``J``; output
    keys the grid does not store are skipped (their mirror covers them).
    ``column_blocks`` is either the dict of staged blocks or a callable
    fetching them lazily (e.g. from the shared file system).
    """
    algebra = get_algebra(algebra)

    def fetch(inner: int) -> np.ndarray:
        """Resolve a staged column block by block-row index."""
        if callable(column_blocks):
            return column_blocks(inner)
        return column_blocks[inner]

    def run(record: BlockRecord) -> list:
        """Emit this record's products into the target column."""
        key, block = record
        out = []
        for row, inner, transposed in grid.roles(key):
            if not grid.stores(row, target_column):
                continue
            oriented = block.T if transposed else block
            out.append(((row, target_column),
                        semiring_product(oriented, fetch(inner), algebra)))
        return out
    return run
