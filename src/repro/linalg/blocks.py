"""2D block decomposition of adjacency/distance matrices.

The paper decomposes the adjacency matrix ``A`` into ``q x q`` dense blocks
with ``q = ceil(n / b)`` and stores them as ``((I, J), A_IJ)`` key-value
tuples in an RDD, keeping only the upper-triangular blocks and generating the
lower-triangular ones by transposition on demand (Section 4).  This module
implements that decomposition independent of the execution engine, so the
same code serves the sequential solvers, the Spark solvers, and the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator

import numpy as np

from repro.common.errors import ConfigurationError, ValidationError
from repro.common.validation import check_block_size, check_square_matrix
from repro.linalg.payload import payload_ops, storage_ops

#: A block key: (block-row index I, block-column index J).
BlockId = tuple[int, int]

#: Block grid layouts: the paper's mirrored upper triangle, or all q² blocks.
LAYOUTS = ("triangular", "full")


def num_blocks(n: int, block_size: int) -> int:
    """Return ``q = ceil(n / b)``, the number of block rows/columns."""
    b = check_block_size(block_size, n)
    return (n + b - 1) // b


def block_range(index: int, block_size: int, n: int) -> slice:
    """Return the slice of global indices covered by block row/column ``index``."""
    if index < 0:
        raise ValidationError("block index must be non-negative")
    start = index * block_size
    if start >= n:
        raise ValidationError(f"block index {index} out of range for n={n}, b={block_size}")
    return slice(start, min(start + block_size, n))


def block_shape(block_id: BlockId, block_size: int, n: int) -> tuple[int, int]:
    """Return the shape of block ``(I, J)`` (edge blocks may be smaller than b)."""
    ri = block_range(block_id[0], block_size, n)
    rj = block_range(block_id[1], block_size, n)
    return (ri.stop - ri.start, rj.stop - rj.start)


def upper_triangular_block_ids(q: int) -> Iterator[BlockId]:
    """Yield all block keys (I, J) with I <= J in row-major order."""
    for i in range(q):
        for j in range(i, q):
            yield (i, j)


def all_block_ids(q: int) -> Iterator[BlockId]:
    """Yield all q*q block keys in row-major order."""
    for i in range(q):
        for j in range(q):
            yield (i, j)


@dataclass(frozen=True)
class BlockGrid:
    """Which keys a ``q x q`` block grid stores, and how ``A_rc`` is read from them.

    The one place that knows the mirror rule.  ``"triangular"`` is the
    paper's symmetric storage (Section 4): only keys with ``I <= J`` exist
    and logical block ``A_JI`` is the stored ``A_IJ`` transposed, so a stored
    off-diagonal record plays two logical roles.  ``"full"`` stores all q²
    keys of a (possibly asymmetric) matrix; every record plays exactly its
    own role and nothing is ever transposed.  Cutters, assemblers, solver
    building blocks and the cost model are written once over this object.
    """

    q: int
    layout: str = "triangular"
    #: True when lower blocks are served by transposing their stored mirror.
    mirrored: bool = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.layout not in LAYOUTS:
            raise ConfigurationError(
                f"unknown block layout {self.layout!r}; expected one of {LAYOUTS}")
        object.__setattr__(self, "mirrored", self.layout == "triangular")

    def keys(self) -> Iterator[BlockId]:
        """The stored keys, row-major."""
        return (upper_triangular_block_ids(self.q) if self.mirrored
                else all_block_ids(self.q))

    @property
    def count(self) -> int:
        """Number of stored keys: ``q(q+1)/2`` mirrored, ``q²`` otherwise."""
        return self.q * (self.q + 1) // 2 if self.mirrored else self.q * self.q

    @classmethod
    def side_for(cls, count: float, layout: str = "triangular") -> int:
        """Grid side ``q`` whose stored count is about ``count`` (``q² / 2`` mirrored)."""
        per_block = 2.0 if cls(1, layout).mirrored else 1.0
        return int(math.ceil(math.sqrt(per_block * count)))

    def stores(self, r, c):
        """Whether key ``(r, c)`` is stored (elementwise on index arrays)."""
        return (r <= c) | (not self.mirrored)

    def locate(self, r: int, c: int) -> tuple[BlockId, bool]:
        """``(stored key, transposed)`` holding logical block ``A_rc``."""
        if self.mirrored and r > c:
            return (c, r), True
        return (r, c), False

    def roles(self, key: BlockId) -> tuple[tuple[int, int, bool], ...]:
        """The logical ``(r, c, transposed)`` positions record ``key`` plays.

        Stored orientation first, then (mirrored grids, off-diagonal keys)
        the transposed one; over all stored keys the roles cover the logical
        q x q grid exactly once.
        """
        i, j = key
        if self.mirrored and i != j:
            return (i, j, False), (j, i, True)
        return ((i, j, False),)


def matrix_to_blocks(matrix: np.ndarray, block_size: int, *,
                     layout: str = "triangular",
                     storage: str = "dense") -> Iterator[tuple[BlockId, np.ndarray]]:
    """Decompose a square matrix into ``((I, J), block)`` tuples.

    One record per stored key of the ``layout``'s :class:`BlockGrid`: the
    upper block triangle by default (the paper's symmetric storage; ``A_JI``
    is read as ``A_IJ.T``), all q² blocks under ``layout="full"``.  The
    input's floating/boolean dtype is preserved (``float32`` pipelines stay
    ``float32``); anything else is upcast to ``float64``.  With
    ``storage="packed"`` each (boolean) block is emitted as a
    :class:`~repro.linalg.bitset.PackedBlock` — 64 cells per word.
    """
    arr = check_square_matrix(matrix, dtype=None)
    n = arr.shape[0]
    b = check_block_size(block_size, n)
    grid = BlockGrid(num_blocks(n, b), layout)
    encode = storage_ops(storage).encode
    for (i, j) in grid.keys():
        # copy=True: the window is a view, and a record must not alias the input.
        yield (i, j), encode(arr[block_range(i, b, n), block_range(j, b, n)],
                             copy=True)


def blocks_to_matrix(blocks: Iterable[tuple[BlockId, np.ndarray]], n: int,
                     block_size: int, *, layout: str = "triangular",
                     fill: float | bool = np.inf,
                     dtype: np.dtype | str | None = None) -> np.ndarray:
    """Assemble ``((I, J), block)`` tuples back into a dense ``n x n`` matrix.

    Every record is written at its own key, then at the other positions it
    plays on the ``layout``'s grid (the transposed mirror under the default
    triangular layout) unless a record of that key was given.  ``fill`` is
    the value for never-seen cells (the algebra's "no path" element; ``inf``
    matches the historical (min, +) behaviour) and ``dtype`` the output dtype
    (``None`` preserves the first block's floating/boolean dtype, else
    ``float64``).
    """
    b = check_block_size(block_size, n)
    grid = BlockGrid(num_blocks(n, b), layout)
    blocks = [(key, payload_ops(blk).to_dense(blk)) for key, blk in blocks]
    if dtype is None:
        dtype = blocks[0][1].dtype if blocks else np.dtype(np.float64)
        if dtype.kind not in "fb":
            dtype = np.dtype(np.float64)
    out = np.full((n, n), fill, dtype=dtype)
    seen: set[BlockId] = set()
    for (i, j), block in blocks:
        ri, rj = block_range(i, b, n), block_range(j, b, n)
        expected = (ri.stop - ri.start, rj.stop - rj.start)
        block = np.asarray(block, dtype=dtype)
        if block.shape != expected:
            raise ValidationError(
                f"block {(i, j)} has shape {block.shape}, expected {expected}")
        out[ri, rj] = block
        seen.add((i, j))
    for i, j in seen:
        for r, c, _ in grid.roles((i, j))[1:]:
            if (r, c) not in seen:
                # roles past the first are the record's transposed positions
                out[block_range(r, b, n), block_range(c, b, n)] = \
                    out[block_range(i, b, n), block_range(j, b, n)].T
    return out
