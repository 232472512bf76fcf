"""Packed-bitset storage and kernels for the boolean ``reachability`` algebra.

The (or, and) semiring needs exactly one bit per matrix cell, yet a ``bool``
ndarray spends a full byte per cell and the generic product kernel streams a
``(rows, k, n)`` byte cube through memory.  This module packs each block row
into ``uint64`` words — 64 adjacency bits per word, 64x denser than ``bool``
ndarrays, 8x fewer bytes of traffic — and rewrites the Table-1 building
blocks as word-parallel bitwise kernels:

* ⊕ (``MatMin``)  becomes ``np.bitwise_or`` over the word arrays,
* ⊗-then-⊕ inner products (``MatProd``) become, for every set bit ``k`` of
  the left operand, a word-wise OR of the right operand's row ``k`` into the
  output rows (the per-bit column expansion of ``C |= A[:, k] & bcast(B[k])``),
* the Floyd-Warshall pivot loop becomes ``rows with bit k set |= row k``.

Bit layout — the zero-padding invariant
---------------------------------------
A block of shape ``(r, c)`` is stored as ``(r, ceil(c / 64))`` ``uint64``
words; bit ``b`` of word ``w`` in row ``i`` is cell ``(i, 64 * w + b)``.
When ``c % 64 != 0`` (the ragged edge blocks of a decomposition whose
``n % 64 != 0``), the last word of every row has ``64 - c % 64`` padding
bits past column ``c`` that are **always zero**.  This is a *global
invariant*, not a per-call cleanup: :func:`pack_bits` establishes it, and
every kernel preserves it *for free* because each one only combines words
with OR/AND against other invariant-respecting words (``0 | 0 = 0``,
``x & 0 = 0``) — no kernel ever needs to re-mask.  The invariant is what
makes word-level ``np.array_equal`` a correct block-equality test, lets
:func:`packed_product` OR whole rows without clipping, and keeps
``unpack_bits`` round-trips exact.  Anything that writes raw words (a new
kernel, a deserializer) must uphold it or every downstream kernel silently
corrupts the ragged edge.

:class:`PackedBlock` is deliberately *not* an ndarray subclass: the blocked
solvers only ever transpose, copy, pickle and combine blocks, and keeping the
type opaque guarantees no NumPy kernel silently unpacks one.  The public
kernel entry points reach this module through the ``PACKED`` kernel set of
:mod:`repro.linalg.payload`, the one place payload types are told apart.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import ValidationError

#: Bits packed per storage word.
WORD_BITS = 64

_U64 = np.uint64


def packed_width(n_cols: int) -> int:
    """Number of ``uint64`` words needed for ``n_cols`` bits."""
    if n_cols < 0:
        raise ValidationError("column count must be non-negative")
    return (n_cols + WORD_BITS - 1) // WORD_BITS


if hasattr(np, "bitwise_count"):  # NumPy >= 2.0: hardware popcount ufunc
    def popcount_words(words: np.ndarray) -> int:
        """Total number of set bits across a ``uint64`` word array."""
        return int(np.bitwise_count(np.asarray(words, dtype=_U64)).sum())
else:  # pragma: no cover - exercised only on NumPy < 2.0
    _POPCOUNT_LUT = np.array([bin(i).count("1") for i in range(256)],
                             dtype=np.uint8)

    def popcount_words(words: np.ndarray) -> int:
        """Total number of set bits across a ``uint64`` word array.

        Byte-LUT fallback for NumPy < 2.0 (no ``bitwise_count``): view the
        words as bytes and sum a 256-entry popcount table.
        """
        arr = np.ascontiguousarray(words, dtype=_U64)
        return int(_POPCOUNT_LUT[arr.view(np.uint8)].sum(dtype=np.int64))


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a boolean ``(r, c)`` array into ``(r, ceil(c/64))`` uint64 words.

    Establishes the zero-padding invariant (see the module docstring): the
    padded byte buffer is zero-initialized, so bits beyond column ``c`` are
    zero in every word.  Accepts 1-D input as a single row (returned as
    ``(1, w)``).
    """
    arr = np.asarray(bits)
    if arr.ndim == 1:
        arr = arr[None, :]
    if arr.ndim != 2:
        raise ValidationError(f"pack_bits expects a 1-D or 2-D array, got ndim={arr.ndim}")
    arr = np.ascontiguousarray(arr, dtype=np.uint8)
    r, c = arr.shape
    w = packed_width(c)
    # packbits gives ceil(c/8) bytes per row; pad to the 8-byte word boundary.
    raw = np.packbits(arr, axis=1, bitorder="little")
    padded = np.zeros((r, w * 8), dtype=np.uint8)
    padded[:, : raw.shape[1]] = raw
    # Assemble words from byte lanes explicitly (endianness-independent).
    lanes = padded.reshape(r, w, 8)
    words = np.zeros((r, w), dtype=_U64)
    for lane in range(8):
        words |= lanes[:, :, lane].astype(_U64) << _U64(8 * lane)
    return words


def unpack_bits(words: np.ndarray, n_cols: int) -> np.ndarray:
    """Unpack ``(r, w)`` uint64 words back into a boolean ``(r, n_cols)`` array."""
    arr = np.asarray(words, dtype=_U64)
    if arr.ndim != 2:
        raise ValidationError(f"unpack_bits expects a 2-D word array, got ndim={arr.ndim}")
    r, w = arr.shape
    if packed_width(n_cols) != w:
        raise ValidationError(
            f"word array of width {w} cannot hold exactly {n_cols} columns")
    lanes = np.empty((r, w, 8), dtype=np.uint8)
    for lane in range(8):
        lanes[:, :, lane] = ((arr >> _U64(8 * lane)) & _U64(0xFF)).astype(np.uint8)
    flat = lanes.reshape(r, w * 8)
    bits = np.unpackbits(flat, axis=1, bitorder="little", count=n_cols)
    return bits.astype(bool)


class PackedBlock:
    """A boolean matrix block stored as 64 adjacency bits per ``uint64`` word.

    ``words`` has shape ``(rows, ceil(cols / 64))``; ``shape`` is the logical
    ``(rows, cols)``.  Instances pickle by their two attributes, so packed
    blocks travel across the ``processes`` scheduler backend and the shared
    file system at 1/8th the bytes of the equivalent ``bool`` block.
    """

    __slots__ = ("words", "shape", "_bits_set")

    def __init__(self, words: np.ndarray, shape: tuple[int, int]) -> None:
        words = np.asarray(words, dtype=_U64)
        rows, cols = int(shape[0]), int(shape[1])
        if words.ndim != 2 or words.shape != (rows, packed_width(cols)):
            raise ValidationError(
                f"word array has shape {words.shape}, expected "
                f"{(rows, packed_width(cols))} for logical shape {(rows, cols)}")
        self.words = words
        self.shape = (rows, cols)
        self._bits_set: int | None = None

    # -- construction / conversion ----------------------------------------
    @classmethod
    def from_dense(cls, block: np.ndarray) -> "PackedBlock":
        """Pack a dense boolean (or truthy) 2-D block."""
        arr = np.asarray(block)
        if arr.ndim != 2:
            raise ValidationError(f"block must be 2-D, got ndim={arr.ndim}")
        if arr.dtype != np.bool_:
            arr = arr.astype(bool)
        return cls(pack_bits(arr), arr.shape)

    def to_dense(self) -> np.ndarray:
        """Unpack back to a boolean ndarray of the logical shape."""
        return unpack_bits(self.words, self.shape[1])

    def copy(self) -> "PackedBlock":
        """Deep copy (fresh word array, same logical shape)."""
        clone = PackedBlock(self.words.copy(), self.shape)
        clone._bits_set = self._bits_set
        return clone

    # -- density metric -----------------------------------------------------
    @property
    def bits_set(self) -> int:
        """Number of set bits, popcounted lazily and cached on the block.

        The zero-padding invariant makes the word-level popcount exact (pad
        bits are always zero).  Kernels that mutate ``words`` in place call
        :meth:`invalidate_popcount`; anything else writing raw words must do
        the same or the cached density goes stale.
        """
        if self._bits_set is None:
            self._bits_set = popcount_words(self.words)
        return self._bits_set

    @property
    def density(self) -> float:
        """Fraction of logical cells set (``bits_set / (rows * cols)``)."""
        rows, cols = self.shape
        cells = rows * cols
        return (self.bits_set / cells) if cells else 0.0

    def invalidate_popcount(self) -> None:
        """Drop the cached popcount after an in-place mutation of ``words``."""
        self._bits_set = None

    # -- ndarray-flavoured surface the solvers rely on ---------------------
    @property
    def T(self) -> "PackedBlock":
        """Packed transpose (repack of the transposed dense bits)."""
        return PackedBlock.from_dense(self.to_dense().T)

    @property
    def nbytes(self) -> int:
        """Bytes held by the packed word array."""
        return int(self.words.nbytes)

    @property
    def dtype(self) -> np.dtype:
        """The *logical* element dtype (the words themselves are uint64)."""
        return np.dtype(np.bool_)

    def bit_column(self, j: int) -> np.ndarray:
        """Boolean column ``j`` (one bit per row) as a dense vector."""
        rows, cols = self.shape
        if not 0 <= j < cols:
            raise ValidationError(f"column {j} out of range for shape {self.shape}")
        word, bit = divmod(j, WORD_BITS)
        return ((self.words[:, word] >> _U64(bit)) & _U64(1)).astype(bool)

    def bit_row(self, i: int) -> np.ndarray:
        """Boolean row ``i`` as a dense vector."""
        rows, cols = self.shape
        if not 0 <= i < rows:
            raise ValidationError(f"row {i} out of range for shape {self.shape}")
        return unpack_bits(self.words[i : i + 1], cols)[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PackedBlock):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self.words, other.words))

    def __hash__(self) -> None:  # pragma: no cover - mutable container
        raise TypeError("PackedBlock is unhashable")

    def __reduce__(self):
        return (PackedBlock, (self.words, self.shape))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PackedBlock(shape={self.shape}, words={self.words.shape})"


class PackedVector:
    """A packed boolean broadcast vector: 64 cells per ``uint64`` word.

    The 1-D counterpart of :class:`PackedBlock`, carrying the fw-2d pivot
    column for the ``reachability`` algebra: ``words`` is a flat
    ``(ceil(n / 64),)`` word array, ``n`` the logical bit count.  Instances
    pickle by those two attributes, so a broadcast column crosses the
    ``processes`` backend's IPC at 1/8th the bytes of the ``bool`` vector it
    replaces.  Slicing (``vec[a:b]``) returns a *dense* boolean slice — the
    per-block windows of the rank-1 update are tiny next to the broadcast
    itself, and block boundaries are not word-aligned, so the packed form is
    kept only for the wire.
    """

    __slots__ = ("words", "n")

    def __init__(self, words: np.ndarray, n: int) -> None:
        words = np.asarray(words, dtype=_U64)
        n = int(n)
        if words.ndim != 1 or words.shape[0] != packed_width(n):
            raise ValidationError(
                f"word vector has shape {words.shape}, expected "
                f"({packed_width(n)},) for {n} bits")
        self.words = words
        self.n = n

    @classmethod
    def from_dense(cls, bits: np.ndarray) -> "PackedVector":
        """Pack a 1-D boolean (or truthy) vector."""
        arr = np.asarray(bits)
        if arr.ndim != 1:
            raise ValidationError(
                f"packed vector source must be 1-D, got ndim={arr.ndim}")
        return cls(pack_bits(arr)[0], arr.shape[0])

    def to_dense(self) -> np.ndarray:
        """Unpack back to a boolean vector of length ``n``."""
        return unpack_bits(self.words[None, :], self.n)[0]

    # -- ndarray-flavoured surface the update kernels rely on --------------
    @property
    def shape(self) -> tuple[int]:
        """Logical length as a 1-tuple (ndarray-compatible)."""
        return (self.n,)

    @property
    def dtype(self) -> np.dtype:
        """The *logical* element dtype (the words themselves are uint64)."""
        return np.dtype(np.bool_)

    @property
    def nbytes(self) -> int:
        """Bytes held by the packed word vector (what the broadcast ships)."""
        return int(self.words.nbytes)

    def __getitem__(self, index: slice) -> np.ndarray:
        """Dense boolean window ``[start:stop]`` via a word-window unpack."""
        if not isinstance(index, slice):
            raise ValidationError("packed vectors only support slice indexing")
        start, stop, step = index.indices(self.n)
        if step != 1:
            raise ValidationError("packed vectors only support unit-step slices")
        w0 = start // WORD_BITS
        w1 = packed_width(stop)
        window_bits = min(self.n, w1 * WORD_BITS) - w0 * WORD_BITS
        bits = unpack_bits(self.words[None, w0:w1], window_bits)[0]
        return bits[start - w0 * WORD_BITS: stop - w0 * WORD_BITS]

    def __reduce__(self):
        return (PackedVector, (self.words, self.n))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PackedVector(n={self.n}, words={self.words.shape})"


def is_packed(block) -> bool:
    """True when ``block`` is a :class:`PackedBlock`."""
    return isinstance(block, PackedBlock)


def is_packed_vector(piece) -> bool:
    """True when ``piece`` is a :class:`PackedVector`."""
    return isinstance(piece, PackedVector)


# ---------------------------------------------------------------------------
# Word-parallel kernels
# ---------------------------------------------------------------------------
def _check_same_shape(a: PackedBlock, b: PackedBlock, op: str) -> None:
    if a.shape != b.shape:
        raise ValidationError(f"{op} requires equal shapes, got {a.shape} and {b.shape}")


def packed_or(a: PackedBlock, b: PackedBlock, out: PackedBlock | None = None) -> PackedBlock:
    """Elementwise ⊕ (boolean OR), 64 cells per word operation."""
    _check_same_shape(a, b, "packed ⊕")
    if out is None:
        return PackedBlock(np.bitwise_or(a.words, b.words), a.shape)
    _check_same_shape(a, out, "packed ⊕ (out)")
    np.bitwise_or(a.words, b.words, out=out.words)
    out.invalidate_popcount()
    return out


#: Inner indices expanded per vectorized step of the dense-path product; the
#: ``(m, _K_CHUNK, w)`` uint64 temporary stays well inside L2 for the block
#: sizes the paper sweeps.
_K_CHUNK = 64

#: Selector path is chosen when fewer than this fraction of A's bits are set:
#: its cost is ``popcount(A) * w`` gathered words versus the dense path's
#: ``2 m k w`` streamed ones, but gather/scatter traffic is ~4x dearer per
#: word than a contiguous stream.
_SPARSE_PATH_DENSITY = 0.125


def packed_product(a: PackedBlock, b: PackedBlock,
                   out: PackedBlock | None = None) -> PackedBlock:
    """Packed boolean semiring product ``C[i, j] = OR_k A[i, k] AND B[k, j]``.

    Two word-parallel strategies, chosen by the density of ``A``:

    * *selector path* (sparse ``A``): for every inner index ``k``, the rows
      of ``A`` with bit ``k`` set absorb ``B``'s packed row ``k`` with a
      word-wise OR — O(popcount(A) · w) gathered words;
    * *bit-expansion path* (dense ``A``, e.g. a closure block that has
      saturated): chunks of 64 bit-columns of ``A`` are expanded to
      all-ones/zero ``uint64`` masks and combined as
      ``OR-reduce(mask[:, K, None] & B[K])`` — O(m·k·w) streamed words with
      a handful of NumPy calls per chunk and no gather/scatter.

    Both are exact; when ``out`` is given the product *accumulates* into it
    (``out ⊕= A ⊗ B``), the reduction shape ``MatProd`` + ``MatMin`` needs.
    """
    m, k = a.shape
    kb, n = b.shape
    if k != kb:
        raise ValidationError(
            f"packed MatProd inner dimensions must agree, got {a.shape} and {b.shape}")
    if out is None:
        out = PackedBlock(np.zeros((m, b.words.shape[1]), dtype=_U64), (m, n))
    elif out.shape != (m, n):
        raise ValidationError(f"out has shape {out.shape}, expected {(m, n)}")
    # A's bits as a (k, m) byte matrix: row ``kk`` is A's bit-column ``kk``,
    # contiguous for both the selector scan and the mask expansion.
    a_cols = np.ascontiguousarray(a.to_dense().T)
    out_words = out.words
    b_words = b.words
    out.invalidate_popcount()
    # Path choice rides on the block's cached popcount (word-level, no
    # unpacking): a closure block is multiplied many times per sweep, so the
    # density is a per-block property, not a per-call recount.
    if a.bits_set < _SPARSE_PATH_DENSITY * m * k:
        for kk in range(k):
            rows = np.flatnonzero(a_cols[kk])
            if rows.size:
                out_words[rows] |= b_words[kk]
        return out
    for k0 in range(0, k, _K_CHUNK):
        k1 = min(k0 + _K_CHUNK, k)
        # (m, k1-k0) all-ones/zero masks from A's bits (two's complement).
        masks = np.zeros((m, k1 - k0), dtype=_U64) - a_cols[k0:k1].T
        # (m, k1-k0, w) AND, then OR-reduce the inner axis into the output.
        expanded = masks[:, :, None] & b_words[k0:k1][None, :, :]
        np.bitwise_or(out_words, np.bitwise_or.reduce(expanded, axis=1),
                      out=out_words)
    return out


def packed_floyd_warshall_inplace(block: PackedBlock) -> PackedBlock:
    """In-place packed Floyd-Warshall (transitive closure of a square block).

    Pivot ``k``'s relaxation ``dist[i, j] |= dist[i, k] & dist[k, j]``
    collapses to: every row with bit ``k`` set ORs in row ``k`` — one
    word-parallel OR over the selected rows per pivot.
    """
    rows, cols = block.shape
    if rows != cols:
        raise ValidationError(f"Floyd-Warshall needs a square block, got {block.shape}")
    words = block.words
    for k in range(rows):
        word, bit = divmod(k, WORD_BITS)
        # All-ones/zero mask per row (two's complement of the pivot bit):
        # a pure broadcast, no gather/scatter, stable cost as the closure
        # saturates.  Row k ORs with itself (bit (k, k) is set) — harmless.
        mask = _U64(0) - ((words[:, word] >> _U64(bit)) & _U64(1))
        words |= mask[:, None] & words[k][None, :]
    block.invalidate_popcount()
    return block


def packed_rank1_update(block: PackedBlock, col_i: np.ndarray,
                        row_j: np.ndarray) -> PackedBlock:
    """Packed ``FloydWarshallUpdate``: ``block ⊕= col_i ⊗ row_j`` (outer AND).

    ``col_i`` selects the rows to update (one bit per block row); ``row_j``
    is OR-ed into each of them as a packed word row.  Returns a new block
    (the solvers treat block records as immutable values).
    """
    col = np.asarray(col_i).reshape(-1).astype(bool)
    row = np.asarray(row_j).reshape(-1).astype(bool)
    if col.shape[0] != block.shape[0] or row.shape[0] != block.shape[1]:
        raise ValidationError(
            f"pivot slices have lengths {col.shape[0]}/{row.shape[0]} "
            f"but block is {block.shape}")
    out = block.copy()
    sel = np.flatnonzero(col)
    if sel.size:
        out.words[sel] |= pack_bits(row)[0]
        out.invalidate_popcount()
    return out


def packed_rank1_update_inplace(block: PackedBlock, col_i: np.ndarray,
                                row_j: np.ndarray) -> np.ndarray:
    """In-place packed rank-1 update returning the changed-row mask.

    Derived from :func:`packed_rank1_update` (the one rank-1 body): rows
    whose words differ gained at least one bit and are written back — the
    mask the serving layer uses to invalidate exactly the parent-row cache
    entries the update touched.
    """
    relaxed = packed_rank1_update(block, col_i, row_j)
    changed = np.any(relaxed.words != block.words, axis=1)
    if changed.any():
        block.words[...] = relaxed.words
        block.invalidate_popcount()
    return changed


def packed_closure(adjacency: np.ndarray) -> np.ndarray:
    """Dense-in, dense-out transitive closure through the packed kernels.

    Reference entry point for tests and benchmarks: packs the boolean
    adjacency, runs the packed Floyd-Warshall, and unpacks the result.
    """
    arr = np.asarray(adjacency)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"adjacency must be square, got shape {arr.shape}")
    packed = PackedBlock.from_dense(arr)
    return packed_floyd_warshall_inplace(packed).to_dense()
