"""Payload conformance: every protocol operation on every block representation.

One table of representations — dense float64 / float32 / bool, packed
bitset, witnessed two-plane and single-plane — is driven through each
operation of :class:`repro.linalg.payload.PayloadOps` and through the public
entry points that resolve it.  Values are compared with the dense kernels on
the same numbers; parents are checked by walking them (a walked path must
fold to the reported value), and the two witness layouts must agree cell for
cell.  Mixed operands and unsupported payload × algebra cells must raise
``ValidationError`` — never ``IndexError``/``TypeError``.
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import pickle
import zlib

import numpy as np
import pytest

from repro import APSPEngine, SolveRequest
from repro.common.errors import ValidationError
from repro.core import building_blocks as bb
from repro.graph import erdos_renyi_adjacency
from repro.linalg import native
from repro.linalg import witness as W
from repro.linalg.algebra import get_algebra
from repro.linalg.bitset import PackedBlock, packed_floyd_warshall_inplace
from repro.linalg.blocks import BlockGrid, block_encoder, matrix_to_blocks
from repro.linalg.kernels import (blocked_floyd_warshall_inplace,
                                  floyd_warshall_inplace, fw_rank1_update,
                                  fw_rank1_update_inplace)
from repro.linalg.payload import (DENSE, PACKED, WITNESS, payload_ops,
                                  storage_ops)
from repro.linalg.semiring import (elementwise_combine, semiring_power,
                                   semiring_product, semiring_relax,
                                   semiring_square)
from repro.serve import fold_route

N = 12  # matrix side; sub-blocks of 5 leave a ragged edge


@dataclasses.dataclass(frozen=True)
class Representation:
    """One row of the conformance table."""

    id: str
    algebra: str
    dtype: str
    ops: object
    encoder: dict
    kernel: str = "default"     # "numpy": forced off the compiled dense loop

    def prepared(self, seed: int, shape=(N, N), *, square: bool = True):
        """A random window in the algebra's domain (diagonal = one when square)."""
        rng = np.random.default_rng(seed)
        algebra = get_algebra(self.algebra)
        present = rng.random(shape) < 0.35
        if self.dtype == "bool":
            window = present
        else:
            weights = rng.uniform(1.0, 9.0, shape).astype(self.dtype)
            window = np.where(present, weights,
                              algebra.zero_like(self.dtype)).astype(self.dtype)
        if square:
            np.fill_diagonal(window, algebra.one_like(self.dtype))
        return window

    def encode(self, window, row_start=0, col_start=0):
        options = dict(self.encoder)
        grid = BlockGrid(1, options.pop("layout", "triangular"))
        return block_encoder(grid, algebra=self.algebra,
                             **options)(window, row_start, col_start, copy=True)


REPRESENTATIONS = [
    Representation("dense-f64", "shortest-path", "float64", DENSE, {}),
    Representation("dense-f32", "widest-path", "float32", DENSE, {}),
    Representation("dense-bool", "reachability", "bool", DENSE, {}),
    Representation("packed", "reachability", "bool", PACKED,
                   {"storage": "packed"}),
    Representation("witness-2", "shortest-path", "float64", WITNESS,
                   {"witness": True}),
    Representation("witness-1", "shortest-path", "float64", WITNESS,
                   {"witness": True, "layout": "full"}),
    # The float rows again on NumPy; the rows above take the compiled dense
    # kernel whenever it loaded.
    Representation("dense-f64-numpy", "shortest-path", "float64", DENSE, {},
                   kernel="numpy"),
    Representation("dense-f32-numpy", "widest-path", "float32", DENSE, {},
                   kernel="numpy"),
]


@pytest.fixture(params=REPRESENTATIONS, ids=lambda r: r.id)
def rep(request):
    if request.param.kernel == "numpy":
        with native._forced("numpy"):
            yield request.param
    else:
        yield request.param


def values_of(block) -> np.ndarray:
    return payload_ops(block).to_dense(block)


def assert_parents_walk(block, prepared, algebra) -> None:
    """Every assigned parent chain folds to the block's reported value."""
    values, parents = block.values, block.parents
    zero = algebra.zero_like(values.dtype)
    for i in range(values.shape[0]):
        for j in range(values.shape[1]):
            if i == j or values[i, j] == zero:
                assert parents[i, j] == W.NO_VERTEX
                continue
            path = W.reconstruct_path(parents, i, j)
            assert np.isclose(fold_route(prepared, path, algebra), values[i, j])


# ---------------------------------------------------------------------------
# The resolver
# ---------------------------------------------------------------------------
class TestResolver:
    def test_resolves_each_representation(self, rep):
        block = rep.encode(rep.prepared(1))
        assert payload_ops(block) is rep.ops
        assert payload_ops(block, block, algebra=get_algebra(rep.algebra)) is rep.ops

    def test_dense_blocks_stay_bare_arrays(self):
        window = np.arange(6.0).reshape(2, 3)
        block = DENSE.encode(window)
        assert type(block) is np.ndarray and block is not window
        assert DENSE.encode(window, copy=False) is window
        assert pickle.dumps(block) == pickle.dumps(window)

    def test_storage_names(self):
        assert storage_ops("dense") is DENSE
        assert storage_ops("packed") is PACKED
        assert storage_ops("dense", witness=True) is WITNESS
        with pytest.raises(ValidationError):
            storage_ops("packed", witness=True)
        with pytest.raises(ValidationError):
            storage_ops("sparse")


# ---------------------------------------------------------------------------
# Every operation, every representation
# ---------------------------------------------------------------------------
class TestOperations:
    def test_encode_to_dense_round_trip(self, rep):
        window = rep.prepared(2)
        block = rep.encode(window, 24, 36)
        assert np.array_equal(rep.ops.to_dense(block), window)
        assert not np.shares_memory(rep.ops.to_dense(block), window)
        if rep.ops is WITNESS:
            edge = (window != get_algebra(rep.algebra).zero_like(window.dtype))
            edge &= ~np.eye(N, dtype=bool)
            assert np.array_equal(block.parents[edge] - 24, np.nonzero(edge)[0])
            assert block.single_plane == (rep.encoder.get("layout") == "full")

    def test_product_combine_relax(self, rep):
        algebra = get_algebra(rep.algebra)
        a, b, c = (rep.prepared(s, (5, 7), square=False) for s in (3, 4, 5))
        left, right = rep.prepared(6, (5, 4), square=False), rep.prepared(7, (4, 7), square=False)
        expected_product = DENSE.product(left, right, algebra)
        expected_combine = DENSE.combine(a, b, algebra)
        pa, pb, pc = rep.encode(a), rep.encode(b), rep.encode(c)
        pl, pr = rep.encode(left), rep.encode(right, 0, 20)
        assert np.array_equal(values_of(rep.ops.product(pl, pr, algebra)),
                              expected_product)
        assert np.array_equal(values_of(semiring_product(pl, pr, algebra)),
                              expected_product)
        assert np.array_equal(values_of(rep.ops.combine(pa, pb, algebra)),
                              expected_combine)
        assert np.array_equal(values_of(elementwise_combine(pa, pb, algebra)),
                              expected_combine)
        expected_relax = DENSE.combine(c, expected_product, algebra)
        assert np.array_equal(values_of(rep.ops.relax(pc, pl, pr, algebra)),
                              expected_relax)
        assert np.array_equal(values_of(semiring_relax(pc, pl, pr, algebra)),
                              expected_relax)
        assert np.array_equal(values_of(pc), c)          # operands untouched

    def test_fw_inplace_and_blocked(self, rep):
        algebra = get_algebra(rep.algebra)
        window = rep.prepared(8)
        expected = DENSE.fw_inplace(window.copy(), algebra)
        closed = floyd_warshall_inplace(rep.encode(window), algebra)
        assert np.array_equal(values_of(closed), expected)
        blocked = blocked_floyd_warshall_inplace(rep.encode(window), 5, algebra)
        assert rep.ops.supports(algebra)
        if rep.dtype == "bool":
            assert np.array_equal(values_of(blocked), expected)
        else:                       # association order differs: rounding only
            assert np.allclose(values_of(blocked), expected)
        if rep.ops is WITNESS:
            assert_parents_walk(closed, window, algebra)
            assert_parents_walk(blocked, window, algebra)

    def test_square_and_power(self, rep):
        algebra = get_algebra(rep.algebra)
        window = rep.prepared(9)
        block = rep.encode(window)
        squared = semiring_square(block, algebra)
        assert np.array_equal(values_of(squared),
                              DENSE.relax(window, window, window, algebra))
        closure = semiring_power(block, N, algebra)
        assert payload_ops(closure) is rep.ops and closure is not block
        expected = DENSE.fw_inplace(window.copy(), algebra)
        assert (np.array_equal if rep.dtype == "bool" else np.allclose)(
            values_of(closure), expected)
        assert np.array_equal(values_of(block), window)
        assert np.array_equal(values_of(semiring_power(block, 1, algebra)), window)

    def test_pieces_and_rank1(self, rep):
        algebra = get_algebra(rep.algebra)
        window = rep.prepared(10)
        block = rep.encode(window)
        k = 3
        col, row = rep.ops.column_piece(block, k), rep.ops.row_piece(block, k)
        col_values = getattr(col, "values", col)
        assert np.array_equal(col_values, window[:, k])
        assert np.array_equal(getattr(row, "values", row), window[k, :])
        assert not np.shares_memory(col_values, values_of(block))
        if rep.ops is WITNESS:
            assert np.array_equal(row.toward, block.parents[k, :])
            assert W.is_witness_vector(col) == (not block.single_plane)
        expected = DENSE.rank1(window, window[:, k], window[k, :], algebra)
        pure = fw_rank1_update(block, col, row, algebra)
        assert np.array_equal(values_of(pure), expected)
        assert np.array_equal(values_of(block), window)          # pure: untouched
        mask = fw_rank1_update_inplace(block, col, row, algebra)
        assert np.array_equal(values_of(block), expected)
        assert np.array_equal(mask, np.any(expected != window, axis=1))
        if rep.ops is WITNESS:
            assert block == pure
        again = fw_rank1_update_inplace(block, col, row, algebra)
        assert not again.any()

    def test_copy_transpose_nbytes(self, rep):
        window = rep.prepared(11, (5, 7), square=False)
        block = rep.encode(window)
        clone = rep.ops.copy(block)
        assert np.array_equal(values_of(clone), window)
        assert not np.shares_memory(values_of(clone), values_of(block))
        assert block.nbytes > 0
        if rep.id == "witness-1":
            with pytest.raises(ValidationError):
                block.T
            return
        mirror = block.T
        assert np.array_equal(values_of(mirror), window.T)
        if rep.ops is WITNESS:
            assert np.array_equal(mirror.parents, block.succs.T)

    def test_view_and_store(self, rep):
        window = rep.prepared(12)
        block = rep.encode(window)
        rows, cols = slice(5, 10), slice(10, 12)
        if rep.ops is PACKED:
            with pytest.raises(ValidationError):
                rep.ops.view(block, rows, cols)
            with pytest.raises(ValidationError):
                rep.ops.store(block, rows, cols, block)
            return
        sub = rep.ops.view(block, rows, cols)
        assert payload_ops(sub) is rep.ops
        assert np.array_equal(values_of(sub), window[rows, cols])
        replacement = rep.encode(rep.prepared(13, (5, 2), square=False), 5, 10)
        rep.ops.store(block, rows, cols, replacement)
        assert np.array_equal(values_of(block)[rows, cols], values_of(replacement))
        untouched = np.ones((N, N), dtype=bool)
        untouched[rows, cols] = False
        assert np.array_equal(values_of(block)[untouched], window[untouched])
        if rep.ops is WITNESS:
            assert np.array_equal(block.parents[rows, cols], replacement.parents)


# ---------------------------------------------------------------------------
# Witness layouts agree; the bugs the protocol closes stay closed
# ---------------------------------------------------------------------------
class TestWitnessLayoutsAgree:
    def test_single_plane_matches_two_plane_parents(self):
        algebra = get_algebra("shortest-path")
        two, one = REPRESENTATIONS[4], REPRESENTATIONS[5]
        window = two.prepared(14)
        for solve in (lambda b: floyd_warshall_inplace(b, algebra),
                      lambda b: blocked_floyd_warshall_inplace(b, 5, algebra),
                      lambda b: semiring_power(b, N, algebra)):
            full, single = solve(two.encode(window)), solve(one.encode(window))
            assert single.single_plane and not full.single_plane
            assert np.array_equal(single.values, full.values)
            assert np.array_equal(single.parents, full.parents)

    def test_blocked_fw_single_plane_equals_unblocked(self):
        # Continuous random weights: optimal paths are unique, so the blocked
        # and the plain pivot order must pick the same predecessors.
        algebra = get_algebra("shortest-path")
        rep = REPRESENTATIONS[5]
        window = rep.prepared(15)
        plain = floyd_warshall_inplace(rep.encode(window), algebra)
        blocked = blocked_floyd_warshall_inplace(rep.encode(window), 4, algebra)
        assert np.allclose(blocked.values, plain.values)
        assert np.array_equal(blocked.parents, plain.parents)

    def test_blocked_fw_packed_equals_packed_kernel(self):
        window = REPRESENTATIONS[3].prepared(16, (70, 70))
        blocked = blocked_floyd_warshall_inplace(
            PackedBlock.from_dense(window), 16, "reachability")
        assert blocked == packed_floyd_warshall_inplace(PackedBlock.from_dense(window))
        with pytest.raises(ValidationError):
            blocked_floyd_warshall_inplace(PackedBlock.from_dense(window), 0,
                                           "reachability")


# ---------------------------------------------------------------------------
# Mixed operands and unsupported cells: typed errors through every entry point
# ---------------------------------------------------------------------------
def _mixed_pairs():
    window = REPRESENTATIONS[2].prepared(17, (4, 4))
    weights = REPRESENTATIONS[0].prepared(18, (4, 4))
    packed = PackedBlock.from_dense(window)
    witnessed = W.witness_block(weights, 0, 0, "shortest-path")
    return [("reachability", packed, window), ("reachability", window, packed),
            ("shortest-path", witnessed, weights),
            ("shortest-path", weights, witnessed),
            ("reachability", packed, W.witness_block(window, 0, 0, "reachability"))]


@pytest.mark.parametrize("algebra,a,b", _mixed_pairs(),
                         ids=["packed-dense", "dense-packed", "witness-dense",
                              "dense-witness", "packed-witness"])
class TestMixedOperandsRaise:
    def test_kernel_entry_points(self, algebra, a, b):
        for call in (lambda: payload_ops(a, b),
                     lambda: semiring_product(a, b, algebra),
                     lambda: elementwise_combine(a, b, algebra),
                     lambda: semiring_relax(a, b, b, algebra),
                     lambda: semiring_relax(a, a, b, algebra)):
            with pytest.raises(ValidationError):
                call()

    def test_building_blocks(self, algebra, a, b):
        record = ((0, 1), a)
        for call in (lambda: bb.min_plus(record, b, algebra=algebra),
                     lambda: bb.min_plus(record, b, other_on_left=True,
                                         algebra=algebra),
                     lambda: bb.ElementwiseCombine(algebra)(a, b),
                     lambda: bb.unpack_phase2(1, algebra)(
                         ((0, 1), [(bb.TAG_BASE, a), (bb.TAG_DIAG, b)])),
                     lambda: bb.unpack_phase3(2, algebra)(
                         ((0, 1), [(bb.TAG_BASE, a), (bb.TAG_LEFT, b),
                                   (bb.TAG_RIGHT, b)]))):
            with pytest.raises(ValidationError):
                call()


class TestUnsupportedCellsRaise:
    def test_packed_under_numeric_algebra(self):
        packed = PackedBlock.from_dense(np.eye(4, dtype=bool))
        col = row = np.ones(4, dtype=bool)
        for call in (lambda: semiring_product(packed, packed, "shortest-path"),
                     lambda: elementwise_combine(packed, packed, "widest-path"),
                     lambda: semiring_relax(packed, packed, packed, "shortest-path"),
                     lambda: semiring_square(packed, "shortest-path"),
                     lambda: semiring_power(packed, 2, "shortest-path"),
                     lambda: floyd_warshall_inplace(packed, "shortest-path"),
                     lambda: blocked_floyd_warshall_inplace(packed, 2, "shortest-path"),
                     lambda: fw_rank1_update(packed, col, row, "shortest-path"),
                     lambda: fw_rank1_update_inplace(packed, col, row, "shortest-path"),
                     lambda: bb.FloydWarshallBlock("shortest-path")(((0, 0), packed))):
            with pytest.raises(ValidationError):
                call()

    def test_witnessed_under_algebra_without_witness_policy(self):
        plain = dataclasses.replace(get_algebra("shortest-path"),
                                    name="no-witness", witness_select=None)
        block = W.witness_block(REPRESENTATIONS[0].prepared(19, (4, 4)), 0, 0)
        row = WITNESS.row_piece(block, 1)
        for call in (lambda: semiring_product(block, block, plain),
                     lambda: elementwise_combine(block, block, plain),
                     lambda: semiring_square(block, plain),
                     lambda: floyd_warshall_inplace(block, plain),
                     lambda: blocked_floyd_warshall_inplace(block, 2, plain),
                     lambda: fw_rank1_update(block, row, row, plain),
                     lambda: fw_rank1_update_inplace(block, row, row, plain)):
            with pytest.raises(ValidationError):
                call()

    def test_witness_planes_cannot_be_packed(self):
        prepared = REPRESENTATIONS[0].prepared(20, (8, 8))
        with pytest.raises(ValidationError):
            list(matrix_to_blocks(prepared != np.inf, 4, storage="packed",
                                  witness=True, algebra="reachability"))
        packed = dict(matrix_to_blocks(prepared != np.inf, 4, storage="packed"))
        assert payload_ops(packed[(0, 1)]) is PACKED
        witnessed = dict(matrix_to_blocks(prepared, 4, witness=True,
                                          algebra="shortest-path"))
        assert payload_ops(witnessed[(0, 1)]) is WITNESS


# ---------------------------------------------------------------------------
# The compiled dense kernel and NumPy give the same bits
# ---------------------------------------------------------------------------
NUMERIC_CELLS = [(name, dtype) for name in ("shortest-path", "widest-path",
                                            "most-reliable", "longest-path")
                 for dtype in ("float64", "float32")]
SIDES = (1, 2, 5, 12)
#: Cell pools: ordinary weights with missing edges, every special value, and
#: signed zeros alone (no term is NaN, so the kernel's NaN-free loop runs and
#: the tie between 0.0 and -0.0 decides the bits).
POOLS = {"specials": np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1.0, 2.5]),
         "zeros": np.array([0.0, -0.0, 1.0, 2.5])}


def _transposed(x):
    return np.ascontiguousarray(x.T).T


def _strided(x):
    rows, cols = x.shape
    backing = np.zeros((2 * rows + 1, 3 * cols + 2), dtype=x.dtype)
    view = backing[1::2, 2::3]
    view[...] = x
    return view


OPERAND_LAYOUTS = {"C": np.ascontiguousarray, "transposed": _transposed,
                   "strided": _strided}


def _cells(rng, shape, dtype, pool):
    """Random cells: ordinary weights, or drawn from one of :data:`POOLS`."""
    if pool in POOLS:
        return rng.choice(POOLS[pool], shape).astype(dtype)
    cells = rng.uniform(0.0, 4.0, shape).astype(dtype)
    cells[rng.random(shape) < 0.3] = np.inf
    return cells


def assert_same_bits(got, expected):
    """Equal dtype and shape, NaN in the same cells, every other cell bit-equal."""
    assert got.dtype == expected.dtype and got.shape == expected.shape
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(got), nan)
    word = np.uint64 if got.dtype.itemsize == 8 else np.uint32
    assert np.array_equal(np.ascontiguousarray(got).view(word)[~nan],
                          np.ascontiguousarray(expected).view(word)[~nan])


def on_both_kernels(compute):
    """``compute()`` on the compiled kernel, then on NumPy: ``(native, numpy)``."""
    if native.kernel() is None:
        pytest.skip(f"the compiled kernel did not load: {native.describe()}")
    got = compute()
    with native._forced("numpy"):
        expected = compute()
    return got, expected


@pytest.mark.filterwarnings("ignore:invalid value encountered",
                            "ignore:overflow encountered")
@pytest.mark.parametrize("pool", ["weights", *POOLS])
@pytest.mark.parametrize("algebra,dtype", NUMERIC_CELLS)
class TestKernelsAgree:
    """Every dense float kernel, ragged sides 1/2/5/12, C / transposed / strided."""

    def test_product_and_relax(self, algebra, dtype, pool):
        rng = np.random.default_rng(zlib.crc32(f"{algebra}{dtype}{pool}".encode()))
        for m, k, n in itertools.product(SIDES, repeat=3):
            for layout in OPERAND_LAYOUTS.values():
                a = layout(_cells(rng, (m, k), dtype, pool))
                b = layout(_cells(rng, (k, n), dtype, pool))
                base = layout(_cells(rng, (m, n), dtype, pool))
                assert_same_bits(*on_both_kernels(
                    lambda: semiring_product(a, b, algebra)))
                assert_same_bits(*on_both_kernels(
                    lambda: semiring_relax(base, a, b, algebra)))
                assert_same_bits(*on_both_kernels(
                    lambda: semiring_product(a, b, algebra,
                                             out=_strided(np.empty((m, n), dtype)))))

    def test_square_power_and_rank1(self, algebra, dtype, pool):
        rng = np.random.default_rng(zlib.crc32(f"{algebra}{dtype}{pool}r1".encode()))
        for n in SIDES:
            for layout in OPERAND_LAYOUTS.values():
                window = layout(_cells(rng, (n, n), dtype, pool))
                assert_same_bits(*on_both_kernels(
                    lambda: semiring_square(window, algebra)))
                assert_same_bits(*on_both_kernels(
                    lambda: semiring_power(window, n, algebra)))
                col = _cells(rng, n, dtype, pool)
                row = layout(_cells(rng, (3, n), dtype, pool))[1]
                assert_same_bits(*on_both_kernels(
                    lambda: fw_rank1_update(window, col, row, algebra)))

                def inplace():
                    block = layout(window.copy())
                    mask = fw_rank1_update_inplace(block, col, row, algebra)
                    return np.column_stack([block, mask.astype(dtype)])
                assert_same_bits(*on_both_kernels(inplace))

    def test_rank1_past_the_numpy_size(self, algebra, dtype, pool):
        # Blocks of more than 128 x 128 cells take the compiled rank-1 pass.
        rng = np.random.default_rng(zlib.crc32(f"{algebra}{dtype}{pool}big".encode()))
        for layout in OPERAND_LAYOUTS.values():
            window = layout(_cells(rng, (129, 131), dtype, pool))
            col, row = _cells(rng, 129, dtype, pool), _cells(rng, 131, dtype, pool)
            assert_same_bits(*on_both_kernels(
                lambda: fw_rank1_update(window, col, row, algebra)))

            def inplace():
                block = layout(window.copy())
                mask = fw_rank1_update_inplace(block, col, row, algebra)
                return np.column_stack([block, mask.astype(dtype)])
            assert_same_bits(*on_both_kernels(inplace))

    def test_fw_inplace_and_blocked(self, algebra, dtype, pool):
        # The diagonal is random, not ``one``: row and column k move during
        # sweep k, so only a sweep over copies of them matches NumPy.
        rng = np.random.default_rng(zlib.crc32(f"{algebra}{dtype}{pool}fw".encode()))
        for n in SIDES:
            for layout in OPERAND_LAYOUTS.values():
                window = _cells(rng, (n, n), dtype, pool)
                if pool == "weights":
                    window -= np.dtype(dtype).type(1.0)   # negative cells too

                def closed():
                    block = layout(window.copy())
                    assert floyd_warshall_inplace(block, algebra) is block
                    return np.array(block)
                assert_same_bits(*on_both_kernels(closed))

                def blocked():
                    block = layout(window.copy())
                    blocked_floyd_warshall_inplace(block, max(1, n // 2), algebra)
                    return np.array(block)
                assert_same_bits(*on_both_kernels(blocked))

    def test_out_overlapping_an_operand_raises(self, algebra, dtype, pool):
        rng = np.random.default_rng(3)
        a, b = _cells(rng, (5, 5), dtype, pool), _cells(rng, (5, 5), dtype, pool)
        for kernel in (contextlib.nullcontext(), native._forced("numpy")):
            with kernel:
                for out in (a, b, a.T, b[:, ::-1]):
                    with pytest.raises(ValidationError):
                        semiring_product(a, b, algebra, out=out)
                with pytest.raises(ValidationError):
                    semiring_product(a, b, algebra, out=np.empty((5, 4), dtype))

    def test_read_only_targets_raise_and_a_casting_out_matches(self, algebra,
                                                                dtype, pool):
        rng = np.random.default_rng(4)
        a = _cells(rng, (5, 5), dtype, pool)
        frozen = a.copy()
        frozen.flags.writeable = False
        for kernel in (contextlib.nullcontext(), native._forced("numpy")):
            with kernel:
                with pytest.raises(ValueError):
                    floyd_warshall_inplace(frozen, algebra)
                with pytest.raises(ValueError):
                    semiring_product(a, a, algebra, out=frozen)
        assert_same_bits(frozen, a)
        other = "float32" if dtype == "float64" else "float64"
        assert_same_bits(*on_both_kernels(lambda: semiring_product(
            a, a, algebra, out=np.empty((5, 5), other))))



#: Witnessed pools: the dense pools plus all-equal weights, where every
#: candidate of a cell ties and only the first-winner rule decides pointers.
WITNESS_POOLS = {**POOLS, "plateau": np.array([1.0])}


def _view(x):
    """A unit-stride sub-block of a larger C-ordered plane, as ``WITNESS.view``
    cuts one: rows longer than the block, at an offset."""
    rows, cols = x.shape
    backing = np.zeros((rows + 2, cols + 3), dtype=x.dtype)
    backing[1:rows + 1, 2:cols + 2] = x
    return backing[1:rows + 1, 2:cols + 2]


WITNESS_LAYOUTS = {**OPERAND_LAYOUTS, "view": _view}


def _witnessed(rng, shape, dtype, pool, layout, *, single_plane):
    """A witnessed block of :func:`_cells` values and random pointers (some
    ``NO_VERTEX``, so the fallback rules run), every plane in ``layout``."""
    cells = (rng.choice(WITNESS_POOLS[pool], shape).astype(dtype)
             if pool == "plateau" else _cells(rng, shape, dtype, pool))
    parents = rng.integers(-1, 40, shape).astype(np.int32)
    succs = None if single_plane else rng.integers(-1, 40, shape).astype(np.int32)
    place = WITNESS_LAYOUTS[layout]
    return W.WitnessBlock(place(cells), place(parents),
                          None if succs is None else place(succs))


def assert_same_witness(got, expected):
    """Values bit for bit (NaN cells aside), parents and succs exactly."""
    assert_same_bits(got.values, expected.values)
    assert np.array_equal(got.parents, expected.parents)
    assert (got.succs is None) == (expected.succs is None)
    if expected.succs is not None:
        assert np.array_equal(got.succs, expected.succs)


@pytest.mark.filterwarnings("ignore:invalid value encountered",
                            "ignore:overflow encountered")
@pytest.mark.parametrize("planes", ["two-plane", "one-plane"])
@pytest.mark.parametrize("pool", ["weights", *WITNESS_POOLS])
@pytest.mark.parametrize("algebra,dtype", NUMERIC_CELLS)
class TestWitnessedKernelsAgree:
    """Every witnessed float kernel, ragged sides 1/2/5/12, C / transposed /
    strided / view planes, one-plane and two-plane blocks."""

    def test_product_and_relax(self, algebra, dtype, pool, planes):
        rng = np.random.default_rng(
            zlib.crc32(f"{algebra}{dtype}{pool}{planes}".encode()))
        single = planes == "one-plane"
        for m, k, n in itertools.product(SIDES, repeat=3):
            for layout in WITNESS_LAYOUTS:
                a = _witnessed(rng, (m, k), dtype, pool, layout, single_plane=single)
                b = _witnessed(rng, (k, n), dtype, pool, layout, single_plane=single)
                base = _witnessed(rng, (m, n), dtype, pool, layout,
                                  single_plane=single)
                assert_same_witness(*on_both_kernels(
                    lambda: semiring_product(a, b, algebra)))
                assert_same_witness(*on_both_kernels(
                    lambda: semiring_relax(base, a, b, algebra)))

    def test_fw_inplace_and_blocked(self, algebra, dtype, pool, planes):
        # As for dense blocks the diagonal is random, so row and column k
        # move during sweep k and only copies of them match NumPy.
        rng = np.random.default_rng(
            zlib.crc32(f"{algebra}{dtype}{pool}{planes}fw".encode()))
        single = planes == "one-plane"
        for n in SIDES:
            for layout in WITNESS_LAYOUTS:
                window = _witnessed(rng, (n, n), dtype, pool, layout,
                                    single_plane=single)
                if pool == "weights":
                    window.values[...] -= np.dtype(dtype).type(1.0)

                def closed():
                    block = WITNESS.copy(window)
                    assert floyd_warshall_inplace(block, algebra) is block
                    return block
                assert_same_witness(*on_both_kernels(closed))

                def in_layout():
                    # Closed in place through the layout's own strides.
                    block = W.WitnessBlock(*(
                        None if plane is None
                        else WITNESS_LAYOUTS[layout](plane.copy())
                        for plane in (window.values, window.parents,
                                      window.succs)))
                    floyd_warshall_inplace(block, algebra)
                    return WITNESS.copy(block)
                assert_same_witness(*on_both_kernels(in_layout))

                def blocked():
                    block = WITNESS.copy(window)
                    blocked_floyd_warshall_inplace(block, max(1, n // 2), algebra)
                    return block
                assert_same_witness(*on_both_kernels(blocked))


class TestWitnessedKernelRuns:
    def test_loaded_kernel_bypasses_the_numpy_witness_kernels(self, monkeypatch):
        if native.kernel() is None:
            pytest.skip(f"the compiled kernel did not load: {native.describe()}")
        rng = np.random.default_rng(5)
        a, b, base = (_witnessed(rng, (6, 6), "float64", "weights", "C",
                                 single_plane=False) for _ in range(3))
        expected = (semiring_product(a, b, "shortest-path"),
                    semiring_relax(base, a, b, "shortest-path"))

        def numpy_kernel(*args, **kwargs):
            raise AssertionError("a NumPy witness kernel ran")
        for name in ("witness_product", "witness_combine",
                     "witness_floyd_warshall_inplace"):
            monkeypatch.setattr(W, name, numpy_kernel)
        # The fallback relax combines through the class's own reference.
        monkeypatch.setattr(type(WITNESS), "combine", staticmethod(numpy_kernel))
        assert_same_witness(semiring_product(a, b, "shortest-path"), expected[0])
        assert_same_witness(semiring_relax(base, a, b, "shortest-path"),
                            expected[1])
        floyd_warshall_inplace(a, "shortest-path")

    @pytest.mark.parametrize("layout", ["triangular", "full"])
    def test_paths_solve_parents_agree(self, layout):
        # Unit weights: most cells tie, so the pointers are the first winners'.
        adj = erdos_renyi_adjacency(40, weighted=False, seed=2)
        request = SolveRequest(solver="blocked-cb", block_size=8, paths=True,
                               layout=layout)

        def solve():
            with APSPEngine() as engine:
                return engine.solve(adj, request)
        got, expected = on_both_kernels(solve)
        assert got.metrics["linalg_kernel"] == "native"
        assert expected.metrics["linalg_kernel"] == "numpy"
        assert_same_bits(got.distances, expected.distances)
        assert np.array_equal(got.parents, expected.parents)
