"""Payload conformance: every protocol operation on every block representation.

One table of representations — dense float64 / float32 / bool and packed
bitset — is driven through each operation of
:class:`repro.linalg.payload.PayloadOps` and through the public entry points
that resolve it; values are compared with the dense kernels on the same
numbers.  The witnessed representation keeps one operation, the product,
checked compiled against NumPy below.  Mixed operands and unsupported
payload × algebra cells must raise ``ValidationError`` — never
``IndexError``/``TypeError``.
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
from repro.linalg.kernels import (blocked_floyd_warshall_inplace,
                                  floyd_warshall_inplace, fw_rank1_update,
                                  fw_rank1_update_inplace)
from repro.linalg.payload import DENSE, PACKED, payload_ops, storage_ops
from repro.linalg.semiring import (elementwise_combine, semiring_power,
                                   semiring_product, semiring_relax,
                                   semiring_square)

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

    def encode(self, window):
        return storage_ops(**self.encoder).encode(window, copy=True)


REPRESENTATIONS = [
    Representation("dense-f64", "shortest-path", "float64", DENSE, {}),
    Representation("dense-f32", "widest-path", "float32", DENSE, {}),
    Representation("dense-bool", "reachability", "bool", DENSE, {}),
    Representation("packed", "reachability", "bool", PACKED,
                   {"storage": "packed"}),
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
        with pytest.raises(ValidationError):
            storage_ops("sparse")


# ---------------------------------------------------------------------------
# Every operation, every representation
# ---------------------------------------------------------------------------
class TestOperations:
    def test_encode_to_dense_round_trip(self, rep):
        window = rep.prepared(2)
        block = rep.encode(window)
        assert np.array_equal(rep.ops.to_dense(block), window)
        assert not np.shares_memory(rep.ops.to_dense(block), window)

    def test_product_combine_relax(self, rep):
        algebra = get_algebra(rep.algebra)
        a, b, c = (rep.prepared(s, (5, 7), square=False) for s in (3, 4, 5))
        left, right = rep.prepared(6, (5, 4), square=False), rep.prepared(7, (4, 7), square=False)
        expected_product = DENSE.product(left, right, algebra)
        expected_combine = DENSE.combine(a, b, algebra)
        pa, pb, pc = rep.encode(a), rep.encode(b), rep.encode(c)
        pl, pr = rep.encode(left), rep.encode(right)
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
        assert np.array_equal(col, window[:, k])
        assert np.array_equal(row, window[k, :])
        assert not np.shares_memory(col, values_of(block))
        expected = DENSE.rank1(window, window[:, k], window[k, :], algebra)
        pure = fw_rank1_update(block, col, row, algebra)
        assert np.array_equal(values_of(pure), expected)
        assert np.array_equal(values_of(block), window)          # pure: untouched
        mask = fw_rank1_update_inplace(block, col, row, algebra)
        assert np.array_equal(values_of(block), expected)
        assert np.array_equal(mask, np.any(expected != window, axis=1))
        again = fw_rank1_update_inplace(block, col, row, algebra)
        assert not again.any()

    def test_copy_transpose_nbytes(self, rep):
        window = rep.prepared(11, (5, 7), square=False)
        block = rep.encode(window)
        clone = rep.ops.copy(block)
        assert np.array_equal(values_of(clone), window)
        assert not np.shares_memory(values_of(clone), values_of(block))
        assert block.nbytes > 0
        mirror = block.T
        assert np.array_equal(values_of(mirror), window.T)

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
        replacement = rep.encode(rep.prepared(13, (5, 2), square=False))
        rep.ops.store(block, rows, cols, replacement)
        assert np.array_equal(values_of(block)[rows, cols], values_of(replacement))
        untouched = np.ones((N, N), dtype=bool)
        untouched[rows, cols] = False
        assert np.array_equal(values_of(block)[untouched], window[untouched])


# ---------------------------------------------------------------------------
# The cache-blocked Floyd-Warshall on packed blocks
# ---------------------------------------------------------------------------
class TestBlockedFwPacked:
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
        row = np.zeros(4)
        for call in (lambda: semiring_product(block, block, plain),
                     lambda: elementwise_combine(block, block, plain),
                     lambda: semiring_square(block, plain),
                     lambda: floyd_warshall_inplace(block, plain),
                     lambda: blocked_floyd_warshall_inplace(block, 2, plain),
                     lambda: fw_rank1_update(block, row, row, plain),
                     lambda: fw_rank1_update_inplace(block, row, row, plain)):
            with pytest.raises(ValidationError):
                call()

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
    """A unit-stride sub-block of a larger C-ordered plane: rows longer than
    the block, at an offset."""
    rows, cols = x.shape
    backing = np.zeros((rows + 2, cols + 3), dtype=x.dtype)
    backing[1:rows + 1, 2:cols + 2] = x
    return backing[1:rows + 1, 2:cols + 2]


WITNESS_LAYOUTS = {**OPERAND_LAYOUTS, "view": _view}


def _witnessed(rng, shape, dtype, pool, layout):
    """A witnessed block of :func:`_cells` values and random pointers (some
    ``NO_VERTEX``, so the fallback rules run), every plane in ``layout``."""
    cells = (rng.choice(WITNESS_POOLS[pool], shape).astype(dtype)
             if pool == "plateau" else _cells(rng, shape, dtype, pool))
    parents = rng.integers(-1, 40, shape).astype(np.int32)
    succs = rng.integers(-1, 40, shape).astype(np.int32)
    place = WITNESS_LAYOUTS[layout]
    return W.WitnessBlock(place(cells), place(parents), place(succs))


def assert_same_witness(got, expected):
    """Values bit for bit (NaN cells aside), parents and succs exactly."""
    assert_same_bits(got.values, expected.values)
    assert np.array_equal(got.parents, expected.parents)
    assert np.array_equal(got.succs, expected.succs)


@pytest.mark.filterwarnings("ignore:invalid value encountered",
                            "ignore:overflow encountered")
@pytest.mark.parametrize("pool", ["weights", *WITNESS_POOLS])
@pytest.mark.parametrize("algebra,dtype", NUMERIC_CELLS)
class TestWitnessedKernelsAgree:
    """The witnessed float product, ragged sides 1/2/5/12, C / transposed /
    strided / view planes."""

    def test_product(self, algebra, dtype, pool):
        rng = np.random.default_rng(
            zlib.crc32(f"{algebra}{dtype}{pool}two-plane".encode()))
        for m, k, n in itertools.product(SIDES, repeat=3):
            for layout in WITNESS_LAYOUTS:
                a = _witnessed(rng, (m, k), dtype, pool, layout)
                b = _witnessed(rng, (k, n), dtype, pool, layout)
                assert_same_witness(*on_both_kernels(
                    lambda: semiring_product(a, b, algebra)))


class TestWitnessedKernelRuns:
    def test_loaded_kernel_bypasses_the_numpy_witness_product(self, monkeypatch):
        if native.kernel() is None:
            pytest.skip(f"the compiled kernel did not load: {native.describe()}")
        rng = np.random.default_rng(5)
        a, b = (_witnessed(rng, (6, 6), "float64", "weights", "C")
                for _ in range(2))
        expected = semiring_product(a, b, "shortest-path")

        def numpy_kernel(*args, **kwargs):
            raise AssertionError("the NumPy witnessed product ran")
        monkeypatch.setattr(W, "witness_product", numpy_kernel)
        assert_same_witness(semiring_product(a, b, "shortest-path"), expected)

    @pytest.mark.parametrize("layout", ["triangular", "full"])
    def test_paths_solve_parents_agree(self, layout):
        # Unit weights: most cells tie, so the parents are the first tight
        # edges the searches meet.
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
