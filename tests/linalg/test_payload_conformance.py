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

import dataclasses
import pickle

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.core import building_blocks as bb
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
]


@pytest.fixture(params=REPRESENTATIONS, ids=lambda r: r.id)
def rep(request):
    return request.param


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
