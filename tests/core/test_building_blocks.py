"""Tests for the Table 1 functional building blocks."""

import numpy as np
import pytest

from repro.common.errors import SolverError
from repro.core import building_blocks as bb
from repro.graph.generators import erdos_renyi_adjacency
from repro.linalg.blocks import BlockGrid, matrix_to_blocks
from repro.linalg.kernels import floyd_warshall
from repro.linalg.semiring import elementwise_combine, minplus_product, semiring_product


@pytest.fixture(scope="module")
def blocks16():
    """Upper-triangular blocks of a 16-vertex graph with b=4 (q=4)."""
    adj = erdos_renyi_adjacency(16, seed=33)
    return adj, dict(matrix_to_blocks(adj, 4))


class TestPredicates:
    def test_in_column(self):
        assert bb.in_column(BlockGrid(4, "full"), 2)(((1, 2), None))
        assert not bb.in_column(BlockGrid(4, "full"), 2)(((2, 1), None))

    def test_on_diagonal(self):
        assert bb.on_diagonal(3)(((3, 3), None))
        assert not bb.on_diagonal(3)(((3, 4), None))
        assert not bb.on_diagonal(3)(((2, 2), None))

    def test_in_block_row_or_column(self):
        pred = bb.in_block_row_or_column(1)
        assert pred(((1, 3), None))
        assert pred(((0, 1), None))
        assert pred(((1, 1), None))
        assert not pred(((0, 2), None))

    def test_not_in_block_row_or_column(self):
        pred = bb.not_in_block_row_or_column(1)
        assert pred(((0, 2), None))
        assert not pred(((1, 2), None))

    def test_off_diagonal_in_row_or_column(self):
        pred = bb.off_diagonal_in_row_or_column(1)
        assert pred(((0, 1), None))
        assert pred(((1, 2), None))
        assert not pred(((1, 1), None))
        assert not pred(((0, 2), None))


class TestExtractColumn:
    def test_pieces_cover_full_column(self, blocks16):
        adj, blocks = blocks16
        k, pivot_block, k_local = 6, 1, 2           # global column 6 with b=4
        pieces = []
        for record in blocks.items():
            if bb.in_block_row_or_column(pivot_block)(record):
                pieces.extend(bb.extract_col(BlockGrid(4), pivot_block, k_local)(record))
        column = bb.assemble_column(pieces, 16, 4)
        assert np.array_equal(column, adj[:, k])

    def test_diagonal_block_emits_single_piece(self, blocks16):
        _, blocks = blocks16
        record = ((1, 1), blocks[(1, 1)])
        pieces = bb.extract_col(BlockGrid(4), 1, 0)(record)
        assert len(pieces) == 1
        assert pieces[0][0] == 1

    def test_row_block_is_transposed(self, blocks16):
        adj, blocks = blocks16
        record = ((1, 3), blocks[(1, 3)])   # stored as row-block of 1, column 3
        pieces = bb.extract_col(BlockGrid(4), 1, 2)(record)
        # Represents A[12:16, 6] = adj[12:16, 6]
        found = dict(pieces)
        assert 3 in found
        assert np.array_equal(found[3], adj[12:16, 6])


class TestFwUpdateWithColumn:
    def test_matches_rank1_update(self, blocks16):
        adj, blocks = blocks16
        column = adj[:, 5].copy()
        update = bb.FloydWarshallUpdate(column, column, 4)
        key, updated = update(((0, 2), blocks[(0, 2)]))
        expected = np.minimum(blocks[(0, 2)], column[0:4, None] + column[8:12][None, :])
        assert key == (0, 2)
        assert np.allclose(updated, expected)


class TestBlockKernels:
    def test_floyd_warshall_block(self, blocks16):
        _, blocks = blocks16
        key, out = bb.FloydWarshallBlock()(((1, 1), blocks[(1, 1)]))
        assert key == (1, 1)
        assert np.allclose(out, floyd_warshall(blocks[(1, 1)]))

    def test_floyd_warshall_block_does_not_mutate_input(self, blocks16):
        _, blocks = blocks16
        original = blocks[(0, 0)].copy()
        bb.FloydWarshallBlock()(((0, 0), blocks[(0, 0)]))
        assert np.array_equal(blocks[(0, 0)], original)

    def test_mat_min_and_prod(self, blocks16):
        _, blocks = blocks16
        a = blocks[(0, 1)]
        other = np.full_like(a, 2.0)
        assert np.allclose(elementwise_combine(a, other), np.minimum(a, 2.0))
        assert np.allclose(semiring_product(a, other),
                           np.min(a[:, :, None] + other[None, :, :], axis=1))

    def test_min_plus_orientation(self, blocks16):
        _, blocks = blocks16
        a, d = blocks[(0, 1)], bb.FloydWarshallBlock()(((1, 1), blocks[(1, 1)]))[1]
        right = bb.min_plus(((0, 1), a), d)[1]
        left = bb.min_plus(((0, 1), a), d, other_on_left=True)[1]
        assert np.allclose(right, np.minimum(a, minplus_product(a, d)))
        assert np.allclose(left, np.minimum(a, minplus_product(d, a)))


class TestCopyDiag:
    def test_copy_count_and_keys(self):
        q, pivot = 5, 2
        diag = np.zeros((3, 3))
        copies = bb.copy_diag(BlockGrid(q), pivot)(((pivot, pivot), diag))
        assert len(copies) == q - 1
        keys = {key for key, _ in copies}
        assert keys == {(0, 2), (1, 2), (2, 3), (2, 4)}
        assert all(tag == bb.TAG_DIAG for _, (tag, _) in copies)


class TestCopyCol:
    def test_column_block_targets(self):
        q, pivot = 4, 2
        block = np.arange(4.0).reshape(2, 2)
        # Stored block (0, 2): column block A_{0,pivot}.
        copies = bb.copy_col(BlockGrid(q), pivot)(((0, 2), block))
        tagged = {(key, tag) for key, (tag, _) in copies}
        # Left operand for block-row 0 targets, right operand for block-col 0 targets.
        assert ((0, 1), bb.TAG_LEFT) in tagged
        assert ((0, 3), bb.TAG_LEFT) in tagged
        assert ((0, 0), bb.TAG_LEFT) in tagged and ((0, 0), bb.TAG_RIGHT) in tagged
        # Never targets the pivot row/column.
        assert all(pivot not in key for key, _ in tagged)

    def test_row_block_supplies_transposes(self):
        q, pivot = 4, 1
        block = np.array([[1.0, 2.0], [3.0, 4.0]])
        # Stored block (1, 3): row block A_{pivot,3}.
        copies = bb.copy_col(BlockGrid(q), pivot)(((1, 3), block))
        by_key_tag = {(key, tag): arr for key, (tag, arr) in copies}
        # For target (0, 3) it is the right operand A_{pivot,3} itself.
        assert np.array_equal(by_key_tag[((0, 3), bb.TAG_RIGHT)], block)
        # For target (3, 3) it is also the left operand, transposed (A_{3,pivot}).
        assert np.array_equal(by_key_tag[((3, 3), bb.TAG_LEFT)], block.T)

    def test_diagonal_record_produces_nothing(self):
        copies = bb.copy_col(BlockGrid(4), 2)(((2, 2), np.zeros((2, 2))))
        assert copies == []


class TestListHelpers:
    def test_create_append_merge(self):
        acc = bb.create_list("a")
        acc = bb.list_append(acc, "b")
        assert acc == ["a", "b"]
        assert bb.merge_lists(["a"], ["b", "c"]) == ["a", "b", "c"]


class TestUnpackPhases:
    def test_phase2_column_block(self):
        base = np.full((2, 2), 5.0)
        diag = np.zeros((2, 2))
        key, out = bb.unpack_phase2(3)(((1, 3), [(bb.TAG_BASE, base), (bb.TAG_DIAG, diag)]))
        expected = np.minimum(base, minplus_product(base, diag))
        assert np.allclose(out, expected)

    def test_phase2_row_block_uses_left_product(self):
        base = np.array([[5.0, 7.0], [9.0, 11.0]])
        diag = np.array([[0.0, 1.0], [1.0, 0.0]])
        _, out = bb.unpack_phase2(0)(((0, 2), [(bb.TAG_DIAG, diag), (bb.TAG_BASE, base)]))
        expected = np.minimum(base, minplus_product(diag, base))
        assert np.allclose(out, expected)

    def test_phase2_missing_base_raises(self):
        with pytest.raises(ValueError):
            bb.unpack_phase2(0)(((0, 1), [(bb.TAG_DIAG, np.zeros((2, 2)))]))

    def test_phase2_missing_diag_raises(self):
        base = np.ones((2, 2))
        with pytest.raises(SolverError, match=r"\(0, 1\).*'D'"):
            bb.unpack_phase2(0)(((0, 1), [(bb.TAG_BASE, base)]))

    def test_phase3_applies_left_right_product(self):
        base = np.full((2, 2), 10.0)
        left = np.array([[1.0, 2.0], [3.0, 4.0]])
        right = np.array([[0.5, 1.5], [2.5, 3.5]])
        _, out = bb.unpack_phase3(1)(((0, 2), [
            (bb.TAG_BASE, base), (bb.TAG_LEFT, left), (bb.TAG_RIGHT, right)]))
        expected = np.minimum(base, minplus_product(left, right))
        assert np.allclose(out, expected)

    def test_phase3_missing_operand_raises(self):
        base = np.ones((2, 2))
        with pytest.raises(SolverError, match=r"\(0, 2\).*'R'"):
            bb.unpack_phase3(1)(((0, 2), [(bb.TAG_BASE, base),
                                          (bb.TAG_LEFT, np.zeros((2, 2)))]))


class TestMatprodColumnContributions:
    def test_square_via_contributions_matches_dense(self):
        """Summing (min-reducing) all emitted contributions reproduces A ⊗ A."""
        adj = erdos_renyi_adjacency(12, seed=44)
        blocks = dict(matrix_to_blocks(adj, 4))
        q = 3
        dense_square = np.full_like(adj, np.inf)
        expected = np.minimum(adj, minplus_product(adj, adj))
        for target in range(q):
            # Orient the column blocks the way the solver does.
            column = {}
            for (i, j), block in blocks.items():
                if j == target:
                    column[i] = block
                if i == target and j != target:
                    column[j] = block.T
            emit = bb.matprod_column_contributions(BlockGrid(q), target, column)
            partial: dict = {}
            for record in blocks.items():
                for key, value in emit(record):
                    partial[key] = np.minimum(partial[key], value) if key in partial else value
            for (i, j), value in partial.items():
                dense_square[i * 4:(i + 1) * 4, j * 4:(j + 1) * 4] = value
        # Fill lower triangle by symmetry and compare (diagonal of A is 0 so
        # A ⊗ A <= A and the min with A is already included).
        for i in range(3):
            for j in range(3):
                if i > j:
                    dense_square[i * 4:(i + 1) * 4, j * 4:(j + 1) * 4] = \
                        dense_square[j * 4:(j + 1) * 4, i * 4:(i + 1) * 4].T
        assert np.allclose(dense_square, expected)

    def test_callable_fetch(self):
        adj = erdos_renyi_adjacency(8, seed=45)
        blocks = dict(matrix_to_blocks(adj, 4))
        column = {0: blocks[(0, 1)], 1: blocks[(1, 1)]}
        emit = bb.matprod_column_contributions(BlockGrid(2), 1, lambda k: column[k])
        out = emit(((0, 1), blocks[(0, 1)]))
        assert len(out) == 2  # both roles contribute to column 1


class TestPackedBroadcastColumn:
    """Boolean columns assemble packed; float columns stay dense."""

    def test_bool_column_assembles_to_packed_vector(self):
        from repro.linalg.bitset import is_packed_vector
        pieces = [(0, np.array([True, False, True, False])),
                  (1, np.array([False, True, False, True]))]
        column = bb.assemble_column(pieces, 8, 4, "reachability")
        assert is_packed_vector(column)
        assert np.array_equal(
            column[0:8],
            [True, False, True, False, False, True, False, True])
        assert column.nbytes == 8                      # one uint64 word

    def test_float_column_stays_dense(self):
        column = bb.assemble_column([(0, np.array([1.0, 2.0]))], 8, 4)
        assert isinstance(column, np.ndarray) and column.dtype == np.float64

    def test_update_callable_slices_packed_column(self):
        from repro.linalg.bitset import PackedBlock
        rng = np.random.default_rng(8)
        dense = rng.random((8, 8)) < 0.4
        np.fill_diagonal(dense, True)
        pieces = [(0, dense[0:4, 5].copy()), (1, dense[4:8, 5].copy())]
        column = bb.assemble_column(pieces, 8, 4, "reachability")
        update = bb.FloydWarshallUpdate(column, column, 4, "reachability")
        _, updated = update(((0, 1), PackedBlock.from_dense(dense[0:4, 4:8])))
        expected = dense[0:4, 4:8] | (dense[0:4, 5][:, None] & dense[4:8, 5][None, :])
        assert np.array_equal(updated.to_dense(), expected)
