"""The block grid: the one place that knows the triangular/full mirror rule."""

import math
from collections import Counter

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.core import building_blocks as bb
from repro.linalg.algebra import get_algebra
from repro.linalg.blocks import (LAYOUTS, BlockGrid, block_range, blocks_to_matrix,
                                 matrix_to_blocks, num_blocks)
from repro.linalg.payload import payload_ops

GRIDS = [BlockGrid(q, layout) for layout in LAYOUTS for q in range(1, 7)]


def grid_id(grid):
    return f"{grid.layout}-q{grid.q}"


def random_matrix(n, layout, seed, *, boolean=False):
    """A prepared (min, +) / boolean matrix: symmetric iff the layout mirrors."""
    rng = np.random.default_rng(seed)
    mirrored = BlockGrid(1, layout).mirrored
    present = rng.random((n, n)) < 0.4
    if mirrored:
        present = np.triu(present, 1)
        present = present | present.T
    if boolean:
        matrix = present.copy()
        np.fill_diagonal(matrix, True)
        return matrix
    weights = rng.integers(1, 9, (n, n)).astype(np.float64)
    if mirrored:
        weights = np.triu(weights, 1)
        weights = weights + weights.T
    matrix = np.where(present, weights, np.inf)
    np.fill_diagonal(matrix, 0.0)
    return matrix


# ---------------------------------------------------------------------------
# The rule itself
# ---------------------------------------------------------------------------
class TestGridRule:
    @pytest.mark.parametrize("grid", GRIDS, ids=grid_id)
    def test_roles_partition_the_logical_grid(self, grid):
        covered = Counter((r, c) for key in grid.keys()
                          for r, c, _ in grid.roles(key))
        assert covered == Counter((r, c) for r in range(grid.q)
                                  for c in range(grid.q))

    @pytest.mark.parametrize("grid", GRIDS, ids=grid_id)
    def test_stored_orientation_comes_first(self, grid):
        for key in grid.keys():
            roles = grid.roles(key)
            assert roles[0] == (*key, False)
            assert all(transposed for _, _, transposed in roles[1:])

    @pytest.mark.parametrize("grid", GRIDS, ids=grid_id)
    def test_locate_inverts_roles(self, grid):
        for key in grid.keys():
            for r, c, transposed in grid.roles(key):
                assert grid.locate(r, c) == (key, transposed)

    @pytest.mark.parametrize("grid", GRIDS, ids=grid_id)
    def test_count_and_stores_match_keys(self, grid):
        keys = list(grid.keys())
        assert grid.count == len(keys) == len(set(keys))
        assert keys == sorted(keys)                      # row-major
        assert set(keys) == {(r, c) for r in range(grid.q)
                             for c in range(grid.q) if grid.stores(r, c)}

    @pytest.mark.parametrize("grid", GRIDS, ids=grid_id)
    def test_stores_is_elementwise_on_index_arrays(self, grid):
        r, c = np.divmod(np.arange(grid.q * grid.q), grid.q)
        assert grid.stores(r, c).tolist() == [bool(grid.stores(int(i), int(j)))
                                              for i, j in zip(r, c)]

    def test_only_the_triangular_grid_mirrors(self):
        assert BlockGrid(3).mirrored and BlockGrid(3).layout == "triangular"
        assert not BlockGrid(3, "full").mirrored

    def test_unknown_layout_is_rejected(self):
        with pytest.raises(ConfigurationError, match="diagonal"):
            BlockGrid(3, "diagonal")

    @pytest.mark.parametrize("count", (1, 2, 6, 7, 24, 64, 100))
    def test_side_for_inverts_the_asymptotic_count(self, count):
        assert BlockGrid.side_for(count, "full") == math.ceil(math.sqrt(count))
        assert BlockGrid.side_for(count) == math.ceil(math.sqrt(2.0 * count))


# ---------------------------------------------------------------------------
# Cut -> assemble round trips at a ragged size
# ---------------------------------------------------------------------------
N, B = 27, 8


class TestRoundTrip:
    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_dense(self, layout):
        matrix = random_matrix(N, layout, seed=1)
        blocks = list(matrix_to_blocks(matrix, B, layout=layout))
        grid = BlockGrid(4, layout)
        assert [key for key, _ in blocks] == list(grid.keys())
        assert np.array_equal(blocks_to_matrix(blocks, N, B, layout=layout), matrix)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_packed(self, layout):
        matrix = random_matrix(N, layout, seed=2, boolean=True)
        blocks = list(matrix_to_blocks(matrix, B, layout=layout, storage="packed"))
        assert all(payload_ops(block).name == "packed" for _, block in blocks)
        rebuilt = blocks_to_matrix(blocks, N, B, layout=layout, fill=False)
        assert rebuilt.dtype == np.bool_ and np.array_equal(rebuilt, matrix)

    @pytest.mark.parametrize("layout", LAYOUTS)
    def test_records_read_every_logical_block(self, layout):
        matrix = random_matrix(N, layout, seed=4)
        blocks = dict(matrix_to_blocks(matrix, B, layout=layout))
        grid = BlockGrid(num_blocks(N, B), layout)
        assert len(blocks) == grid.count
        for r in range(grid.q):
            for c in range(grid.q):
                key, transposed = grid.locate(r, c)
                block = blocks[key].T if transposed else blocks[key]
                assert np.array_equal(
                    block, matrix[block_range(r, B, N), block_range(c, B, N)])
        assert np.array_equal(
            blocks_to_matrix(blocks.items(), N, B, layout=layout), matrix)

    def test_asymmetric_matrix_does_not_survive_the_mirrored_grid(self):
        matrix = random_matrix(N, "full", seed=5)
        blocks = list(matrix_to_blocks(matrix, B))
        assert not np.array_equal(blocks_to_matrix(blocks, N, B), matrix)


# ---------------------------------------------------------------------------
# The merged building blocks, against the dense matrix, on both layouts
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("layout", LAYOUTS)
class TestBuildingBlocksOnBothLayouts:
    def setup_blocks(self, layout):
        matrix = random_matrix(N, layout, seed=6)
        blocks = dict(matrix_to_blocks(matrix, B, layout=layout))
        return matrix, blocks, BlockGrid(4, layout)

    @staticmethod
    def logical(matrix, r, c):
        return matrix[block_range(r, B, N), block_range(c, B, N)]

    @pytest.mark.parametrize("pivot", range(4))
    def test_copies_pair_every_block_with_its_operands(self, layout, pivot):
        matrix, blocks, grid = self.setup_blocks(layout)
        cross = {key for key in blocks if (key[0] == pivot) != (key[1] == pivot)}
        targets = {key for key in blocks if pivot not in key}

        diag_copies = bb.copy_diag(grid, pivot)(((pivot, pivot),
                                                 blocks[(pivot, pivot)]))
        assert Counter(key for key, _ in diag_copies) == Counter(cross)
        assert all(tag == bb.TAG_DIAG and block is blocks[(pivot, pivot)]
                   for _, (tag, block) in diag_copies)

        received = Counter()
        copier = bb.copy_col(grid, pivot)
        for key in sorted(cross):
            for target, (tag, block) in copier((key, blocks[key])):
                received[(target, tag)] += 1
                i, j = target
                expected = (self.logical(matrix, i, pivot) if tag == bb.TAG_LEFT
                            else self.logical(matrix, pivot, j))
                assert np.array_equal(block, expected), (target, tag)
        assert received == Counter((target, tag) for target in targets
                                   for tag in (bb.TAG_LEFT, bb.TAG_RIGHT))
        assert copier(((pivot, pivot), blocks[(pivot, pivot)])) == []

    @pytest.mark.parametrize("k", (0, 7, 13, 26))
    def test_extract_and_update_reproduce_one_pivot_step(self, layout, k):
        matrix, blocks, grid = self.setup_blocks(layout)
        pivot_block, k_local = divmod(k, B)
        pieces = []
        for record in blocks.items():
            if bb.in_block_row_or_column(pivot_block)(record):
                pieces.extend(bb.extract_col(grid, pivot_block, k_local)(record))
        vectors = bb.assemble_pivot(pieces, grid, N, B)
        # One vector where the pivot row is the pivot column, two otherwise.
        assert len(vectors) == (1 if grid.mirrored else 2)
        assert np.array_equal(vectors[0], matrix[:, k])
        assert np.array_equal(vectors[-1], matrix[k, :])

        update = bb.FloydWarshallUpdate(vectors[0], vectors[-1], B)
        stepped = blocks_to_matrix([update(record) for record in blocks.items()],
                                   N, B, layout=layout)
        expected = np.minimum(matrix, matrix[:, k, None] + matrix[None, k, :])
        assert np.array_equal(stepped, expected)

    @pytest.mark.parametrize("target", range(4))
    def test_in_column_and_matprod_cover_the_output_column(self, layout, target):
        matrix, blocks, grid = self.setup_blocks(layout)
        algebra = get_algebra("shortest-path")
        column_records = [r for r in blocks.items() if bb.in_column(grid, target)(r)]
        column = {r: (block.T if transposed else block)
                  for key, block in column_records
                  for r, c, transposed in grid.roles(key) if c == target}
        assert sorted(column) == list(range(grid.q))
        for r, block in column.items():
            assert np.array_equal(block, self.logical(matrix, r, target))

        emit = bb.matprod_column_contributions(grid, target, column, algebra)
        reduced: dict = {}
        for record in blocks.items():
            for key, value in emit(record):
                reduced[key] = np.minimum(reduced[key], value) if key in reduced else value
        assert sorted(reduced) == [key for key in grid.keys() if key[1] == target]
        squared = np.min(matrix[:, :, None] + matrix[None, :, :], axis=1)
        for (r, c), value in reduced.items():
            assert np.array_equal(value, self.logical(squared, r, c))
