"""Witness (parent-pointer) tracking: blocks, kernels, repair, reconstruction."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import SolverError, ValidationError
from repro.linalg import witness as W
from repro.linalg.algebra import get_algebra
from repro.linalg.blocks import blocks_to_matrix, matrix_to_blocks
from repro.linalg.kernels import (blocked_floyd_warshall_inplace,
                                  floyd_warshall_inplace, semiring_closure)
from repro.linalg.semiring import elementwise_combine, semiring_product
from repro.serve import fold_route

WITNESS_ALGEBRAS = ("shortest-path", "widest-path", "most-reliable", "reachability")


def random_adjacency(n, seed, algebra):
    """Canonical symmetric adjacency respecting the algebra's weight domain."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < 0.35
    mask = np.triu(mask, 1)
    mask = mask | mask.T
    if get_algebra(algebra).name == "most-reliable":
        weights = rng.uniform(0.05, 0.95, size=(n, n))
    else:
        weights = rng.uniform(0.5, 9.5, size=(n, n))
    weights = np.triu(weights, 1)
    weights = weights + weights.T
    adj = np.where(mask, weights, np.inf)
    np.fill_diagonal(adj, 0.0)
    return adj


def assert_paths_valid(algebra, prepared, distances, parents):
    """Every reachable pair reconstructs to an edge path folding to the closure."""
    alg = get_algebra(algebra)
    n = distances.shape[0]
    zero = alg.zero_like(distances.dtype)
    for i in range(n):
        for j in range(n):
            if i == j:
                assert parents[i, j] == W.NO_VERTEX
                continue
            if distances[i, j] == zero:
                assert parents[i, j] == W.NO_VERTEX
                with pytest.raises(SolverError):
                    W.reconstruct_path(parents, i, j)
                continue
            path = W.reconstruct_path(parents, i, j)
            assert path[0] == i and path[-1] == j
            assert len(set(path)) == len(path)  # simple path
            fold = fold_route(prepared, path, alg)
            assert np.isclose(float(fold), float(distances[i, j]),
                              rtol=1e-6, atol=1e-9)


# ---------------------------------------------------------------------------
# WitnessBlock / WitnessVector basics
# ---------------------------------------------------------------------------
class TestWitnessBlock:
    def test_transpose_swaps_planes(self):
        vals = np.array([[0.0, 2.0], [2.0, 0.0]])
        parents = np.array([[-1, 0], [1, -1]], dtype=np.int32)
        succs = np.array([[-1, 1], [0, -1]], dtype=np.int32)
        wb = W.WitnessBlock(vals, parents, succs)
        assert np.array_equal(wb.T.parents, succs.T)
        assert np.array_equal(wb.T.succs, parents.T)
        assert np.array_equal(wb.T.values, vals.T)
        # double transpose is the identity
        assert wb.T.T == wb

    def test_pickle_roundtrip(self):
        wb = W.witness_block(np.array([[0.0, 3.0], [3.0, 0.0]]), 4, 4,
                             "shortest-path")
        clone = pickle.loads(pickle.dumps(wb))
        assert clone == wb
        assert clone.nbytes == wb.nbytes

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            W.WitnessBlock(np.zeros((2, 2)), np.zeros((2, 3), np.int32),
                           np.zeros((2, 2), np.int32))
        with pytest.raises(ValidationError):
            W.WitnessBlock(np.zeros(3), np.zeros(3, np.int32),
                           np.zeros(3, np.int32))

    def test_initial_stamp_uses_global_ids(self):
        vals = np.array([[np.inf, 5.0], [5.0, np.inf]])
        wb = W.witness_block(vals, 10, 20, "shortest-path")
        # edge (10, 21): pred of 21 is 10; succ of 10 is 21
        assert wb.parents[0, 1] == 10
        assert wb.succs[0, 1] == 21
        # edge (11, 20): the other orientation of the same stored block
        assert wb.parents[1, 0] == 11
        assert wb.succs[1, 0] == 20

    def test_diagonal_block_stamp(self):
        vals = np.array([[0.0, np.inf], [np.inf, 0.0]])
        prepared = get_algebra("shortest-path").prepare_adjacency(vals)
        wb = W.witness_block(prepared, 6, 6, "shortest-path")
        assert wb.parents[0, 0] == W.NO_VERTEX
        assert wb.parents[0, 1] == W.NO_VERTEX  # no edge

    def test_witness_vector_slicing(self):
        col = W.WitnessVector(np.array([1.0, 2.0, 3.0]),
                              np.array([4, 5, 6], np.int32))
        piece = col[1:3]
        assert np.array_equal(piece.values, [2.0, 3.0])
        assert np.array_equal(piece.toward, [5, 6])
        with pytest.raises(ValidationError):
            col[1]

    def test_requires_witness_algebra(self):
        no_witness = get_algebra("shortest-path").__class__(
            name="plus-times", add_op=np.add, mul_op=np.multiply,
            zero=0.0, one=1.0)
        with pytest.raises(ValidationError):
            W.witness_block(np.zeros((2, 2)), 0, 0, no_witness)


# ---------------------------------------------------------------------------
# Paired kernels vs the value-only kernels
# ---------------------------------------------------------------------------
class TestWitnessKernels:
    @pytest.mark.parametrize("algebra", WITNESS_ALGEBRAS)
    def test_product_matches_value_kernel(self, algebra):
        alg = get_algebra(algebra)
        adj = random_adjacency(17, 3, algebra)
        prepared = alg.prepare_adjacency(adj)
        wb = W.witness_matrix(prepared, alg)
        prod = semiring_product(wb, wb, alg)
        dense = semiring_product(prepared, prepared, alg)
        assert alg.allclose(prod.values, dense)

    @pytest.mark.parametrize("algebra", WITNESS_ALGEBRAS)
    def test_combine_matches_value_kernel(self, algebra):
        alg = get_algebra(algebra)
        a = W.witness_matrix(alg.prepare_adjacency(random_adjacency(9, 0, algebra)), alg)
        b = W.witness_matrix(alg.prepare_adjacency(random_adjacency(9, 1, algebra)), alg)
        combined = elementwise_combine(a, b, alg)
        assert alg.allclose(combined.values,
                            alg.add(a.values, b.values))
        # ties keep the first operand's pointers
        same = elementwise_combine(a, a.copy(), alg)
        assert np.array_equal(same.parents, a.parents)

    def test_combine_winner_keeps_pointers(self):
        alg = get_algebra("shortest-path")
        a = W.WitnessBlock(np.array([[5.0]]), np.array([[7]], np.int32),
                           np.array([[8]], np.int32))
        b = W.WitnessBlock(np.array([[3.0]]), np.array([[1]], np.int32),
                           np.array([[2]], np.int32))
        combined = W.witness_combine(a, b, alg)
        assert combined.values[0, 0] == 3.0
        assert combined.parents[0, 0] == 1
        assert combined.succs[0, 0] == 2

    def test_mixing_witnessed_and_plain_raises(self):
        alg = get_algebra("shortest-path")
        wb = W.witness_matrix(alg.prepare_adjacency(random_adjacency(5, 0, "shortest-path")), alg)
        with pytest.raises(ValidationError):
            elementwise_combine(wb, wb.values, alg)
        with pytest.raises(ValidationError):
            semiring_product(wb, wb.values, alg)

    def test_arg_select_matches_add_reduce(self):
        for algebra in WITNESS_ALGEBRAS:
            alg = get_algebra(algebra)
            arr = alg.prepare_adjacency(random_adjacency(8, 2, algebra))
            ks = alg.arg_select(arr, axis=1)
            reduced = alg.add_reduce(arr, axis=1)
            assert np.array_equal(arr[np.arange(8), ks], reduced)

    def test_arg_select_requires_policy(self):
        from repro.common.errors import ConfigurationError
        from repro.linalg.algebra import Semiring
        counting = Semiring(name="count-paths", add_op=np.add,
                            mul_op=np.multiply, zero=0.0, one=1.0)
        assert not counting.supports_witness
        with pytest.raises(ConfigurationError):
            counting.arg_select(np.zeros((2, 2)), axis=1)


# ---------------------------------------------------------------------------
# Sequential closures with witnesses (property-based)
# ---------------------------------------------------------------------------
class TestWitnessClosures:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10_000),
           algebra=st.sampled_from(WITNESS_ALGEBRAS),
           n=st.integers(6, 24))
    def test_fw_paths_fold_to_closure(self, seed, algebra, n):
        """Property: reconstructed-path ⊗-fold equals the closure entry."""
        alg = get_algebra(algebra)
        adj = random_adjacency(n, seed, algebra)
        prepared = alg.prepare_adjacency(adj)
        reference = semiring_closure(adj, alg)
        wb = W.witness_matrix(prepared, alg)
        floyd_warshall_inplace(wb, alg)
        parents, _ = W.repair_parents(wb.values, wb.parents, prepared, alg)
        assert alg.allclose(wb.values, reference)
        assert_paths_valid(alg, prepared, wb.values, parents)

    @pytest.mark.parametrize("algebra", WITNESS_ALGEBRAS)
    def test_blocked_fw_paths(self, algebra):
        alg = get_algebra(algebra)
        adj = random_adjacency(26, 5, algebra)
        prepared = alg.prepare_adjacency(adj)
        reference = semiring_closure(adj, alg)
        wb = W.witness_matrix(prepared, alg)
        blocked_floyd_warshall_inplace(wb, 8, alg)
        parents, _ = W.repair_parents(wb.values, wb.parents, prepared, alg)
        assert alg.allclose(wb.values, reference)
        assert_paths_valid(alg, prepared, wb.values, parents)


# ---------------------------------------------------------------------------
# Consistency detection + tight-edge repair
# ---------------------------------------------------------------------------
class TestRepair:
    def test_detects_pointer_cycle(self):
        parents = np.full((4, 4), W.NO_VERTEX, dtype=np.int32)
        parents[0, 1] = 0
        parents[0, 2] = 3   # 2 <- 3 <- 2: cycle off the root
        parents[0, 3] = 2
        ok = W.consistent_parent_rows(parents)
        assert not ok[0]
        assert ok[1] and ok[2] and ok[3]

    def test_parent_row_follows_tight_edges(self):
        alg = get_algebra("widest-path")
        adj = random_adjacency(20, 9, "widest-path")
        prepared = alg.prepare_adjacency(adj)
        closure = semiring_closure(adj, alg)
        edges = W.CsrEdges.of(prepared, alg, closure.dtype)
        row = W.parent_row(0, closure, edges, alg)
        parents = np.full(closure.shape, W.NO_VERTEX, dtype=np.int32)
        parents[0] = row
        zero = alg.zero_like(closure.dtype)
        for j in range(20):
            if j == 0 or closure[0, j] == zero:
                continue
            path = W.reconstruct_path(parents, 0, j)
            fold = fold_route(prepared, path, alg)
            assert np.isclose(float(fold), float(closure[0, j]))

    @pytest.mark.parametrize("algebra,dtype", [
        (algebra, dtype) for algebra in WITNESS_ALGEBRAS
        for dtype in (None, "float32") if dtype in get_algebra(algebra).dtypes
        or dtype is None])
    def test_parent_row_matches_a_python_bfs_over_isclose(self, algebra, dtype):
        """The loop reference: a Python BFS visiting edges in row-major order
        and marking them tight with ``np.isclose`` gives the same row."""
        alg = get_algebra(algebra)
        adj = random_adjacency(16, 7, algebra)
        adj[np.isfinite(adj) & (adj > 5.0)] = 5.0       # plateau weights
        prepared = alg.prepare_adjacency(adj, dtype=dtype)
        closure = semiring_closure(adj, alg, dtype=dtype)
        zero = alg.zero_like(closure.dtype)
        rtol = W._tight_rtol(closure.dtype)
        edges = W.CsrEdges.of(prepared, alg, closure.dtype)
        for source in range(16):
            d = closure[source]
            expected = np.full(16, W.NO_VERTEX, dtype=np.int32)
            seen, queue = {source}, [source]
            for p in queue:
                for j in range(16):
                    weight = prepared[p, j]
                    if j == p or j in seen or weight == zero:
                        continue
                    cand = alg.mul(d[p], weight)
                    if closure.dtype == np.bool_:
                        tight = bool(cand and d[j])
                    else:
                        tight = cand != zero and (
                            np.isclose(cand, d[j], rtol=rtol, atol=rtol)
                            or (np.isinf(cand) and np.isinf(d[j])))
                    if tight:
                        expected[j] = p
                        seen.add(j)
                        queue.append(j)
            assert np.array_equal(W.parent_row(source, closure, edges, alg),
                                  expected)

    def test_parent_row_is_the_same_from_either_adjacency_form(self):
        import scipy.sparse as sp
        alg = get_algebra("reachability")
        adj = random_adjacency(18, 2, "reachability")
        prepared = alg.prepare_adjacency(adj)
        closure = semiring_closure(adj, alg)
        csr = sp.csr_matrix(prepared & ~np.eye(18, dtype=bool))
        dense_edges = W.CsrEdges.of(prepared, alg, closure.dtype)
        csr_edges = W.CsrEdges.of(csr, alg, closure.dtype)
        for field in W.CsrEdges._fields:
            assert np.array_equal(getattr(dense_edges, field),
                                  getattr(csr_edges, field))
        for source in range(18):
            assert np.array_equal(W.parent_row(source, closure, dense_edges, alg),
                                  W.parent_row(source, closure, csr_edges, alg))

    def test_parent_row_rejects_a_closure_its_edges_cannot_realize(self):
        alg = get_algebra("shortest-path")
        prepared = alg.prepare_adjacency(np.array([[0.0, 1.0, np.inf],
                                                   [1.0, 0.0, np.inf],
                                                   [np.inf, np.inf, 0.0]]))
        closure = semiring_closure(prepared, alg)
        closure[0, 2] = 5.0                 # no edge reaches vertex 2
        edges = W.CsrEdges.of(prepared, alg, closure.dtype)
        assert W.parent_row(1, closure, edges, alg).tolist() == [1, -1, -1]
        with pytest.raises(SolverError, match="1 vertices from source 0"):
            W.parent_row(0, closure, edges, alg)

    def test_repair_only_touches_bad_rows(self):
        alg = get_algebra("shortest-path")
        adj = random_adjacency(12, 1, "shortest-path")
        prepared = alg.prepare_adjacency(adj)
        wb = W.witness_matrix(prepared, alg)
        floyd_warshall_inplace(wb, alg)
        before = wb.parents.copy()
        parents, repaired = W.repair_parents(wb.values, wb.parents, prepared, alg)
        assert repaired == 0
        assert np.array_equal(parents, before)

    def test_repair_fixes_injected_cycle(self):
        alg = get_algebra("reachability")
        adj = random_adjacency(15, 4, "reachability")
        prepared = alg.prepare_adjacency(adj)
        wb = W.witness_matrix(prepared, alg)
        floyd_warshall_inplace(wb, alg)
        # sabotage one row with a cycle among reachable vertices
        reachable = np.flatnonzero(wb.values[0] & (np.arange(15) != 0))
        if reachable.size >= 2:
            a, b = int(reachable[0]), int(reachable[1])
            wb.parents[0, a] = b
            wb.parents[0, b] = a
        parents, repaired = W.repair_parents(wb.values, wb.parents, prepared, alg)
        assert repaired >= 1
        assert_paths_valid(alg, prepared, wb.values, parents)


# ---------------------------------------------------------------------------
# Reconstruction + folding edge cases
# ---------------------------------------------------------------------------
class TestReconstruction:
    def test_trivial_and_error_cases(self):
        parents = np.full((3, 3), W.NO_VERTEX, dtype=np.int32)
        assert W.reconstruct_path(parents, 1, 1) == [1]
        with pytest.raises(SolverError):
            W.reconstruct_path(parents, 0, 2)
        with pytest.raises(ValidationError):
            W.reconstruct_path(parents, 0, 9)

    def test_cycle_guard(self):
        parents = np.full((3, 3), W.NO_VERTEX, dtype=np.int32)
        parents[0, 1] = 2
        parents[0, 2] = 1
        with pytest.raises(SolverError):
            W.reconstruct_path(parents, 0, 1)

    def test_fold_route_rejects_non_edges(self):
        alg = get_algebra("shortest-path")
        prepared = alg.prepare_adjacency(
            np.array([[0.0, 1.0, np.inf],
                      [1.0, 0.0, np.inf],
                      [np.inf, np.inf, 0.0]]))
        assert fold_route(prepared, [0, 1], alg) == 1.0
        assert fold_route(prepared, [2], alg) == 0.0
        with pytest.raises(SolverError):
            fold_route(prepared, [0, 2], alg)


# ---------------------------------------------------------------------------
# Block decomposition / assembly with witnesses
# ---------------------------------------------------------------------------
class TestWitnessBlocks:
    def test_matrix_roundtrip_through_witnessed_blocks(self):
        alg = get_algebra("shortest-path")
        prepared = alg.prepare_adjacency(random_adjacency(14, 6, "shortest-path"))
        records = list(matrix_to_blocks(prepared, 5, layout="triangular",
                                        witness=True, algebra=alg))
        assert all(W.is_witnessed(blk) for _, blk in records)
        values, parents = W.witness_blocks_to_matrices(
            records, 14, 5, layout="triangular", fill=np.inf, dtype=np.float64)
        assert np.array_equal(values, prepared)
        wb = W.witness_matrix(prepared, alg)
        assert np.array_equal(parents, wb.parents)
        # blocks_to_matrix unwraps witnessed payloads to their values
        assert np.array_equal(
            blocks_to_matrix(records, 14, 5, layout="triangular"), prepared)

    def test_witness_blocks_reject_packed_storage(self):
        alg = get_algebra("reachability")
        prepared = alg.prepare_adjacency(random_adjacency(8, 0, "reachability"))
        with pytest.raises(ValidationError):
            list(matrix_to_blocks(prepared, 4, witness=True, storage="packed",
                                  algebra=alg))

    def test_witnessed_mirror_follows_the_transpose_rule(self):
        alg = get_algebra("shortest-path")
        prepared = alg.prepare_adjacency(random_adjacency(10, 2, "shortest-path"))
        blocks = dict(matrix_to_blocks(prepared, 4, witness=True, algebra=alg))
        mirror = blocks[(0, 2)].T  # logical block (2, 0)
        assert W.is_witnessed(mirror)
        assert np.array_equal(mirror.parents, blocks[(0, 2)].succs.T)
        values, parents = W.witness_blocks_to_matrices(
            blocks.items(), 10, 4, fill=np.inf)
        assert np.array_equal(values, prepared)
        assert np.array_equal(parents[8:10, 0:4], mirror.parents)

    def test_plain_blocks_are_refused_as_witnessed(self):
        alg = get_algebra("shortest-path")
        prepared = alg.prepare_adjacency(random_adjacency(8, 3, "shortest-path"))
        plain = matrix_to_blocks(prepared, 4)
        with pytest.raises(ValidationError):
            W.witness_blocks_to_matrices(plain, 8, 4, fill=np.inf)
