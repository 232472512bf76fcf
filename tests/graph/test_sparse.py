"""Sparse (CSR) ingestion: generation, validation, block cutting, memory."""

import os
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

from repro.common.config import EngineConfig
from repro.common.errors import ValidationError
from repro.core.engine import APSPEngine
from repro.core.request import SolveRequest
from repro.graph.adjacency import knn_adjacency
from repro.graph.generators import (grid_adjacency, paper_edge_probability,
                                    random_geometric_adjacency)
from repro.graph.io import load_sparse_npz, save_sparse_npz
from repro.graph.sparse import (csr_edge, csr_with_edge, erdos_renyi_sparse,
                                grid_sparse, is_sparse,
                                knn_sparse, random_geometric_sparse,
                                sparse_to_blocks, sparse_to_dense,
                                validate_sparse_adjacency)
from repro.linalg.algebra import get_algebra
from repro.linalg.bitset import is_packed
from repro.linalg.blocks import matrix_to_blocks
from repro.linalg.kernels import semiring_closure


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------
def test_erdos_renyi_sparse_structure():
    n = 300
    csr = erdos_renyi_sparse(n, seed=7)
    assert is_sparse(csr) and csr.shape == (n, n)
    assert (csr != csr.T).nnz == 0                      # symmetric
    assert csr.diagonal().sum() == 0                    # no self loops
    assert csr.data.min() >= 1.0 and csr.data.max() < 10.0
    # nnz concentrates around 2 * p * n(n-1)/2.
    expected = paper_edge_probability(n) * n * (n - 1)
    assert 0.5 * expected < csr.nnz < 1.7 * expected


def test_erdos_renyi_sparse_options():
    assert erdos_renyi_sparse(50, p=0.0, seed=0).nnz == 0
    full = erdos_renyi_sparse(20, p=1.0, seed=0, weighted=False)
    assert full.nnz == 20 * 19
    assert set(np.unique(full.data)) == {1.0}
    boolean = erdos_renyi_sparse(60, seed=1, dtype="bool")
    assert boolean.dtype == np.bool_
    # Same seed => same edge structure regardless of weighting.
    a = erdos_renyi_sparse(80, seed=5)
    b = erdos_renyi_sparse(80, seed=5, weighted=False)
    assert (a != a.T).nnz == 0
    assert np.array_equal(a.indices, b.indices) and np.array_equal(a.indptr, b.indptr)
    with pytest.raises(ValidationError):
        erdos_renyi_sparse(10, p=1.5)
    with pytest.raises(ValidationError):
        erdos_renyi_sparse(10, weight_low=-1.0)


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------
def test_reachability_ingestion_stores_every_edge_as_true():
    """A stored 0.0 weight is an edge; under reachability it is stored True."""
    csr = sp.csr_matrix((np.array([0.0, 1.0]), (np.array([0, 1]), np.array([1, 2]))),
                        shape=(3, 3))
    out = validate_sparse_adjacency(csr, algebra="reachability")
    assert out.dtype == np.bool_ and out.nnz == 2 and out.data.all()


def test_validate_sparse_adjacency_basics():
    csr = erdos_renyi_sparse(120, seed=3)
    out = validate_sparse_adjacency(csr, require_symmetric=True,
                                    algebra="shortest-path")
    assert is_sparse(out) and out.dtype == np.float64

    asym = csr.tolil()
    asym[0, 1] = 99.0
    asym[1, 0] = 0.0
    with pytest.raises(ValidationError):
        validate_sparse_adjacency(asym.tocsr(), require_symmetric=True)

    negative = csr.copy()
    negative.data[0] = -1.0
    with pytest.raises(ValidationError):
        validate_sparse_adjacency(negative, algebra="shortest-path")

    with pytest.raises(ValidationError):
        validate_sparse_adjacency(sp.csr_matrix((3, 4)))
    with pytest.raises(ValidationError):
        validate_sparse_adjacency(np.eye(3))
    with pytest.raises(ValidationError):  # DAG check needs the dense structure
        validate_sparse_adjacency(csr, algebra="longest-path")


def test_validate_sparse_prunes_nonfinite_but_keeps_zero_weights():
    m = sp.csr_matrix(
        # (0, 1) is an explicitly stored "no edge"; (2, 3) a legitimate
        # zero-weight edge (the COO constructor keeps explicit zeros).
        (np.array([np.inf, np.inf, 0.0, 0.0]),
         (np.array([0, 1, 2, 3]), np.array([1, 0, 3, 2]))),
        shape=(4, 4))
    assert m.nnz == 4
    out = validate_sparse_adjacency(m, require_symmetric=True,
                                    algebra="shortest-path")
    dense = sparse_to_dense(out)
    assert np.isinf(dense[0, 1])         # pruned
    assert dense[2, 3] == 0.0            # kept: 0-weight edge, not "missing"


def test_validate_adjacency_dispatches_sparse():
    from repro.graph.adjacency import validate_adjacency
    csr = erdos_renyi_sparse(64, seed=9)
    out = validate_adjacency(csr, require_symmetric=True,
                             algebra="shortest-path", dtype="float64",
                             allow_sparse=True)
    assert is_sparse(out)
    # Without the opt-in (dense-only callers), sparse input fails fast ...
    with pytest.raises(ValidationError, match="dense adjacency"):
        validate_adjacency(csr)
    # ... which keeps the sequential solvers' contract honest.
    from repro.sequential.floyd_warshall import floyd_warshall_numpy
    with pytest.raises(ValidationError, match="dense adjacency"):
        floyd_warshall_numpy(csr)


def test_cli_rejects_malformed_input_file(tmp_path, capsys):
    # Unknown extensions now parse as plain-text edge lists (the ingestion
    # front door), so a rejection means the *content* failed to parse.
    from repro.experiments.cli import main
    path = os.path.join(tmp_path, "graph.txt")
    open(path, "w").write("nope")
    assert main(["solve", "--input", path]) == 2
    assert "cannot load --input" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Block cutting
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("algebra,dtype", [("shortest-path", "float64"),
                                           ("shortest-path", "float32"),
                                           ("widest-path", "float64"),
                                           ("reachability", "bool")])
@pytest.mark.parametrize("block_size", [17, 48])   # ragged and even
def test_sparse_blocks_match_dense_blocks(algebra, dtype, block_size):
    csr = erdos_renyi_sparse(100, seed=11)
    valid = validate_sparse_adjacency(csr, require_symmetric=True,
                                      algebra=algebra, dtype=dtype)
    resolved = get_algebra(algebra)
    prepared = resolved.prepare_adjacency(sparse_to_dense(valid, algebra=resolved),
                                          dtype=dtype)
    ref = dict(matrix_to_blocks(prepared, block_size))
    got = dict(sparse_to_blocks(valid, block_size, algebra=algebra, dtype=dtype))
    assert set(ref) == set(got)
    for key in ref:
        assert got[key].dtype == ref[key].dtype
        assert np.array_equal(got[key], ref[key]), key


def test_sparse_blocks_packed_storage():
    csr = erdos_renyi_sparse(90, seed=2, dtype="bool")
    valid = validate_sparse_adjacency(csr, require_symmetric=True,
                                      algebra="reachability")
    blocks = dict(sparse_to_blocks(valid, 25, algebra="reachability",
                                   storage="packed"))
    assert all(is_packed(b) for b in blocks.values())
    dense_ref = get_algebra("reachability").prepare_adjacency(
        sparse_to_dense(valid, algebra="reachability"))
    ref = dict(matrix_to_blocks(dense_ref, 25))
    for key in ref:
        assert np.array_equal(blocks[key].to_dense(), ref[key]), key


# ---------------------------------------------------------------------------
# End to end
# ---------------------------------------------------------------------------
def test_sparse_solve_matches_dense_solve():
    csr = erdos_renyi_sparse(130, seed=21)
    dense = sparse_to_dense(csr)
    with APSPEngine(EngineConfig()) as eng:
        for solver in ("blocked-cb", "blocked-im", "repeated-squaring", "fw-2d"):
            request = SolveRequest(solver=solver, block_size=40)
            from_sparse = eng.solve(csr, request)
            from_dense = eng.solve(dense, request)
            assert np.array_equal(from_sparse.distances, from_dense.distances)


def test_sparse_reachability_solve_is_packed_and_exact():
    csr = erdos_renyi_sparse(110, seed=23, dtype="bool")
    reference = semiring_closure(sparse_to_dense(csr, algebra="reachability"),
                                 "reachability")
    with APSPEngine(EngineConfig()) as eng:
        result = eng.solve(csr, SolveRequest(solver="blocked-cb", block_size=30,
                                             algebra="reachability"))
    assert result.storage == "packed"
    assert np.array_equal(result.distances, reference)


def test_npz_round_trip(tmp_path):
    csr = erdos_renyi_sparse(70, seed=4)
    path = os.path.join(tmp_path, "graph.npz")
    save_sparse_npz(csr, path)
    loaded = load_sparse_npz(path)
    assert (loaded != csr).nnz == 0
    with pytest.raises(ValidationError):
        save_sparse_npz(np.eye(3), path)


def test_cli_accepts_npz_input(tmp_path, capsys):
    from repro.experiments.cli import main
    path = os.path.join(tmp_path, "graph.npz")
    save_sparse_npz(erdos_renyi_sparse(72, seed=6), path)
    assert main(["solve", "--input", path, "--solver", "blocked-cb",
                 "--block-size", "24"]) == 0
    out = capsys.readouterr().out
    assert "sparse CSR" in out and "verified" in out
    assert main(["solve", "--input", path, "--no-verify"]) == 0
    assert "verification skipped" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# The memory gate: ingestion never materializes a dense n x n array
# ---------------------------------------------------------------------------
def test_sparse_ingestion_peak_allocation():
    """Prepare + block-cut a CSR input and bound the peak allocation.

    With n = 1024 a dense float64 staging array would be 8 MiB (and even a
    bool one 1 MiB); the sparse path must stay well under that — O(nnz + b²)
    per step plus the O(n²/64) packed output blocks themselves.
    """
    n, b = 1024, 128
    csr = erdos_renyi_sparse(n, seed=31, dtype="bool")
    with APSPEngine(EngineConfig()) as eng:
        request = SolveRequest(solver="blocked-cb", block_size=b,
                               algebra="reachability")
        tracemalloc.start()
        plan = eng.plan(csr, request)
        records = list(plan.block_records())
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    assert plan.sparse_input
    assert all(is_packed(block) for _, block in records)
    dense_n2 = n * n          # bytes of a bool n x n; float64 would be 8x
    # Packed blocks total ~n^2/16 bytes (upper triangle, 64 bits/word, with
    # per-solve overheads); the gate is that nothing n^2-sized was staged.
    assert peak < dense_n2 // 2, f"peak {peak} suggests a dense staging array"


def test_sparse_plan_keeps_csr_not_dense():
    csr = erdos_renyi_sparse(256, seed=33)
    with APSPEngine(EngineConfig()) as eng:
        plan = eng.plan(csr, SolveRequest(solver="blocked-cb", block_size=64))
    assert plan.sparse_input
    assert is_sparse(plan.adjacency)
    assert plan.describe()["sparse_input"] is True


# ---------------------------------------------------------------------------
# CSR twins of the remaining dense generators
# ---------------------------------------------------------------------------
class TestSparseGeneratorTwins:
    def test_grid_matches_dense(self):
        for rows, cols in [(1, 1), (1, 6), (4, 7), (5, 5)]:
            csr = grid_sparse(rows, cols, weight=2.5)
            assert is_sparse(csr)
            assert np.array_equal(sparse_to_dense(csr),
                                  grid_adjacency(rows, cols, weight=2.5))

    def test_random_geometric_matches_dense_for_same_seed(self):
        for n, dim in [(2, 2), (40, 2), (64, 3)]:
            csr = random_geometric_sparse(n, dim=dim, seed=9)
            dense = random_geometric_adjacency(n, dim=dim, seed=9)
            assert np.array_equal(sparse_to_dense(csr), dense)

    def test_random_geometric_explicit_radius(self):
        csr = random_geometric_sparse(50, radius=0.3, seed=4)
        dense = random_geometric_adjacency(50, radius=0.3, seed=4)
        assert np.array_equal(sparse_to_dense(csr), dense)

    def test_knn_matches_dense(self):
        rng = np.random.default_rng(4)
        pts = rng.random((50, 3))
        for k in (1, 4, 10):
            for symmetrize in (True, False):
                csr = knn_sparse(pts, k, symmetrize=symmetrize)
                dense = knn_adjacency(pts, k, symmetrize=symmetrize)
                assert np.allclose(sparse_to_dense(csr), dense)

    def test_knn_handles_duplicate_points(self):
        rng = np.random.default_rng(1)
        base = rng.random((6, 2))
        pts = np.vstack([base, base])            # every point duplicated
        csr = knn_sparse(pts, 3)
        dense = sparse_to_dense(csr)
        assert (dense == dense.T).all()
        # Each row found k real neighbours, never itself.
        assert (np.isfinite(dense).sum(axis=1) >= 3).all()

    def test_knn_validation(self):
        with pytest.raises(ValidationError):
            knn_sparse(np.ones(5), 2)            # 1-D points
        with pytest.raises(ValidationError):
            knn_sparse(np.ones((4, 2)), 4)       # k >= n

    def test_generated_csr_solves_end_to_end(self):
        csr = random_geometric_sparse(36, seed=2)
        with APSPEngine(EngineConfig()) as eng:
            result = eng.solve(csr, SolveRequest(solver="blocked-cb",
                                                 block_size=12))
        expected = semiring_closure(sparse_to_dense(csr), "shortest-path")
        assert np.allclose(result.distances, expected)


# ---------------------------------------------------------------------------
# Single-edge edits (the dynamic-update path's CSR helper)
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 9), seed=st.integers(0, 10_000),
       mirror=st.booleans(), data=st.data())
def test_csr_edits_equal_dense_edits_then_convert(n, seed, mirror, data):
    """A random set / delete sequence on a CSR == the same on a dense matrix."""
    rng = np.random.default_rng(seed)
    dense = np.where(rng.random((n, n)) < 0.3, rng.integers(0, 4, (n, n)), np.inf)
    if mirror:
        dense = np.minimum(dense, dense.T)
    np.fill_diagonal(dense, np.inf)          # inf = unstored; 0.0 is an edge

    def to_csr(matrix):
        rows, cols = np.nonzero(np.isfinite(matrix))
        return sp.csr_matrix((matrix[rows, cols], (rows, cols)), shape=(n, n))

    csr = original = to_csr(dense)
    pristine = original.copy()
    vertex = st.integers(0, n - 1)
    for _ in range(data.draw(st.integers(1, 12))):
        u, v = data.draw(vertex), data.draw(vertex)
        value = data.draw(st.one_of(st.none(), st.integers(0, 5)))
        if u == v:
            continue
        assert csr_edge(csr, u, v) == (dense[u, v] if np.isfinite(dense[u, v])
                                       else None)
        edited = csr_with_edge(csr, u, v, value, mirror=mirror)
        assert edited is not csr
        csr = edited
        dense[u, v] = np.inf if value is None else value
        if mirror:
            dense[v, u] = dense[u, v]
        want = to_csr(dense)
        assert csr.has_canonical_format and csr.dtype == want.dtype
        assert np.array_equal(csr.indptr, want.indptr)
        assert np.array_equal(csr.indices, want.indices)
        assert np.array_equal(csr.data, want.data)
    # Every edit returned a new matrix; the first one was never written.
    assert np.array_equal(original.indptr, pristine.indptr)
    assert np.array_equal(original.indices, pristine.indices)
    assert np.array_equal(original.data, pristine.data)
