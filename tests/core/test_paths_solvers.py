"""End-to-end path reconstruction: algebra × solver × backend property checks.

The central property (the PR's acceptance bar): for every witnessed solve,
reconstructing any reachable pair's route yields a real edge path whose
⊗-fold equals the reported closure entry exactly (up to dtype rounding).
"""

import numpy as np
import pytest

from repro import APSPEngine, SolveRequest
from repro.common.config import EngineConfig
from repro.common.errors import ConfigurationError, SolverError
from repro.core.api import solve_apsp
from repro.graph.generators import graph_for_algebra
from repro.linalg import witness as W
from repro.linalg.algebra import get_algebra
from repro.sequential.floyd_warshall import (floyd_warshall_blocked,
                                             floyd_warshall_numpy,
                                             reference_closure)
from repro.sequential.repeated_squaring import repeated_squaring_apsp
from repro.serve import fold_route

ALGEBRAS = ("shortest-path", "widest-path", "most-reliable", "reachability")
SOLVERS = ("blocked-cb", "blocked-im", "fw-2d", "repeated-squaring")

N = 28
SEED = 17


def check_all_pairs(algebra, adjacency, distances, parents, dtype=None):
    """The fold-equals-closure property over every ordered pair."""
    alg = get_algebra(algebra)
    prepared = alg.prepare_adjacency(adjacency, dtype=dtype)
    reference = reference_closure(adjacency, algebra, dtype=dtype)
    rtol, atol = (1e-4, 1e-6) if distances.dtype.itemsize < 8 else (1e-9, 1e-12)
    assert alg.allclose(distances, reference, rtol=max(rtol, 1e-5))
    n = distances.shape[0]
    zero = alg.zero_like(distances.dtype)
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if distances[i, j] == zero:
                assert parents[i, j] == W.NO_VERTEX
                continue
            path = W.reconstruct_path(parents, i, j)
            assert path[0] == i and path[-1] == j
            fold = fold_route(prepared, path, alg)
            if distances.dtype == np.bool_:
                assert bool(fold) and bool(distances[i, j])
            else:
                assert np.isclose(float(fold), float(distances[i, j]),
                                  rtol=rtol, atol=atol)


@pytest.mark.parametrize("algebra", ALGEBRAS)
@pytest.mark.parametrize("solver", SOLVERS)
def test_distributed_paths_fold_to_closure(algebra, solver):
    adjacency = graph_for_algebra(N, SEED, algebra)
    with APSPEngine() as engine:
        result = engine.solve(adjacency, SolveRequest(
            solver=solver, block_size=8, algebra=algebra, paths=True))
    assert result.has_paths
    assert result.storage == "dense"
    assert "path_rows_repaired" in result.metrics
    check_all_pairs(algebra, adjacency, result.distances, result.parents)


@pytest.mark.parametrize("backend", ("threads", "processes"))
@pytest.mark.parametrize("algebra", ("shortest-path", "widest-path",
                                     "reachability"))
def test_paths_across_backends(backend, algebra):
    """Witness blocks survive the thread pool and the process-pool IPC."""
    adjacency = graph_for_algebra(N, SEED + 1, algebra)
    config = EngineConfig(backend=backend, num_executors=2,
                          cores_per_executor=2)
    with APSPEngine(config) as engine:
        result = engine.solve(adjacency, SolveRequest(
            solver="blocked-cb", block_size=8, algebra=algebra, paths=True))
    check_all_pairs(algebra, adjacency, result.distances, result.parents)


def test_paths_float32_dtype_preserved():
    adjacency = graph_for_algebra(N, 3, "shortest-path")
    with APSPEngine() as engine:
        result = engine.solve(adjacency, SolveRequest(
            solver="blocked-im", block_size=8, dtype="float32", paths=True))
    assert result.distances.dtype == np.float32
    assert result.parents.dtype == np.int32
    check_all_pairs("shortest-path", adjacency, result.distances,
                    result.parents, dtype="float32")


def test_paths_sparse_ingestion():
    """CSR inputs cut straight into witnessed blocks (no densify)."""
    scipy_sparse = pytest.importorskip("scipy.sparse")
    del scipy_sparse
    from repro.graph.sparse import erdos_renyi_sparse, sparse_to_dense
    csr = erdos_renyi_sparse(40, seed=9)
    with APSPEngine() as engine:
        result = engine.solve(csr, SolveRequest(solver="blocked-cb",
                                                block_size=12, paths=True))
    dense = sparse_to_dense(csr)
    check_all_pairs("shortest-path", dense, result.distances, result.parents)


@pytest.mark.parametrize("algebra", ALGEBRAS)
def test_sequential_paths(algebra):
    adjacency = graph_for_algebra(N, SEED + 2, algebra)
    d1, p1 = floyd_warshall_numpy(adjacency, algebra=algebra, paths=True)
    check_all_pairs(algebra, adjacency, d1, p1)
    d2, p2 = floyd_warshall_blocked(adjacency, 9, algebra=algebra, paths=True)
    check_all_pairs(algebra, adjacency, d2, p2)
    d3, p3 = repeated_squaring_apsp(adjacency, algebra=algebra, paths=True)
    check_all_pairs(algebra, adjacency, d3, p3)


def test_sequential_repeated_squaring_paths_with_iterations():
    adjacency = graph_for_algebra(12, 0, "shortest-path")
    distances, parents, iterations = repeated_squaring_apsp(
        adjacency, paths=True, return_iterations=True)
    assert iterations >= 1
    check_all_pairs("shortest-path", adjacency, distances, parents)


def test_longest_path_paths_on_dag():
    """The DAG-only algebra tracks witnesses in the sequential solvers."""
    rng = np.random.default_rng(11)
    n = 16
    adjacency = np.full((n, n), np.inf)
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.3:
                adjacency[u, v] = rng.uniform(1.0, 4.0)
    np.fill_diagonal(adjacency, 0.0)
    distances, parents = floyd_warshall_numpy(adjacency,
                                              algebra="longest-path",
                                              paths=True)
    alg = get_algebra("longest-path")
    prepared = alg.prepare_adjacency(adjacency)
    zero = alg.zero_like(distances.dtype)
    for i in range(n):
        for j in range(n):
            if i == j or distances[i, j] == zero:
                continue
            path = W.reconstruct_path(parents, i, j)
            fold = fold_route(prepared, path, alg)
            assert np.isclose(float(fold), float(distances[i, j]))


# ---------------------------------------------------------------------------
# Request / plan / result plumbing
# ---------------------------------------------------------------------------
class TestPathsPlumbing:
    def test_request_resolves_paths_storage(self):
        request = SolveRequest(algebra="reachability", paths=True)
        assert request.paths and request.storage == "dense"
        assert "paths" in request.describe()

    def test_request_rejects_packed_paths(self):
        with pytest.raises(ConfigurationError):
            SolveRequest(algebra="reachability", storage="packed", paths=True)

    def test_plan_carries_paths(self):
        from repro.core.registry import get_solver_class
        adjacency = graph_for_algebra(16, 0, "shortest-path")
        solver = get_solver_class("blocked-cb")(
            request=SolveRequest(paths=True, block_size=8))
        plan = solver.prepare(adjacency)
        assert plan.paths
        assert plan.describe()["paths"] is True
        records = list(plan.block_records())
        assert all(W.is_witnessed(block) for _, block in records)

    def test_result_without_parents_raises(self):
        result = solve_apsp(graph_for_algebra(12, 0, "shortest-path"),
                            solver="blocked-cb", block_size=4)
        assert not result.has_paths
        with pytest.raises(SolverError):
            result.reconstruct_path(0, 1)

    def test_summary_marks_paths(self):
        adjacency = graph_for_algebra(12, 0, "shortest-path")
        with APSPEngine() as engine:
            result = engine.solve(adjacency, SolveRequest(paths=True,
                                                          block_size=4))
        assert "+paths" in result.summary()
        assert result.reconstruct_path(0, 0) == [0]

    def test_validate_result_still_passes_with_paths(self):
        adjacency = graph_for_algebra(16, 1, "widest-path")
        with APSPEngine() as engine:
            result = engine.solve(adjacency, SolveRequest(
                algebra="widest-path", paths=True, validate=True,
                block_size=8))
        assert result.has_paths
