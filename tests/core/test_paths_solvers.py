"""End-to-end path reconstruction: algebra × solver × backend property checks.

A ``paths=True`` solve runs the ``paths=False`` solve and derives its parent
matrix from the closure.  The central property: every parent row is valid —
each reachable vertex walks back to its source within ``n`` steps along real
edges, and the walk folds edge by edge to the reported closure entry
(``parent_checks``).  Which of several optimal paths a row picks is not
compared with any other implementation.
"""

import numpy as np
import pytest

from parent_checks import assert_valid_parents, assert_valid_routes
from repro import APSPEngine, SolveRequest
from repro.common.config import EngineConfig
from repro.common.errors import SolverError
from repro.core.api import solve_apsp
from repro.graph.generators import graph_for_algebra
from repro.linalg.algebra import get_algebra
from repro.linalg.payload import DENSE, payload_ops
from repro.sequential.floyd_warshall import (floyd_warshall_blocked,
                                             floyd_warshall_numpy,
                                             reference_closure,
                                             verify_tolerances)
from repro.sequential.repeated_squaring import repeated_squaring_apsp

ALGEBRAS = ("shortest-path", "widest-path", "most-reliable", "reachability")
SOLVERS = ("blocked-cb", "blocked-im", "fw-2d", "repeated-squaring")

N = 28
SEED = 17


def check_all_pairs(algebra, adjacency, distances, parents, dtype=None):
    """The closure matches the oracle and every parent row is valid."""
    alg = get_algebra(algebra)
    reference = reference_closure(adjacency, algebra, dtype=dtype)
    rtol = 1e-4 if distances.dtype.itemsize < 8 else 1e-9
    assert alg.allclose(distances, reference, rtol=max(rtol, 1e-5))
    assert_valid_routes(parents, distances,
                        alg.prepare_adjacency(adjacency, dtype=dtype), alg)


def paths_graph(n, seed, algebra, *, kind):
    """A canonical symmetric adjacency: ``zeros`` laces 0-weight edges in,
    ``plateau`` draws weights from {1, 2}, ``islands`` cuts it in two."""
    rng = np.random.default_rng(seed)
    adjacency = graph_for_algebra(n, seed, algebra)
    edges = np.isfinite(adjacency) & ~np.eye(n, dtype=bool)
    upper = np.triu(edges, 1)
    if kind == "zeros":
        cut = upper & (rng.random((n, n)) < 0.3)
        adjacency[cut | cut.T] = 0.0
    elif kind == "plateau":
        weights = rng.integers(1, 3, (n, n)).astype(float)
        weights = np.triu(weights, 1) + np.triu(weights, 1).T
        adjacency[edges] = weights[edges]
    elif kind == "islands":
        half = np.arange(n) < n // 2
        across = half[:, None] != half[None, :]
        adjacency[across] = np.inf
    return adjacency


@pytest.mark.parametrize("algebra", ALGEBRAS)
@pytest.mark.parametrize("solver", SOLVERS)
def test_distributed_paths_fold_to_closure(algebra, solver):
    adjacency = graph_for_algebra(N, SEED, algebra)
    with APSPEngine() as engine:
        result = engine.solve(adjacency, SolveRequest(
            solver=solver, block_size=8, algebra=algebra, paths=True))
    assert result.has_paths
    assert result.storage == get_algebra(algebra).default_storage
    check_all_pairs(algebra, adjacency, result.distances, result.parents)


@pytest.mark.parametrize("backend", ("threads", "processes"))
@pytest.mark.parametrize("algebra", ("shortest-path", "widest-path",
                                     "reachability"))
def test_paths_across_backends(backend, algebra):
    """Parents derived in the driver whatever backend ran the solve."""
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
    """CSR inputs cut straight into bare blocks (no densify)."""
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
    """The DAG-only algebra derives parents in the sequential solvers."""
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
    assert_valid_routes(parents, distances, alg.prepare_adjacency(adjacency),
                        alg)


# ---------------------------------------------------------------------------
# The inputs where parent rows are easiest to get wrong
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("kind", ["zeros", "plateau", "islands"])
@pytest.mark.parametrize("algebra", ["shortest-path", "widest-path",
                                     "reachability"])
def test_zero_weights_plateaus_and_disconnected_graphs(algebra, kind):
    adjacency = paths_graph(30, 4, algebra, kind=kind)
    with APSPEngine() as engine:
        result = engine.solve(adjacency, SolveRequest(
            solver="blocked-cb", block_size=7, algebra=algebra, paths=True))
    check_all_pairs(algebra, adjacency, result.distances, result.parents)
    if kind == "islands":
        assert np.all(result.parents[:15, 15:] == -1)


@pytest.mark.parametrize("n,block_size", [(1, 1), (1, 4), (2, 1), (13, 4),
                                          (17, 16)])
@pytest.mark.parametrize("solver", SOLVERS)
def test_tiny_and_ragged_grids(solver, n, block_size):
    adjacency = graph_for_algebra(n, 6, "shortest-path")
    with APSPEngine() as engine:
        result = engine.solve(adjacency, SolveRequest(
            solver=solver, block_size=block_size, paths=True))
    assert result.parents.shape == (n, n)
    check_all_pairs("shortest-path", adjacency, result.distances,
                    result.parents)


def test_csr_input_with_stored_zeros():
    """A stored 0.0 in a CSR is a 0-weight edge: parents may step along it."""
    import scipy.sparse as sp
    adjacency = paths_graph(26, 8, "shortest-path", kind="zeros")
    rows, cols = np.nonzero(np.isfinite(adjacency)
                            & ~np.eye(26, dtype=bool))
    csr = sp.csr_matrix((adjacency[rows, cols], (rows, cols)), shape=(26, 26))
    assert np.any(csr.data == 0.0) and csr.nnz == rows.size
    with APSPEngine() as engine:
        result = engine.solve(csr, SolveRequest(solver="blocked-cb",
                                                block_size=6, paths=True))
    assert_valid_routes(result.parents, result.distances, csr, "shortest-path")
    assert np.allclose(result.distances, reference_closure(adjacency))
    zero_steps = [(int(result.parents[s, j]), j) for s, j in
                  zip(*np.nonzero(result.parents >= 0))
                  if adjacency[result.parents[s, j], j] == 0.0]
    assert zero_steps


def test_packed_and_dense_reachability_give_identical_parents():
    adjacency = graph_for_algebra(40, 12, "reachability")
    results = {}
    for storage in ("packed", "dense"):
        with APSPEngine() as engine:
            results[storage] = engine.solve(adjacency, SolveRequest(
                solver="blocked-cb", block_size=8, algebra="reachability",
                storage=storage, paths=True))
        assert results[storage].storage == storage
    packed, dense = results["packed"], results["dense"]
    assert np.array_equal(packed.distances, dense.distances)
    assert np.array_equal(packed.parents, dense.parents)
    check_all_pairs("reachability", adjacency, packed.distances,
                    packed.parents)


def _bare_solve_cells():
    """Every witness algebra × dtype (reachability: × storage) × layout ×
    input form.  ``full-directed`` solves an asymmetric input; longest-path
    has only that cell, and only dense (its DAG check needs the matrix)."""
    cells = []
    for name in ("shortest-path", "widest-path", "most-reliable",
                 "reachability", "longest-path"):
        alg = get_algebra(name)
        variants = ([(None, storage) for storage in alg.storages]
                    if name == "reachability"
                    else [(dtype, None) for dtype in alg.dtypes])
        shapes = (("full-directed",) if name == "longest-path"
                  else ("triangular", "full", "full-directed"))
        forms = ("dense",) if name == "longest-path" else ("dense", "csr")
        for dtype, storage in variants:
            for shape in shapes:
                for form in forms:
                    cells.append(pytest.param(
                        name, dtype, storage, shape, form,
                        id=f"{name}-{dtype or storage}-{shape}-{form}"))
    return cells


@pytest.fixture(scope="module")
def serial_engine():
    with APSPEngine(EngineConfig(backend="serial")) as engine:
        yield engine


ENGINE_COUNTERS = ("num_stages", "tasks_launched", "shuffle_bytes",
                   "collect_bytes", "broadcast_bytes", "sharedfs_bytes_written",
                   "sharedfs_bytes_read")


@pytest.mark.parametrize("algebra,dtype,storage,shape,form", _bare_solve_cells())
@pytest.mark.parametrize("solver", SOLVERS)
def test_paths_run_the_bare_solve(serial_engine, solver, algebra, dtype,
                                  storage, shape, form):
    """paths=True moves the same blocks as paths=False: the same distances,
    bit for bit, and the same engine counters; its parent rows are valid."""
    n = 23                                   # ragged: 23 % 6 != 0
    directed = shape == "full-directed"
    adjacency = graph_for_algebra(n, 5, algebra, directed=directed)
    given = adjacency
    if form == "csr":
        import scipy.sparse as sp
        rows, cols = np.nonzero(np.isfinite(adjacency)
                                & ~np.eye(n, dtype=bool))
        given = sp.csr_matrix((adjacency[rows, cols], (rows, cols)),
                              shape=(n, n))
    layout = "triangular" if shape == "triangular" else "full"
    results = {}
    for paths in (False, True):
        results[paths] = serial_engine.solve(given, SolveRequest(
            solver=solver, block_size=6, algebra=algebra, dtype=dtype,
            storage=storage, layout=layout, directed=directed, paths=paths))
    bare, with_paths = results[False], results[True]
    assert (with_paths.layout, with_paths.storage) == (bare.layout, bare.storage)
    assert bare.layout == layout and (storage is None or bare.storage == storage)
    assert not bare.has_paths and with_paths.has_paths
    assert np.array_equal(bare.distances, with_paths.distances)
    assert bare.distances.dtype == with_paths.distances.dtype
    for key in ENGINE_COUNTERS:
        assert bare.metrics[key] == with_paths.metrics[key], key
    assert bare.iterations == with_paths.iterations

    alg = get_algebra(algebra)
    reference = reference_closure(adjacency, algebra, dtype=dtype)
    assert alg.allclose(with_paths.distances, reference,
                        **verify_tolerances(dtype))
    edges = (given if form == "csr"
             else alg.prepare_adjacency(adjacency, dtype=dtype))
    assert_valid_parents(with_paths.parents, with_paths.distances, edges, alg)


# ---------------------------------------------------------------------------
# Request / plan / result plumbing
# ---------------------------------------------------------------------------
class TestPathsPlumbing:
    def test_paths_leave_the_storage_alone(self):
        request = SolveRequest(algebra="reachability", paths=True)
        assert request.paths and request.storage == "packed"
        assert "paths" in request.describe()
        assert SolveRequest(algebra="reachability", storage="dense",
                            paths=True).storage == "dense"

    def test_plan_carries_paths(self):
        from repro.core.registry import get_solver_class
        adjacency = graph_for_algebra(16, 0, "shortest-path")
        solver = get_solver_class("blocked-cb")(
            request=SolveRequest(paths=True, block_size=8))
        plan = solver.prepare(adjacency)
        assert plan.paths
        assert plan.describe()["paths"] is True
        records = list(plan.block_records())
        assert all(payload_ops(block) is DENSE for _, block in records)

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
