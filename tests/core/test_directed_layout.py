"""Full-grid (directed) layout: correctness, bit-identity, and fail-fast.

The layout redesign's contract, end to end:

* symmetric inputs solved under ``layout="full"`` are **bit-identical** to
  the triangular result across solver × backend × algebra;
* asymmetric (directed) inputs solve correctly against the dense
  :func:`semiring_closure` reference on every solver and backend, including
  CSR ingestion, ``paths=True`` route folds and the serving layer;
* ``layout="auto"`` never picks triangular for an asymmetric matrix
  (property-tested);
* full-grid mirror lookups fail loudly instead of answering with transposed
  (wrong) data.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import EngineConfig
from repro.core.engine import APSPEngine
from repro.core.registry import solver_catalog
from repro.core.request import SolveRequest
from repro.graph.generators import (directed_erdos_renyi_adjacency,
                                    erdos_renyi_adjacency)
from repro.linalg.algebra import get_algebra
from repro.linalg.blocks import BlockGrid, matrix_to_blocks
from repro.linalg.kernels import semiring_closure

SOLVERS = tuple(info.name for info in solver_catalog())
N = 24


def directed_graph(n: int = N, seed: int = 7) -> np.ndarray:
    adj = directed_erdos_renyi_adjacency(n, seed=seed)
    assert not np.array_equal(adj, adj.T), "test input must be asymmetric"
    return adj


def directed_csr(n: int = N, seed: int = 7):
    """A directed graph as canonical CSR plus its dense expansion."""
    import scipy.sparse as sp
    dense = directed_graph(n, seed)
    mask = np.isfinite(dense) & ~np.eye(n, dtype=bool)
    rows, cols = np.nonzero(mask)
    csr = sp.csr_matrix((dense[rows, cols], (rows, cols)), shape=(n, n))
    return csr, dense


@pytest.fixture(scope="module")
def engine():
    with APSPEngine(EngineConfig(num_executors=2, cores_per_executor=2)) as eng:
        yield eng


class TestSymmetricBitIdentity:
    """layout="full" on a symmetric input reproduces triangular bit-for-bit."""

    @pytest.mark.parametrize("algebra", ("shortest-path", "widest-path",
                                         "most-reliable", "reachability"))
    @pytest.mark.parametrize("solver", SOLVERS)
    def test_full_matches_triangular_per_solver_and_algebra(
            self, engine, solver, algebra):
        adj = (erdos_renyi_adjacency(N, seed=5, weight_low=0.1, weight_high=0.9)
               if algebra == "most-reliable"
               else erdos_renyi_adjacency(N, seed=5))
        tri = engine.solve(adj, SolveRequest(solver=solver, block_size=8,
                                             algebra=algebra,
                                             layout="triangular"))
        full = engine.solve(adj, SolveRequest(solver=solver, block_size=8,
                                              algebra=algebra, layout="full"))
        assert tri.layout == "triangular" and full.layout == "full"
        assert np.array_equal(tri.distances, full.distances)

    @pytest.mark.parametrize("backend", ("serial", "threads", "processes"))
    def test_full_matches_triangular_per_backend(self, backend):
        adj = erdos_renyi_adjacency(N, seed=5)
        config = EngineConfig(backend=backend, num_executors=2,
                              cores_per_executor=2)
        with APSPEngine(config) as eng:
            tri = eng.solve(adj, SolveRequest(solver="blocked-cb", block_size=8,
                                              layout="triangular"))
            full = eng.solve(adj, SolveRequest(solver="blocked-cb", block_size=8,
                                               layout="full"))
        assert np.array_equal(tri.distances, full.distances)

    def test_auto_on_symmetric_input_stays_triangular(self, engine):
        adj = erdos_renyi_adjacency(N, seed=5)
        result = engine.solve(adj, SolveRequest(solver="blocked-cb",
                                                block_size=8))
        assert result.layout == "triangular"


class TestDirectedCorrectness:
    """Asymmetric inputs against the dense sequential reference closure."""

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_directed_closure_per_solver(self, engine, solver):
        adj = directed_graph()
        reference = semiring_closure(adj, "shortest-path")
        result = engine.solve(adj, SolveRequest(solver=solver, block_size=8,
                                                directed=True, validate=True))
        assert result.layout == "full" and result.directed
        assert np.allclose(result.distances, reference)

    @pytest.mark.parametrize("backend", ("serial", "threads", "processes"))
    @pytest.mark.parametrize("solver", SOLVERS)
    def test_directed_closure_per_backend(self, backend, solver):
        adj = directed_graph()
        reference = semiring_closure(adj, "shortest-path")
        config = EngineConfig(backend=backend, num_executors=2,
                              cores_per_executor=2)
        with APSPEngine(config) as eng:
            result = eng.solve(adj, SolveRequest(solver=solver, block_size=8,
                                                 directed=True))
        assert np.allclose(result.distances, reference)

    @pytest.mark.parametrize("algebra", ("widest-path", "reachability"))
    def test_directed_closure_other_algebras(self, engine, algebra):
        adj = directed_graph()
        reference = semiring_closure(adj, algebra)
        result = engine.solve(adj, SolveRequest(solver="blocked-cb",
                                                block_size=8, algebra=algebra,
                                                directed=True, validate=True))
        assert get_algebra(algebra).allclose(result.distances, reference)

    def test_auto_layout_detects_asymmetry(self, engine):
        adj = directed_graph()
        result = engine.solve(adj, SolveRequest(solver="blocked-cb",
                                                block_size=8))
        assert result.layout == "full"
        assert np.allclose(result.distances,
                           semiring_closure(adj, "shortest-path"))

    def test_directed_csr_ingestion(self, engine):
        csr, dense = directed_csr()
        reference = semiring_closure(dense, "shortest-path")
        result = engine.solve(csr, SolveRequest(solver="blocked-cb",
                                                block_size=8, directed=True))
        assert np.allclose(result.distances, reference)

    def test_longest_path_dag_on_distributed_solvers(self, engine):
        dag = directed_erdos_renyi_adjacency(N, seed=11, acyclic=True)
        reference = semiring_closure(dag, "longest-path")
        for solver in SOLVERS:
            result = engine.solve(dag, SolveRequest(solver=solver, block_size=8,
                                                    algebra="longest-path"))
            assert result.layout == "full"
            assert np.allclose(result.distances, reference)


class TestDirectedPaths:
    """paths=True on the full grid: derived parents, route folds."""

    def _fold(self, adj, path):
        return sum(adj[u, v] for u, v in zip(path, path[1:]))

    @pytest.mark.parametrize("solver", SOLVERS)
    def test_route_folds_match_distances(self, engine, solver):
        adj = directed_graph()
        result = engine.solve(adj, SolveRequest(solver=solver, block_size=8,
                                                directed=True, paths=True))
        assert result.parents is not None
        checked = 0
        for src in range(0, N, 5):
            for dst in range(N):
                if src == dst or not np.isfinite(result.distances[src, dst]):
                    continue
                path = result.reconstruct_path(src, dst)
                assert path[0] == src and path[-1] == dst
                assert np.isclose(self._fold(adj, path),
                                  result.distances[src, dst])
                checked += 1
        assert checked > 0

    def test_directed_csr_paths(self, engine):
        csr, dense = directed_csr()
        result = engine.solve(csr, SolveRequest(solver="blocked-cb",
                                                block_size=8, directed=True,
                                                paths=True))
        reference = semiring_closure(dense, "shortest-path")
        assert np.allclose(result.distances, reference)
        src, dst = next(
            (s, d) for s in range(N) for d in range(N)
            if s != d and np.isfinite(result.distances[s, d]))
        path = result.reconstruct_path(src, dst)
        assert np.isclose(self._fold(dense, path), result.distances[src, dst])

    def test_directed_serve_route_end_to_end(self, engine):
        from repro import serve as serve_mod
        adj = directed_graph()
        service = engine.serve(adj, SolveRequest(solver="blocked-cb",
                                                 block_size=8, directed=True))
        reference = semiring_closure(adj, "shortest-path")
        for src in range(0, N, 3):
            for dst in range(0, N, 3):
                answer = service.route(src, dst)
                assert np.isclose(answer.distance, reference[src, dst]) \
                    or (not np.isfinite(answer.distance)
                        and not np.isfinite(reference[src, dst]))
                _, verdict = serve_mod.format_route(
                    src, dst, answer.path, answer.distance, service.adjacency,
                    service.algebra)
                assert verdict in (serve_mod.ROUTE_OK,
                                   serve_mod.ROUTE_UNREACHABLE)


class TestAutoLayoutProperty:
    """layout="auto" must never pick triangular for an asymmetric matrix."""

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(min_value=4, max_value=20),
           seed=st.integers(min_value=0, max_value=10_000))
    def test_auto_never_triangular_for_asymmetric(self, n, seed):
        adj = directed_erdos_renyi_adjacency(n, seed=seed)
        if np.array_equal(adj, adj.T):  # vanishingly rare at these sizes
            adj[0, 1] = 1.0
            adj[1, 0] = np.inf
        with APSPEngine(EngineConfig(num_executors=1,
                                     cores_per_executor=1)) as eng:
            plan = eng.plan(adj, SolveRequest(solver="blocked-cb",
                                              block_size=max(4, n // 2)))
        assert plan.layout == "full"


class TestFullGridBlocks:
    """No mirror-transpose lookups exist under the full-grid layout."""

    def test_lower_block_is_its_own_record(self):
        adj = directed_graph(8, seed=3)
        blocks = dict(matrix_to_blocks(adj, 4, layout="full"))
        assert BlockGrid(2, "full").locate(1, 0) == ((1, 0), False)
        assert np.array_equal(blocks[(1, 0)], adj[4:8, 0:4])
        assert np.array_equal(blocks[(0, 1)], adj[0:4, 4:8])

    def test_full_layout_stores_all_blocks(self):
        adj = directed_graph(16, seed=3)
        blocks = dict(matrix_to_blocks(adj, 4, layout="full"))
        assert len(blocks) == 4 * 4
        for i in range(4):
            for j in range(4):
                assert np.array_equal(
                    blocks[(i, j)],
                    adj[i * 4:(i + 1) * 4, j * 4:(j + 1) * 4])


class TestResultMetadata:
    def test_summary_mentions_layout_and_direction(self, engine):
        adj = directed_graph()
        result = engine.solve(adj, SolveRequest(solver="blocked-cb",
                                                block_size=8, directed=True))
        assert "full-grid" in result.summary()
        assert "directed" in result.summary()

    def test_describe_carries_layout_and_directed(self):
        request = SolveRequest(solver="blocked-cb", directed=True)
        assert "directed" in request.describe()
        assert request.layout == "full"
