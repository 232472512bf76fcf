"""Cross-solver / cross-backend equivalence per path algebra.

Every distributed solver that declares support for an algebra must agree
with the dense sequential reference closure; the algebra must round-trip
through the engine and the CLI; and unsupported combinations must fail
fast at request construction.
"""

import numpy as np
import pytest

from repro.common.config import EngineConfig
from repro.common.errors import ConfigurationError
from repro.core.api import solve_apsp
from repro.core.engine import APSPEngine
from repro.core.registry import solver_catalog, solver_supports_algebra
from repro.core.request import SolveRequest
from repro.graph.generators import erdos_renyi_adjacency
from repro.linalg.algebra import available_algebras, get_algebra
from repro.linalg.kernels import semiring_closure
from repro.sequential.floyd_warshall import floyd_warshall_blocked, floyd_warshall_numpy
from repro.sequential.repeated_squaring import repeated_squaring_apsp

#: Absorptive algebras every distributed solver supports on symmetric inputs
#: (longest-path is also distributed now, but DAG-only — full layout — so it
#: is exercised separately on acyclic graphs).
DISTRIBUTED_ALGEBRAS = ("shortest-path", "widest-path", "most-reliable",
                        "reachability")
SOLVERS = tuple(info.name for info in solver_catalog())

N = 24


def graph_for(algebra_name: str, n: int = N, seed: int = 33) -> np.ndarray:
    if get_algebra(algebra_name).name == "most-reliable":
        return erdos_renyi_adjacency(n, seed=seed, weight_low=0.1, weight_high=0.9)
    return erdos_renyi_adjacency(n, seed=seed)


@pytest.fixture(scope="module")
def engine():
    with APSPEngine(EngineConfig(num_executors=2, cores_per_executor=2)) as eng:
        yield eng


class TestCrossSolverEquivalence:
    @pytest.mark.parametrize("algebra", DISTRIBUTED_ALGEBRAS)
    @pytest.mark.parametrize("solver", SOLVERS)
    def test_solver_matches_dense_reference(self, engine, solver, algebra):
        adj = graph_for(algebra)
        reference = semiring_closure(adj, algebra)
        result = engine.solve(adj, SolveRequest(solver=solver, block_size=8,
                                                algebra=algebra, validate=True))
        assert result.algebra == algebra
        assert get_algebra(algebra).allclose(result.distances, reference)

    @pytest.mark.parametrize("algebra", ("shortest-path", "widest-path"))
    def test_float32_matches_float64_within_tolerance(self, engine, algebra):
        adj = graph_for(algebra)
        ref64 = semiring_closure(adj, algebra)
        result = engine.solve(adj, SolveRequest(solver="blocked-cb", block_size=8,
                                                algebra=algebra, dtype="float32"))
        assert result.distances.dtype == np.float32
        assert result.dtype == "float32"
        assert np.allclose(result.distances, ref64, rtol=1e-4, atol=1e-5)

    @pytest.mark.parametrize("backend", ("serial", "threads", "processes"))
    @pytest.mark.parametrize("algebra", ("widest-path", "reachability"))
    def test_cross_backend_equivalence(self, backend, algebra):
        adj = graph_for(algebra)
        reference = semiring_closure(adj, algebra)
        config = EngineConfig(backend=backend, num_executors=2, cores_per_executor=2)
        with APSPEngine(config) as eng:
            result = eng.solve(adj, SolveRequest(solver="blocked-cb", block_size=8,
                                                 algebra=algebra))
        assert get_algebra(algebra).allclose(result.distances, reference)


class TestSequentialEquivalence:
    @pytest.mark.parametrize("algebra", DISTRIBUTED_ALGEBRAS)
    def test_sequential_solvers_agree(self, algebra):
        adj = graph_for(algebra)
        reference = semiring_closure(adj, algebra)
        resolved = get_algebra(algebra)
        assert resolved.allclose(floyd_warshall_numpy(adj, algebra=algebra), reference)
        assert resolved.allclose(
            floyd_warshall_blocked(adj, 8, algebra=algebra), reference)
        assert resolved.allclose(
            repeated_squaring_apsp(adj, algebra=algebra), reference)

    def test_longest_path_on_dag(self):
        # Weighted DAG: longest path must pick the heavier two-hop route.
        n = 6
        dag = np.full((n, n), np.inf)
        for i in range(n - 1):
            dag[i, i + 1] = 1.0
        dag[0, 2] = 1.5  # shortcut lighter than 0->1->2 (weight 2)
        closure = floyd_warshall_numpy(dag, algebra="longest-path")
        assert closure[0, 2] == 2.0
        assert closure[0, n - 1] == float(n - 1)
        assert repeated_squaring_apsp(dag, algebra="longest-path")[0, 2] == 2.0

    def test_longest_path_rejects_cyclic_input(self):
        from repro.common.errors import ValidationError
        adj = graph_for("shortest-path")  # symmetric => cyclic
        with pytest.raises(ValidationError):
            floyd_warshall_numpy(adj, algebra="longest-path")


class TestFailFast:
    def test_distributed_solvers_run_longest_path_in_full_layout(self):
        # The full-grid layout unlocks the DAG-only algebra on every solver:
        # the request resolves to layout="full" (the algebra's only layout)
        # and an explicit triangular request fails fast.
        for solver in SOLVERS:
            assert solver_supports_algebra(solver, "longest-path")
            request = SolveRequest(solver=solver, algebra="longest-path")
            assert request.layout == "full"
            with pytest.raises(ConfigurationError):
                SolveRequest(solver=solver, algebra="longest-path",
                             layout="triangular")

    def test_triangular_layout_rejected_for_directed_requests(self):
        with pytest.raises(ConfigurationError):
            SolveRequest(directed=True, layout="triangular")

    def test_unknown_algebra_rejected_at_request_time(self):
        with pytest.raises(ConfigurationError):
            SolveRequest(algebra="no-such-algebra")

    def test_unsupported_dtype_rejected_at_request_time(self):
        with pytest.raises(ConfigurationError):
            SolveRequest(algebra="reachability", dtype="float64")

    def test_algebra_alias_canonicalised(self):
        req = SolveRequest(algebra="bottleneck")
        assert req.algebra == "widest-path"
        assert req.dtype == "float64"

    def test_registry_metadata_exposes_algebras(self):
        for info in solver_catalog():
            assert set(info.algebras) == set(DISTRIBUTED_ALGEBRAS) | {"longest-path"}
            assert "algebras" in info.as_dict()
            assert "layouts" in info.as_dict()
            assert set(info.layouts) == {"triangular", "full"}


class TestRoundTrips:
    def test_engine_round_trip(self, engine):
        adj = graph_for("widest-path")
        request = SolveRequest(solver="blocked-cb", block_size=8,
                               algebra="widest-path")
        job = engine.submit(adj, request)
        result = job.result()
        assert result.algebra == "widest-path"
        assert "widest-path" in result.summary()
        assert "algebra=widest-path" in request.describe()

    def test_solve_apsp_round_trip(self):
        adj = graph_for("reachability")
        result = solve_apsp(adj, solver="blocked-cb", block_size=8,
                            algebra="reachability")
        assert result.distances.dtype == np.bool_
        assert get_algebra("reachability").allclose(
            result.distances, semiring_closure(adj, "reachability"))

    def test_plan_describes_algebra(self, engine):
        adj = graph_for("widest-path")
        plan = engine.plan(adj, SolveRequest(solver="blocked-cb", block_size=8,
                                             algebra="widest-path", dtype="float32"))
        described = plan.describe()
        assert described["algebra"] == "widest-path"
        assert described["dtype"] == "float32"

    def test_cli_round_trip(self, capsys):
        from repro.experiments.cli import main
        code = main(["solve", "--n", "24", "--algebra", "widest-path",
                     "--block-size", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "widest-path" in out and "OK" in out

    def test_cli_longest_path_solves_a_generated_dag(self, capsys):
        # The generated longest-path input is a DAG, and the full layout
        # makes the algebra run on the distributed solvers end-to-end.
        from repro.experiments.cli import main
        code = main(["solve", "--n", "16", "--algebra", "longest-path",
                     "--block-size", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "longest-path" in out and "OK" in out

    def test_cli_unsupported_layout_exits_cleanly(self, capsys):
        # longest-path is full-layout-only: asking for triangular must fail
        # with a message at request construction, not a traceback.
        from repro.experiments.cli import main
        code = main(["solve", "--n", "8", "--algebra", "longest-path",
                     "--layout", "triangular"])
        captured = capsys.readouterr()
        assert code == 2
        assert "longest-path" in captured.err

    def test_cli_round_trip_float32(self, capsys):
        from repro.experiments.cli import main
        code = main(["solve", "--n", "24", "--dtype", "float32",
                     "--block-size", "8"])
        out = capsys.readouterr().out
        assert code == 0
        assert "float32" in out and "OK" in out
