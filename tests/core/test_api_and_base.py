"""Tests for the public API front-end and the solver base utilities."""

import dataclasses

import numpy as np
import pytest

from repro import APSPResult, available_solvers, solve_apsp
from repro.common.config import EngineConfig
from repro.common.errors import ConfigurationError, SolverError, ValidationError
from repro.core.api import get_solver_class
from repro.core.base import SparkAPSPSolver, auto_block_size
from repro.core.blocked_collect_broadcast import BlockedCollectBroadcastSolver
from repro.core.blocked_inmemory import BlockedInMemorySolver
from repro.core.floyd_warshall_2d import FloydWarshall2DSolver
from repro.core.repeated_squaring import RepeatedSquaringSolver
from repro.core.request import SolveRequest


class TestRegistry:
    def test_available_solvers(self):
        assert set(available_solvers()) == {
            "repeated-squaring", "fw-2d", "blocked-im", "blocked-cb"}

    @pytest.mark.parametrize("alias,cls", [
        ("blocked-cb", BlockedCollectBroadcastSolver),
        ("cb", BlockedCollectBroadcastSolver),
        ("Blocked_CB", BlockedCollectBroadcastSolver),
        ("blocked-im", BlockedInMemorySolver),
        ("im", BlockedInMemorySolver),
        ("fw-2d", FloydWarshall2DSolver),
        ("fw2d", FloydWarshall2DSolver),
        ("repeated-squaring", RepeatedSquaringSolver),
        ("rs", RepeatedSquaringSolver),
    ])
    def test_aliases(self, alias, cls):
        assert get_solver_class(alias) is cls

    def test_unknown_solver_rejected(self):
        with pytest.raises(ConfigurationError):
            get_solver_class("bellman-ford")


class TestSolveApsp:
    def test_default_solver_is_blocked_cb(self, small_er_graph, small_er_reference):
        result = solve_apsp(small_er_graph, block_size=12)
        assert result.solver == "blocked-cb"
        assert np.allclose(result.distances, small_er_reference)

    def test_all_options_forwarded(self, small_er_graph):
        config = EngineConfig(num_executors=2, cores_per_executor=2)
        result = solve_apsp(small_er_graph, solver="blocked-im", block_size=16,
                            partitioner="PH", partitions_per_core=3, config=config)
        assert result.partitioner == "PH"
        assert result.block_size == 16
        assert result.num_partitions == 12

    def test_num_partitions_override(self, small_er_graph):
        result = solve_apsp(small_er_graph, solver="blocked-cb", block_size=16,
                            num_partitions=5)
        assert result.num_partitions == 5

    def test_validate_flag(self, small_er_graph):
        result = solve_apsp(small_er_graph, block_size=16, validate=True)
        assert isinstance(result, APSPResult)

    def test_asymmetric_input_rejected_under_triangular_layout(self):
        # layout="auto" (the default) would solve this on the full grid;
        # explicitly requesting the mirrored triangular storage must reject
        # the asymmetric input rather than silently symmetrize it.
        adj = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValidationError):
            solve_apsp(adj, layout="triangular")

    def test_asymmetric_input_solves_under_auto_layout(self):
        adj = np.array([[0.0, 1.0], [2.0, 0.0]])
        result = solve_apsp(adj)
        assert result.layout == "full"
        assert np.array_equal(result.distances, adj)

    def test_negative_weight_rejected(self):
        adj = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValidationError):
            solve_apsp(adj)

    def test_auto_block_size_used_when_omitted(self, small_er_graph, small_er_reference):
        result = solve_apsp(small_er_graph)
        assert result.block_size >= 1
        assert np.allclose(result.distances, small_er_reference)


class TestAutoBlockSize:
    def test_within_bounds(self):
        assert 1 <= auto_block_size(100, total_cores=8) <= 100

    def test_scales_down_with_more_cores(self):
        assert auto_block_size(10_000, total_cores=1024) <= auto_block_size(10_000, total_cores=4)

    def test_small_n(self):
        assert auto_block_size(3, total_cores=64) >= 1

    def test_invalid_n(self):
        with pytest.raises(ConfigurationError):
            auto_block_size(0, total_cores=4)


#: What every real result holds: a request whose layout is resolved.
CONCRETE = SolveRequest(layout="triangular")


class TestRequestDefaultsAndResult:
    def test_options_defaults(self):
        opts = SolveRequest()
        assert opts.partitioner == "MD"
        assert opts.partitions_per_core == 2

    def test_result_gops(self):
        result = APSPResult(distances=np.zeros((4, 4)), request=CONCRETE, n=4,
                            block_size=2, num_partitions=2, iterations=2,
                            elapsed_seconds=2.0)
        assert result.gops == pytest.approx(64 / 2.0 / 1e9)

    def test_validate_result_rejects_bad_diagonal(self):
        bad = np.ones((4, 4))
        result = APSPResult(distances=bad, request=CONCRETE, n=4,
                            block_size=2, num_partitions=1, iterations=1,
                            elapsed_seconds=1.0)
        with pytest.raises(SolverError):
            SparkAPSPSolver.validate_result(result)

    def test_validate_result_rejects_asymmetry(self):
        bad = np.zeros((4, 4))
        bad[0, 1] = 1.0
        result = APSPResult(distances=bad, request=CONCRETE, n=4,
                            block_size=2, num_partitions=1, iterations=1,
                            elapsed_seconds=1.0)
        with pytest.raises(SolverError):
            SparkAPSPSolver.validate_result(result)

    def test_validate_result_rejects_triangle_violation(self):
        d = np.array([[0.0, 10.0, 1.0],
                      [10.0, 0.0, 1.0],
                      [1.0, 1.0, 0.0]])
        result = APSPResult(distances=d, request=CONCRETE, n=3,
                            block_size=1, num_partitions=1, iterations=1,
                            elapsed_seconds=1.0)
        with pytest.raises(SolverError):
            SparkAPSPSolver.validate_result(result, sample=1000)

    def test_validate_result_accepts_correct_matrix(self, small_er_graph, small_er_reference):
        result = APSPResult(distances=small_er_reference, request=CONCRETE, n=48,
                            block_size=12, num_partitions=4, iterations=4,
                            elapsed_seconds=1.0)
        SparkAPSPSolver.validate_result(result)


class TestDirectSolverClassPath:
    """Handing a request to a solver class is as loud as handing it to the engine."""

    @pytest.mark.parametrize("bad", [
        dict(block_size=0), dict(num_partitions=0), dict(partitions_per_core=0),
        dict(partitioner="diagonal-ish")])
    def test_bad_values_raise_instead_of_meaning_auto(self, bad):
        with pytest.raises(ConfigurationError):
            BlockedInMemorySolver(request=SolveRequest(**bad))

    def test_partitioner_alias_is_canonicalised(self, small_er_graph):
        solver = BlockedInMemorySolver(
            request=SolveRequest(partitioner="multi_diagonal", block_size=12))
        assert solver.prepare(small_er_graph).describe()["partitioner"] == "MD"

    def test_request_for_another_solver_is_retargeted(self, small_er_graph,
                                                      small_er_reference):
        request = SolveRequest(solver="blocked-cb", block_size=12)
        solver = BlockedInMemorySolver(request=request)
        assert solver.request == dataclasses.replace(request, solver="blocked-im")
        result = solver.solve(small_er_graph)
        assert result.solver == "blocked-im" and result.pure
        assert np.allclose(result.distances, small_er_reference)

    def test_retargeting_reruns_the_support_checks(self):
        from repro.core.registry import register_solver, unregister_solver

        @register_solver
        class TriangularOnly(BlockedInMemorySolver):
            name = "triangular-only"
            layouts = ("triangular",)

        try:
            TriangularOnly(request=SolveRequest(layout="triangular"))
            with pytest.raises(ConfigurationError, match="layout"):
                TriangularOnly(request=SolveRequest(layout="full"))
        finally:
            unregister_solver("triangular-only")


class TestExternalContextReuse:
    def test_solver_can_share_a_context(self, small_er_graph, small_er_reference):
        from repro.spark.context import SparkContext
        config = EngineConfig(num_executors=2, cores_per_executor=2)
        with SparkContext(config) as sc:
            solver = BlockedCollectBroadcastSolver(config=config,
                                                   request=SolveRequest(block_size=16))
            first = solver.solve(small_er_graph, context=sc)
            second = solver.solve(small_er_graph, context=sc)
            assert np.allclose(first.distances, second.distances)
            assert np.allclose(first.distances, small_er_reference)
            # The context stays usable after the solves.
            assert sc.parallelize([1, 2, 3]).count() == 3
