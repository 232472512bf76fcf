"""Integration tests: the four Spark APSP solvers against ground truth."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import EngineConfig
from repro.common.errors import StorageExhaustedError
from repro.core.registry import solver_shape
from repro.core import (
    BlockedCollectBroadcastSolver,
    BlockedInMemorySolver,
    FloydWarshall2DSolver,
    RepeatedSquaringSolver,
    SolveRequest,
)
from repro.graph.generators import (
    complete_adjacency,
    erdos_renyi_adjacency,
    path_adjacency,
    star_adjacency,
)
from repro.sequential.floyd_warshall import floyd_warshall_reference
from repro.spark.context import SparkContext
from repro.spark.faults import FaultPlan

ALL_SOLVERS = [RepeatedSquaringSolver, FloydWarshall2DSolver,
               BlockedInMemorySolver, BlockedCollectBroadcastSolver]
BLOCKED_SOLVERS = [BlockedInMemorySolver, BlockedCollectBroadcastSolver]


def run(solver_cls, adjacency, *, block_size=None, partitioner="MD", config=None, **kw):
    config = config or EngineConfig(backend="serial", num_executors=4, cores_per_executor=2)
    request = SolveRequest(block_size=block_size, partitioner=partitioner, **kw)
    return solver_cls(config=config, request=request).solve(adjacency)


class TestCorrectnessAllSolvers:
    @pytest.mark.parametrize("solver_cls", ALL_SOLVERS, ids=lambda c: c.name)
    def test_er_graph(self, solver_cls, small_er_graph, small_er_reference):
        result = run(solver_cls, small_er_graph, block_size=12)
        assert np.allclose(result.distances, small_er_reference)

    @pytest.mark.parametrize("solver_cls", ALL_SOLVERS, ids=lambda c: c.name)
    def test_path_graph(self, solver_cls, path_graph):
        result = run(solver_cls, path_graph, block_size=4)
        expected = np.abs(np.arange(12)[:, None] - np.arange(12)[None, :]).astype(float)
        assert np.allclose(result.distances, expected)

    @pytest.mark.parametrize("solver_cls", ALL_SOLVERS, ids=lambda c: c.name)
    def test_grid_graph(self, solver_cls, grid_graph):
        result = run(solver_cls, grid_graph, block_size=16)
        assert np.allclose(result.distances, floyd_warshall_reference(grid_graph))

    @pytest.mark.parametrize("solver_cls", ALL_SOLVERS, ids=lambda c: c.name)
    def test_disconnected_graph(self, solver_cls):
        adj = np.full((20, 20), np.inf)
        np.fill_diagonal(adj, 0.0)
        for i in range(0, 9):
            adj[i, i + 1] = adj[i + 1, i] = 1.0
        for i in range(12, 19):
            adj[i, i + 1] = adj[i + 1, i] = 2.0
        result = run(solver_cls, adj, block_size=6)
        assert np.allclose(result.distances, floyd_warshall_reference(adj))
        assert np.isinf(result.distances[0, 15])

    @pytest.mark.parametrize("solver_cls", ALL_SOLVERS, ids=lambda c: c.name)
    def test_star_graph(self, solver_cls):
        adj = star_adjacency(17, weight=2.0)
        result = run(solver_cls, adj, block_size=5)
        assert np.allclose(result.distances, floyd_warshall_reference(adj))

    @pytest.mark.parametrize("solver_cls", ALL_SOLVERS, ids=lambda c: c.name)
    def test_complete_graph(self, solver_cls):
        adj = complete_adjacency(18, seed=2)
        result = run(solver_cls, adj, block_size=6)
        assert np.allclose(result.distances, floyd_warshall_reference(adj))

    @pytest.mark.parametrize("solver_cls", ALL_SOLVERS, ids=lambda c: c.name)
    def test_block_size_not_dividing_n(self, solver_cls, small_er_graph, small_er_reference):
        result = run(solver_cls, small_er_graph, block_size=7)   # 48 = 6*7 + 6
        assert np.allclose(result.distances, small_er_reference)

    @pytest.mark.parametrize("solver_cls", ALL_SOLVERS, ids=lambda c: c.name)
    def test_single_block(self, solver_cls, small_er_graph, small_er_reference):
        result = run(solver_cls, small_er_graph, block_size=48)
        assert np.allclose(result.distances, small_er_reference)
        assert result.q == 1

    @pytest.mark.parametrize("solver_cls", ALL_SOLVERS, ids=lambda c: c.name)
    def test_tiny_graph(self, solver_cls):
        adj = path_adjacency(2)
        result = run(solver_cls, adj, block_size=1)
        assert result.distances[0, 1] == 1.0

    @pytest.mark.parametrize("solver_cls", BLOCKED_SOLVERS, ids=lambda c: c.name)
    @pytest.mark.parametrize("partitioner", ["MD", "PH", "GRID"])
    def test_partitioner_does_not_change_result(self, solver_cls, partitioner,
                                                small_er_graph, small_er_reference):
        result = run(solver_cls, small_er_graph, block_size=12, partitioner=partitioner)
        assert np.allclose(result.distances, small_er_reference)

    @pytest.mark.parametrize("solver_cls", ALL_SOLVERS, ids=lambda c: c.name)
    def test_threaded_backend(self, solver_cls, small_er_graph, small_er_reference):
        config = EngineConfig(backend="threads", num_executors=2, cores_per_executor=2)
        result = run(solver_cls, small_er_graph, block_size=16, config=config)
        assert np.allclose(result.distances, small_er_reference)

    @settings(max_examples=6, deadline=None)
    @given(st.integers(6, 40), st.integers(2, 12), st.integers(0, 10_000))
    def test_property_blocked_cb_matches_reference(self, n, block_size, seed):
        block_size = min(block_size, n)
        adj = erdos_renyi_adjacency(n, seed=seed, p=0.25)
        result = run(BlockedCollectBroadcastSolver, adj, block_size=block_size)
        assert np.allclose(result.distances, floyd_warshall_reference(adj))

    @settings(max_examples=6, deadline=None)
    @given(st.integers(6, 36), st.integers(2, 10), st.integers(0, 10_000))
    def test_property_blocked_im_matches_reference(self, n, block_size, seed):
        block_size = min(block_size, n)
        adj = erdos_renyi_adjacency(n, seed=seed, p=0.25)
        result = run(BlockedInMemorySolver, adj, block_size=block_size)
        assert np.allclose(result.distances, floyd_warshall_reference(adj))


class TestResultMetadata:
    def test_iteration_counts(self, small_er_graph):
        # q = ceil(48 / 12) = 4 for the blocked solvers, n for FW-2D, q*log2 for RS.
        assert run(BlockedInMemorySolver, small_er_graph, block_size=12).iterations == 4
        assert run(BlockedCollectBroadcastSolver, small_er_graph, block_size=12).iterations == 4
        assert run(FloydWarshall2DSolver, small_er_graph, block_size=12).iterations == 48
        rs = run(RepeatedSquaringSolver, small_er_graph, block_size=12)
        assert rs.iterations == 6  # ceil(log2(47))

    @pytest.mark.parametrize("solver_cls", ALL_SOLVERS, ids=lambda c: c.name)
    @pytest.mark.parametrize("layout", ["triangular", "full"])
    @pytest.mark.parametrize("n,block_size", [(30, 8), (20, 20)],
                             ids=["ragged", "q1"])
    def test_shape_states_the_engines_stage_count(self, solver_cls, layout, n,
                                                  block_size):
        """The stage count both cost models price is the one a solve runs."""
        result = run(solver_cls, erdos_renyi_adjacency(n, seed=5),
                     block_size=block_size, layout=layout)
        shape = solver_shape(result.solver, n, block_size, layout, 8.0)
        assert shape.stages == result.metrics["num_stages"]

    def test_purity_flags(self, small_er_graph):
        assert run(BlockedInMemorySolver, small_er_graph, block_size=12).pure is True
        assert run(FloydWarshall2DSolver, small_er_graph, block_size=12).pure is True
        assert run(BlockedCollectBroadcastSolver, small_er_graph, block_size=12).pure is False
        assert run(RepeatedSquaringSolver, small_er_graph, block_size=12).pure is False

    def test_result_fields(self, small_er_graph):
        result = run(BlockedCollectBroadcastSolver, small_er_graph, block_size=16,
                     partitioner="md")
        assert result.n == 48
        assert result.block_size == 16
        assert result.q == 3
        assert result.partitioner == "MD"
        assert result.solver == "blocked-cb"
        assert result.elapsed_seconds > 0
        assert result.gops > 0
        assert "phase1-diagonal" in result.phase_seconds
        assert "blocked-cb" in result.summary()

    def test_metrics_snapshot_present(self, small_er_graph):
        result = run(BlockedInMemorySolver, small_er_graph, block_size=12)
        assert result.metrics["shuffle_count"] > 0
        assert result.metrics["tasks_launched"] > 0


class TestDataMovementCharacteristics:
    """The qualitative claims of Section 4: who shuffles, who collects, who uses shared storage."""

    def test_blocked_im_shuffles_but_avoids_shared_storage(self, small_er_graph):
        result = run(BlockedInMemorySolver, small_er_graph, block_size=12)
        assert result.metrics["shuffle_bytes"] > 0
        assert result.metrics["sharedfs_bytes_written"] == 0

    def test_blocked_cb_uses_shared_storage_and_driver_collects(self, small_er_graph):
        result = run(BlockedCollectBroadcastSolver, small_er_graph, block_size=12)
        assert result.metrics["sharedfs_bytes_written"] > 0
        assert result.metrics["collect_count"] > 0

    def test_blocked_cb_shuffles_less_than_im(self, medium_er_graph):
        im = run(BlockedInMemorySolver, medium_er_graph, block_size=16)
        cb = run(BlockedCollectBroadcastSolver, medium_er_graph, block_size=16)
        assert cb.metrics["shuffle_bytes"] < im.metrics["shuffle_bytes"]

    def test_fw2d_never_shuffles(self, small_er_graph):
        # The paper: 2D Floyd-Warshall needs no wide transformations at all.
        result = run(FloydWarshall2DSolver, small_er_graph, block_size=12)
        assert result.metrics["shuffle_count"] == 0
        assert result.metrics["broadcast_count"] == 48  # one broadcast per pivot

    def test_repeated_squaring_uses_shared_storage(self, small_er_graph):
        result = run(RepeatedSquaringSolver, small_er_graph, block_size=12)
        assert result.metrics["sharedfs_bytes_written"] > 0
        assert result.metrics["sharedfs_bytes_read"] > 0

    def test_fw2d_iterations_scale_with_n_not_q(self, small_er_graph):
        big_blocks = run(FloydWarshall2DSolver, small_er_graph, block_size=24)
        small_blocks = run(FloydWarshall2DSolver, small_er_graph, block_size=8)
        assert big_blocks.iterations == small_blocks.iterations == 48


class TestStorageExhaustion:
    # A per-executor local-storage budget chosen between the cumulative spill of
    # the Collect/Broadcast solver (~130 KB at n=96, b=8) and that of the
    # In-Memory solver (~750 KB): the same budget kills IM but not CB, exactly
    # the contrast the paper draws in Sections 4.5 and 5.2.
    STORAGE_BUDGET = 300_000

    def test_blocked_im_fails_when_local_storage_too_small(self, medium_er_graph):
        # Reproduces the paper's observation that IM runs out of local storage
        # when too much data is shuffled (Section 5.2 / Table 3).
        config = EngineConfig(num_executors=4, cores_per_executor=2,
                              local_storage_bytes=self.STORAGE_BUDGET)
        with pytest.raises(StorageExhaustedError):
            run(BlockedInMemorySolver, medium_er_graph, block_size=8, config=config)

    def test_blocked_cb_succeeds_under_same_budget(self, medium_er_graph, medium_er_reference):
        # CB avoids the shuffle volume, so the same budget suffices.
        config = EngineConfig(num_executors=4, cores_per_executor=2,
                              local_storage_bytes=self.STORAGE_BUDGET)
        result = run(BlockedCollectBroadcastSolver, medium_er_graph, block_size=8,
                     config=config)
        assert np.allclose(result.distances, medium_er_reference)

    def test_blocked_im_succeeds_with_larger_blocks(self, medium_er_graph, medium_er_reference):
        # Larger blocks -> fewer iterations -> less cumulative spill (Figure 3).
        config = EngineConfig(num_executors=4, cores_per_executor=2,
                              local_storage_bytes=2_000_000)
        result = run(BlockedInMemorySolver, medium_er_graph, block_size=48, config=config)
        assert np.allclose(result.distances, medium_er_reference)


class TestFaultTolerance:
    def test_pure_solver_survives_task_failures(self, small_er_graph, small_er_reference):
        config = EngineConfig(num_executors=4, cores_per_executor=2)
        plan = FaultPlan(fail_task_indices=frozenset({2, 9, 25, 60}))
        context = SparkContext(config, fault_plan=plan)
        solver = BlockedInMemorySolver(config=config,
                                       request=SolveRequest(block_size=12))
        result = solver.solve(small_er_graph, context=context)
        assert context.fault_injector.injected_failures > 0
        assert context.metrics.tasks_retried > 0
        context.stop()
        assert np.allclose(result.distances, small_er_reference)

    def test_fw2d_survives_task_failures(self, small_er_graph, small_er_reference):
        config = EngineConfig(num_executors=2, cores_per_executor=2)
        plan = FaultPlan(fail_task_indices=frozenset({5, 11}))
        context = SparkContext(config, fault_plan=plan)
        solver = FloydWarshall2DSolver(config=config, request=SolveRequest(block_size=16))
        result = solver.solve(small_er_graph, context=context)
        context.stop()
        assert np.allclose(result.distances, small_er_reference)
