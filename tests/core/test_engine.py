"""Tests for the session API: APSPEngine, APSPJob, SolveRequest, and the registry."""

import gc
import os

import numpy as np
import pytest

from repro import APSPEngine, SolveRequest, available_solvers, solve_apsp
from repro.common.config import EngineConfig
from repro.common.errors import ConfigurationError
from repro.core.base import SolvePlan, SparkAPSPSolver
from repro.core.blocked_collect_broadcast import BlockedCollectBroadcastSolver
from repro.core.blocked_inmemory import BlockedInMemorySolver
from repro.core.tuner import TunerDecision
from repro.core.registry import (get_solver_class, register_solver, solver_catalog,
                                 solver_info, unregister_solver)


class TestSolveRequest:
    def test_defaults(self):
        req = SolveRequest()
        assert req.solver == "blocked-cb"
        assert req.partitioner == "MD"
        assert req.block_size is None

    def test_alias_canonicalised_at_construction(self):
        assert SolveRequest(solver="cb").solver == "blocked-cb"
        assert SolveRequest(solver="Blocked_IM").solver == "blocked-im"
        assert SolveRequest(solver="rs").solver == "repeated-squaring"

    def test_partitioner_canonicalised(self):
        assert SolveRequest(partitioner="portable_hash").partitioner == "PH"
        assert SolveRequest(partitioner="md").partitioner == "MD"

    def test_unknown_solver_rejected(self):
        with pytest.raises(ConfigurationError):
            SolveRequest(solver="bellman-ford")

    def test_unknown_partitioner_rejected(self):
        with pytest.raises(ConfigurationError):
            SolveRequest(partitioner="ROUND_ROBIN")

    @pytest.mark.parametrize("kwargs", [
        {"block_size": 0},
        {"block_size": -4},
        {"partitions_per_core": 0},
        {"num_partitions": 0},
    ])
    def test_invalid_numeric_knobs_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            SolveRequest(**kwargs)

    def test_coerce_rejects_unknown_keywords(self):
        with pytest.raises(ConfigurationError, match="custom.*block_size"):
            SolveRequest.coerce(None, solver="im", custom=7)
        with pytest.raises(ConfigurationError, match="custom"):
            SolveRequest.coerce(SolveRequest(solver="im"), custom=7)

    def test_solve_apsp_rejects_misspelled_keyword(self):
        adj = np.zeros((4, 4))
        with pytest.raises(ConfigurationError, match="blok_size"):
            solve_apsp(adj, blok_size=16)

    def test_coerce_overrides_existing_request(self):
        base = SolveRequest(solver="blocked-im", block_size=8)
        derived = SolveRequest.coerce(base, validate=True)
        assert derived.block_size == 8 and derived.validate
        assert not base.validate  # original untouched

    def test_solver_class_holds_the_request(self):
        req = SolveRequest(solver="blocked-im", block_size=16, partitioner="PH",
                           partitions_per_core=3, num_partitions=5)
        assert BlockedInMemorySolver(request=req).request is req


class TestRegistry:
    def test_metadata_for_builtins(self):
        info = solver_info("cb")
        assert info.name == "blocked-cb"
        assert info.cls is BlockedCollectBroadcastSolver
        assert info.pure is False
        assert "cb" in info.aliases and info.description

    def test_catalog_lists_all_builtins(self):
        names = [info.name for info in solver_catalog()]
        assert names == sorted(available_solvers())
        assert {"blocked-cb", "blocked-im", "fw-2d", "repeated-squaring"} <= set(names)

    def test_register_and_unregister_custom_solver(self, small_er_graph,
                                                   small_er_reference):
        @register_solver(aliases=("my-im",), description="registry test double")
        class CustomSolver(BlockedInMemorySolver):
            name = "custom-im"

        try:
            assert "custom-im" in available_solvers()
            assert get_solver_class("my-im") is CustomSolver
            result = solve_apsp(small_er_graph, solver="custom-im", block_size=16)
            assert np.allclose(result.distances, small_er_reference)
        finally:
            unregister_solver("custom-im")
        assert "custom-im" not in available_solvers()
        with pytest.raises(ConfigurationError):
            get_solver_class("my-im")

    def test_abstract_class_cannot_register(self):
        with pytest.raises(ConfigurationError):
            register_solver(SparkAPSPSolver)

    def test_alias_collision_rejected_without_side_effects(self):
        with pytest.raises(ConfigurationError):
            @register_solver(aliases=("cb",))
            class Clashing(BlockedInMemorySolver):
                name = "clashing"
        # The failed registration left no trace and did not steal the alias.
        assert "clashing" not in available_solvers()
        assert get_solver_class("cb") is BlockedCollectBroadcastSolver

    def test_alias_cannot_shadow_canonical_name(self):
        with pytest.raises(ConfigurationError):
            @register_solver(aliases=("blocked-cb",))
            class Evil(BlockedInMemorySolver):
                name = "evil"
        assert "evil" not in available_solvers()
        assert get_solver_class("blocked-cb") is BlockedCollectBroadcastSolver

    def test_unregister_unknown_name_is_noop(self):
        before = available_solvers()
        unregister_solver("no-such-solver")
        assert available_solvers() == before
        assert get_solver_class("cb") is BlockedCollectBroadcastSolver


class TestEngineSession:
    def test_context_reused_across_solves(self, small_er_graph, small_er_reference,
                                          engine_config):
        with APSPEngine(engine_config) as engine:
            first_context = engine.context
            a = engine.solve(small_er_graph, SolveRequest(solver="blocked-cb",
                                                          block_size=16))
            b = engine.solve(small_er_graph, SolveRequest(solver="blocked-im",
                                                          block_size=12))
            assert engine.context is first_context
            assert np.allclose(a.distances, small_er_reference)
            assert np.allclose(b.distances, small_er_reference)
            # Session metrics accumulate across the two solves...
            session_tasks = engine.metrics["tasks_launched"]
            assert session_tasks >= (a.metrics["tasks_launched"]
                                     + b.metrics["tasks_launched"])
            # ...while each result reports only its own delta.
            assert a.metrics["tasks_launched"] > 0
            assert b.metrics["tasks_launched"] > 0
            stats = engine.stats()
            assert stats["jobs_completed"] == 2 and stats["jobs_failed"] == 0

    def test_solve_accepts_loose_keywords(self, small_er_graph, small_er_reference):
        with APSPEngine() as engine:
            result = engine.solve(small_er_graph, solver="im", block_size=12)
            assert result.solver == "blocked-im"
            assert np.allclose(result.distances, small_er_reference)

    def test_solve_many_stable_job_ids(self, small_er_graph, small_er_reference):
        with APSPEngine() as engine:
            jobs = engine.solve_many([small_er_graph] * 3,
                                     SolveRequest(block_size=16))
            assert [j.job_id for j in jobs] == ["job-0001", "job-0002", "job-0003"]
            for job in jobs:
                assert job.status == "done"
                assert job.elapsed_seconds is not None and job.elapsed_seconds >= 0
                assert np.allclose(job.result().distances, small_er_reference)

    def test_solve_many_per_item_requests(self, small_er_graph, small_er_reference):
        items = [(small_er_graph, SolveRequest(solver="blocked-cb", block_size=16)),
                 (small_er_graph, SolveRequest(solver="fw-2d", block_size=12))]
        with APSPEngine() as engine:
            jobs = engine.solve_many(items)
            assert [j.result().solver for j in jobs] == ["blocked-cb", "fw-2d"]
            assert all(np.allclose(j.result().distances, small_er_reference)
                       for j in jobs)

    def test_submit_is_lazy_until_result(self, small_er_graph):
        with APSPEngine() as engine:
            job = engine.submit(small_er_graph, block_size=16)
            assert job.status == "pending" and not job.done
            result = job.result()
            assert job.status == "done" and job.done
            assert result is job.result()  # cached, not re-run
            assert engine.stats()["jobs_completed"] == 1

    def test_run_pending_executes_queued_jobs(self, small_er_graph):
        with APSPEngine() as engine:
            engine.submit(small_er_graph, block_size=16)
            engine.submit(small_er_graph, solver="im", block_size=12)
            ran = engine.run_pending()
            assert len(ran) == 2
            assert all(j.status == "done" for j in engine.jobs)
            assert engine.run_pending() == []

    def test_failed_job_recorded_not_raised_in_batch(self, small_er_graph):
        bad = np.array([[0.0, -1.0], [-1.0, 0.0]])  # negative weight
        with APSPEngine() as engine:
            jobs = engine.solve_many([small_er_graph, bad],
                                     SolveRequest(block_size=16))
            assert jobs[0].status == "done"
            assert jobs[1].status == "failed" and jobs[1].error is not None
            with pytest.raises(Exception):
                jobs[1].result()
            stats = engine.stats()
            assert stats["jobs_completed"] == 1 and stats["jobs_failed"] == 1

    def test_plan_inspectable_without_running(self, small_er_graph):
        with APSPEngine() as engine:
            plan = engine.plan(small_er_graph, SolveRequest(solver="blocked-cb",
                                                            block_size=16))
            assert isinstance(plan, SolvePlan)
            described = plan.describe()
            assert described["n"] == 48 and described["block_size"] == 16
            assert described["q"] == 3 and described["num_blocks_upper"] == 6
            assert engine.stats()["jobs_submitted"] == 0  # planning is free

    def test_engine_restartable_via_explicit_start(self, small_er_graph,
                                                   small_er_reference):
        engine = APSPEngine()
        first = engine.solve(small_er_graph, block_size=16)  # lazy first start
        engine.stop()
        assert not engine.running
        # A stopped session refuses to silently spin up a new context...
        from repro.common.errors import SolverError
        with pytest.raises(SolverError):
            engine.solve(small_er_graph, block_size=16)
        # ...but an explicit start() reopens it.
        engine.start()
        second = engine.solve(small_er_graph, block_size=16)
        engine.stop()
        assert np.allclose(first.distances, second.distances)
        assert np.allclose(second.distances, small_er_reference)

    def test_pending_job_after_stop_raises_not_leaks(self, small_er_graph):
        from repro.common.errors import SolverError
        with APSPEngine() as engine:
            job = engine.submit(small_er_graph, block_size=16)
        with pytest.raises(SolverError):
            job.result()
        assert not engine.running  # no context was silently created

    def test_solve_does_not_retain_job_history(self, small_er_graph):
        with APSPEngine() as engine:
            engine.solve(small_er_graph, block_size=16)
            engine.solve(small_er_graph, block_size=16)
            assert engine.jobs == []  # synchronous solves leave no references
            stats = engine.stats()
            assert stats["jobs_submitted"] == 2 and stats["jobs_completed"] == 2

    def test_auto_planning_keeps_one_decision(self):
        """1 000 auto plans grow a counter, not the session's memory."""
        import gc

        def live_decisions() -> int:
            gc.collect()
            return sum(isinstance(obj, TunerDecision) for obj in gc.get_objects())

        adj = np.array([[0.0, 1.0, np.inf], [1.0, 0.0, 2.0], [np.inf, 2.0, 0.0]])
        with APSPEngine() as engine:
            before = live_decisions()
            for _ in range(1000):
                engine.plan(adj, solver="auto")
            assert live_decisions() == before + 1
            tuner = engine.stats()["tuner"]
            assert tuner["decisions"] == 1000
            assert tuner["last"]["solver"] in available_solvers()

    def test_clear_jobs_prunes_history_keeps_stats(self, small_er_graph):
        with APSPEngine() as engine:
            engine.solve_many([small_er_graph] * 2, SolveRequest(block_size=16))
            pending = engine.submit(small_er_graph, block_size=16)
            finished = engine.clear_jobs()
            assert len(finished) == 2
            assert engine.jobs == [pending]
            assert engine.stats()["jobs_completed"] == 2

    def test_adjacency_released_after_execution(self, small_er_graph):
        with APSPEngine() as engine:
            job = engine.submit(small_er_graph, block_size=16)
            assert job.adjacency is not None
            job.result()
            assert job.adjacency is None  # input released once done

    def test_sharedfs_cleared_between_jobs(self, small_er_graph):
        with APSPEngine() as engine:
            engine.solve(small_er_graph, SolveRequest(solver="blocked-cb",
                                                      block_size=16))
            fs_root = engine.context.shared_fs.root
            leftover = [f for f in os.listdir(fs_root) if f.endswith(".blk")]
            assert leftover == []  # staged blocks dropped at the job boundary


class TestSharedFsOwnership:
    def test_config_never_mutated_and_tempdir_removed(self, small_er_graph):
        config = EngineConfig(num_executors=2, cores_per_executor=2)
        with APSPEngine(config) as engine:
            # blocked-cb stages data through the shared filesystem.
            engine.solve(small_er_graph, SolveRequest(solver="blocked-cb",
                                                      block_size=16))
            root = engine.context._shared_fs_root
            assert root is not None and os.path.isdir(root)
        assert config.shared_fs_dir is None  # config untouched
        assert not os.path.exists(root)      # temp dir cleaned up on stop

    def test_explicit_dir_preserved(self, small_er_graph, tmp_path):
        target = str(tmp_path / "gpfs")
        config = EngineConfig(num_executors=2, cores_per_executor=2,
                              shared_fs_dir=target)
        with APSPEngine(config) as engine:
            engine.solve(small_er_graph, SolveRequest(solver="blocked-cb",
                                                      block_size=16))
        assert os.path.isdir(target)  # user-provided dirs are never removed
        assert config.shared_fs_dir == target

    def test_two_sessions_from_one_config_get_private_tempdirs(self, small_er_graph):
        config = EngineConfig(num_executors=2, cores_per_executor=2)
        request = SolveRequest(solver="blocked-cb", block_size=16)
        with APSPEngine(config) as one:
            one.solve(small_er_graph, request)
            root_one = one.context._shared_fs_root
            with APSPEngine(config) as two:
                two.solve(small_er_graph, request)
                root_two = two.context._shared_fs_root
                assert root_one != root_two

    def test_dropped_engine_removes_its_tempdir(self, small_er_graph):
        engine = APSPEngine(EngineConfig(num_executors=2, cores_per_executor=2))
        engine.solve(small_er_graph, SolveRequest(solver="blocked-cb",
                                                  block_size=16))
        root = engine.context._shared_fs_root
        assert root is not None and os.path.isdir(root)
        del engine  # never stopped
        gc.collect()
        assert not os.path.exists(root)


class TestBackwardCompatibility:
    def test_solve_apsp_unchanged(self, small_er_graph, small_er_reference):
        result = solve_apsp(small_er_graph, solver="blocked-cb", block_size=16,
                            partitioner="MD", validate=True)
        assert result.solver == "blocked-cb"
        assert np.allclose(result.distances, small_er_reference)

    def test_solver_classes_still_solve_directly(self, small_er_graph,
                                                 small_er_reference):
        solver = BlockedInMemorySolver(request=SolveRequest(block_size=12))
        result = solver.solve(small_er_graph)
        assert np.allclose(result.distances, small_er_reference)

    def test_prepare_execute_split_equivalent_to_solve(self, small_er_graph,
                                                       small_er_reference):
        solver = BlockedCollectBroadcastSolver(request=SolveRequest(block_size=16))
        plan = solver.prepare(small_er_graph)
        result = solver.execute(plan)
        assert np.allclose(result.distances, small_er_reference)
        assert result.block_size == plan.block_size


class TestCliSolvers:
    def test_solvers_subcommand_lists_registry(self, capsys):
        from repro.experiments.cli import main
        assert main(["solvers"]) == 0
        out = capsys.readouterr().out
        for name in available_solvers():
            assert name in out
        assert "cb" in out and "description" in out

    def test_solvers_subcommand_csv(self, capsys):
        from repro.experiments.cli import main
        assert main(["solvers", "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("name,")

    def test_solve_repeat_reuses_session(self, capsys):
        from repro.experiments.cli import main
        assert main(["solve", "--n", "40", "--block-size", "8",
                     "--repeat", "2"]) == 0
        out = capsys.readouterr().out
        assert "job-0001" in out and "job-0002" in out
        assert "2 job(s) on one context" in out


class TestValidationSamplingCap:
    def test_sample_count_independent_of_n(self, monkeypatch):
        from repro.core.base import APSPResult

        n = 200  # above the exhaustive-check threshold
        d = np.zeros((n, n))
        result = APSPResult(distances=d, request=SolveRequest(layout="triangular"), n=n,
                            block_size=50, num_partitions=4, iterations=1,
                            elapsed_seconds=1.0)
        captured = {}
        real_rng = np.random.default_rng(0)

        def fake_rng(seed):
            class Wrapper:
                def integers(self, low, high, size):
                    captured["size"] = size
                    return real_rng.integers(low, high, size=size)
            return Wrapper()

        monkeypatch.setattr(np.random, "default_rng", fake_rng)
        SparkAPSPSolver.validate_result(result, sample=64)
        assert captured["size"] == (64, 3)  # exactly `sample`, not n*n
