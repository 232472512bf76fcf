"""Fault-tolerance tests: crash recovery, timeouts, speculation, backoff.

The acceptance surface of the robustness PR: a solve on the ``processes``
backend survives a *real* worker kill (``os._exit`` inside the pool, genuine
``BrokenProcessPool``) with bit-identical results and ``worker_restarts >= 1``;
in-process backends survive the simulated executor loss; stragglers are beaten
by speculative copies; a hard stage deadline fails fast with a diagnosable
:class:`TaskTimeoutError`; and every retry site draws its sleeps from the
shared deterministic backoff policy.
"""

import threading
import time

import numpy as np
import pytest

from repro.common.config import EngineConfig
from repro.common.errors import SolverError, TaskTimeoutError, WorkerCrashError
from repro.common.retry import BackoffPolicy
from repro.core.engine import APSPEngine
from repro.core.request import SolveRequest
from repro.graph.generators import erdos_renyi_adjacency
from repro.sequential import floyd_warshall_reference
from repro.spark.context import SparkContext
from repro.spark.faults import FaultInjector, FaultPlan
from repro.spark.metrics import EngineMetrics
from repro.spark.scheduler import MIN_DERIVED_SOFT_TIMEOUT, TaskScheduler

N = 48
REQUEST = SolveRequest(solver="blocked-cb", block_size=16)


def _config(backend, **kwargs):
    return EngineConfig(backend=backend, num_executors=2, cores_per_executor=2,
                        **kwargs)


@pytest.fixture(scope="module")
def adjacency():
    return erdos_renyi_adjacency(N, seed=5)


@pytest.fixture(scope="module")
def clean_distances(adjacency):
    with APSPEngine(_config("serial")) as engine:
        return np.array(engine.solve(adjacency, REQUEST).distances, copy=True)


class TestWorkerCrashRecovery:
    def test_real_worker_kill_on_processes_backend(self, adjacency,
                                                   clean_distances):
        """A real worker death mid-solve: pool rebuilt, results bit-identical."""
        plan = FaultPlan(crash_task_indices={2})
        with APSPEngine(_config("processes"), fault_plan=plan) as engine:
            result = engine.solve(adjacency, REQUEST)
            metrics = engine.metrics
            injector = engine.context.fault_injector
        assert injector.injected_crashes == 1
        assert metrics["worker_restarts"] >= 1
        assert metrics["tasks_recomputed"] >= 1
        assert np.array_equal(result.distances, clean_distances)

    @pytest.mark.parametrize("backend", ["serial", "threads"])
    def test_simulated_crash_on_inprocess_backends(self, backend, adjacency,
                                                   clean_distances):
        plan = FaultPlan(crash_task_indices={1, 3})
        with APSPEngine(_config(backend), fault_plan=plan) as engine:
            result = engine.solve(adjacency, REQUEST)
            metrics = engine.metrics
        assert metrics["tasks_recomputed"] >= 2
        assert metrics["worker_restarts"] == 0  # no real pool to rebuild
        assert np.array_equal(result.distances, clean_distances)

    def test_second_crash_after_rebuild_also_recovers(self, adjacency,
                                                      clean_distances):
        # The two crash indices must land in *different* stages: concurrent
        # deaths within one pool generation collapse into a single rebuild
        # (by design), so a same-stage pair would flake on timing.  This
        # solve launches ~150 tasks in stages of <= ~9, so 1 and 100 are
        # guaranteed to be separated by a stage barrier (and a rebuild).
        plan = FaultPlan(crash_task_indices={1, 100})
        with APSPEngine(_config("processes"), fault_plan=plan) as engine:
            result = engine.solve(adjacency, REQUEST)
            metrics = engine.metrics
        assert metrics["worker_restarts"] >= 2
        assert np.array_equal(result.distances, clean_distances)

    def test_crash_error_is_retryable_not_fatal(self):
        metrics = EngineMetrics()
        scheduler = TaskScheduler(_config("serial"), metrics,
                                  FaultInjector(FaultPlan(crash_task_indices={0})))
        try:
            assert scheduler.run_stage("unit", [lambda: 7]) == [7]
        finally:
            scheduler.shutdown()
        snap = metrics.as_dict()
        assert snap["tasks_retried"] == 1
        assert snap["tasks_recomputed"] == 1


class TestBackoffIntegration:
    def test_scheduler_reseeds_zero_seed_policy_from_engine_seed(self):
        sched_a = TaskScheduler(_config("serial", seed=1), EngineMetrics())
        sched_b = TaskScheduler(_config("serial", seed=2), EngineMetrics())
        try:
            assert sched_a.retry.seed != 0
            assert sched_a.retry.seed != sched_b.retry.seed
        finally:
            sched_a.shutdown()
            sched_b.shutdown()

    def test_explicitly_seeded_policy_is_kept(self):
        config = _config("serial", retry=BackoffPolicy(seed=77))
        scheduler = TaskScheduler(config, EngineMetrics())
        try:
            assert scheduler.retry.seed == 77
        finally:
            scheduler.shutdown()

    def test_retries_actually_back_off(self):
        config = _config("serial", retry=BackoffPolicy(
            base_seconds=0.03, multiplier=1.0, max_seconds=0.03,
            jitter=0.0, seed=5))
        metrics = EngineMetrics()
        scheduler = TaskScheduler(config, metrics, FaultInjector(
            FaultPlan(fail_task_indices={0})))
        try:
            start = time.perf_counter()
            scheduler.run_stage("unit", [lambda: 1])
            elapsed = time.perf_counter() - start
        finally:
            scheduler.shutdown()
        assert elapsed >= 0.03  # one retry, one full backoff sleep
        assert metrics.as_dict()["tasks_retried"] == 1

    def test_task_exhausting_attempts_surfaces_solver_error(self):
        config = _config("serial", retry=BackoffPolicy(
            max_attempts=2, base_seconds=0.0, jitter=0.0, seed=5))
        scheduler = TaskScheduler(config, EngineMetrics())

        def always_fails():
            raise WorkerCrashError("executor gone")

        try:
            with pytest.raises(SolverError, match="failed 2 times"):
                scheduler.run_stage("unit", [always_fails])
        finally:
            scheduler.shutdown()


class TestTimeoutsAndSpeculation:
    def test_delayed_task_copy_waits_for_the_derived_floor(self):
        """Fast siblings arm the soft timeout; it never drops below the floor."""
        calls = []

        def straggler():
            calls.append(time.monotonic())
            if len(calls) == 1:
                time.sleep(1.0)          # only the first execution straggles
            return "slow"

        metrics = EngineMetrics()
        scheduler = TaskScheduler(_config("threads"), metrics)
        try:
            start = time.perf_counter()
            results = scheduler.run_stage("unit", [straggler, lambda: 1, lambda: 2])
            elapsed = time.perf_counter() - start
        finally:
            scheduler.shutdown()
        assert results == ["slow", 1, 2]
        assert len(calls) == 2
        assert calls[1] - calls[0] >= MIN_DERIVED_SOFT_TIMEOUT
        assert elapsed < 1.0
        snap = metrics.as_dict()
        assert (snap["speculative_launched"], snap["speculative_wins"]) == (1, 1)

    def test_failed_copy_leaves_the_primary_to_finish(self):
        calls = []

        def straggler():
            calls.append(None)
            if len(calls) == 1:
                time.sleep(0.5)
                return "primary"
            raise RuntimeError("the copy's executor is gone")

        metrics = EngineMetrics()
        scheduler = TaskScheduler(_config("threads", task_timeout_seconds=0.05),
                                  metrics)
        try:
            assert scheduler.run_stage("unit", [straggler, lambda: 1]) == ["primary", 1]
        finally:
            scheduler.shutdown()
        snap = metrics.as_dict()
        assert (snap["speculative_launched"], snap["speculative_wins"]) == (1, 0)

    def test_uniformly_slow_tasks_launch_no_copy(self):
        """The derived timeout scales with the siblings: equal walls never trip it."""
        def slow():
            time.sleep(0.4)
            return 3

        metrics = EngineMetrics()
        scheduler = TaskScheduler(_config("threads"), metrics)
        try:
            assert scheduler.run_stage("unit", [slow, slow]) == [3, 3]
        finally:
            scheduler.shutdown()
        assert metrics.as_dict()["speculative_launched"] == 0

    @pytest.mark.parametrize("explicit", [None, 0.05])
    def test_one_task_stage_speculates_only_under_an_explicit_timeout(self, explicit):
        calls = []

        def straggler():
            calls.append(time.monotonic())
            if len(calls) == 1:
                time.sleep(0.4)
            return 5

        metrics = EngineMetrics()
        scheduler = TaskScheduler(_config("threads", task_timeout_seconds=explicit),
                                  metrics)
        try:
            assert scheduler.run_stage("unit", [straggler]) == [5]
        finally:
            scheduler.shutdown()
        assert metrics.as_dict()["speculative_launched"] == (explicit is not None)

    def test_attempts_run_on_the_stage_pool(self):
        """An armed soft timeout sends no attempt through a second pool."""
        config = _config("threads", task_timeout_seconds=5.0)
        scheduler = TaskScheduler(config, EngineMetrics())

        def name():
            return threading.current_thread().name

        try:
            names = scheduler.run_stage("unit", [name, name])
        finally:
            scheduler.shutdown()
        assert all(thread.startswith("apspark-exec") for thread in names), names

    def test_first_processes_solve_launches_no_copy(self):
        """Worker-pool start-up slows every task alike, so nothing is speculated."""
        config = EngineConfig(backend="processes", num_executors=2,
                              cores_per_executor=1)
        adjacency = erdos_renyi_adjacency(64, seed=5)
        with APSPEngine(config) as engine:
            result = engine.solve(adjacency, REQUEST)
        assert np.allclose(result.distances, floyd_warshall_reference(adjacency))
        assert result.metrics["speculative_launched"] == 0

    def test_straggler_loses_to_speculative_copy(self):
        """A delayed first execution trips the soft timeout; the copy wins."""
        config = _config("threads", task_timeout_seconds=0.05)
        metrics = EngineMetrics()
        plan = FaultPlan(delay_task_indices={0}, delay_seconds=1.0)
        scheduler = TaskScheduler(config, metrics, FaultInjector(plan))
        try:
            start = time.perf_counter()
            results = scheduler.run_stage("unit", [lambda: 11, lambda: 22])
            elapsed = time.perf_counter() - start
        finally:
            scheduler.shutdown()
        assert results == [11, 22]
        assert elapsed < 1.0  # did not wait out the straggler
        snap = metrics.as_dict()
        assert snap["speculative_launched"] >= 1
        assert snap["speculative_wins"] >= 1

    def test_speculation_disabled_waits_for_straggler(self):
        config = _config("threads", task_timeout_seconds=0.05,
                         speculation=False)
        metrics = EngineMetrics()
        plan = FaultPlan(delay_task_indices={0}, delay_seconds=0.3)
        scheduler = TaskScheduler(config, metrics, FaultInjector(plan))
        try:
            start = time.perf_counter()
            results = scheduler.run_stage("unit", [lambda: 1, lambda: 2])
            elapsed = time.perf_counter() - start
        finally:
            scheduler.shutdown()
        assert results == [1, 2]
        assert elapsed >= 0.3
        assert metrics.as_dict()["speculative_launched"] == 0

    @pytest.mark.parametrize("backend", ["serial", "threads"])
    def test_hard_stage_timeout_is_diagnosable(self, backend):
        config = _config(backend, stage_timeout_seconds=0.05)
        metrics = EngineMetrics()
        scheduler = TaskScheduler(config, metrics)

        def hang():
            time.sleep(0.4)
            return 1

        try:
            with pytest.raises(TaskTimeoutError) as excinfo:
                scheduler.run_stage("hung-stage", [hang, hang, hang])
        finally:
            scheduler.shutdown()
        err = excinfo.value
        assert err.stage_kind == "hung-stage"
        assert err.total == 3
        assert err.timeout_seconds == 0.05
        assert 0 <= err.completed < 3
        assert metrics.as_dict()["task_timeouts"] == 1

    def test_shutdown_after_abandonment_does_not_block(self):
        config = _config("threads", stage_timeout_seconds=0.05)
        scheduler = TaskScheduler(config, EngineMetrics())

        def hang():
            time.sleep(2.0)

        with pytest.raises(TaskTimeoutError):
            scheduler.run_stage("hung", [hang, hang])
        start = time.perf_counter()
        scheduler.shutdown()
        assert time.perf_counter() - start < 1.0

    def test_faulted_solve_with_timeouts_still_exact(self, adjacency,
                                                     clean_distances):
        """Timeout machinery armed + delays injected: results stay exact."""
        config = _config("threads", task_timeout_seconds=0.2,
                         stage_timeout_seconds=60.0)
        plan = FaultPlan(delay_task_indices={0}, delay_seconds=0.5)
        with APSPEngine(config, fault_plan=plan) as engine:
            result = engine.solve(adjacency, REQUEST)
        assert np.array_equal(result.distances, clean_distances)


class TestSchedulerLifecycle:
    def test_stop_reaps_all_pools(self):
        scheduler = TaskScheduler(_config("processes"), EngineMetrics())
        scheduler.run_stage("warm", [lambda: 1, lambda: 2])
        scheduler._process_pool()
        scheduler.shutdown()
        assert scheduler._pool is None
        assert scheduler._proc_pool is None

    def test_shutdown_is_idempotent(self):
        scheduler = TaskScheduler(_config("threads"), EngineMetrics())
        scheduler.shutdown()
        scheduler.shutdown()

    def test_context_cleans_sharedfs_tempdir_after_failed_stage(self):
        """A mid-stage failure must not leak the shared-fs staging dir."""
        import os
        plan = FaultPlan(fail_task_indices={0}, max_failures=1 << 30)
        config = _config("serial", retry=BackoffPolicy(
            max_attempts=1, base_seconds=0.0, jitter=0.0, seed=3))
        sc = SparkContext(config, plan)
        root = sc.shared_fs.root
        with pytest.raises(SolverError):
            sc.scheduler.run_stage("doomed", [lambda: 1])
        sc.stop()
        assert not os.path.isdir(root)
