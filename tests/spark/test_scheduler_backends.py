"""Scheduler backend tests: serial / threads / processes equivalence and safety.

Covers the satellite guarantees of the benchmark PR: identical stage results
across backends, retry-then-succeed under fault injection on every backend,
exception-safe future collection (a raising task no longer abandons its
siblings), idempotent shutdown, and the remote-payload machinery (worker
processes, metric deltas, pickle fallbacks).
"""

import os
import threading

import numpy as np
import pytest

from repro.common.config import BACKENDS, EngineConfig
from repro.common.errors import SolverError
from repro.core.engine import APSPEngine
from repro.core.request import SolveRequest
from repro.graph.generators import erdos_renyi_adjacency
from repro.sequential.floyd_warshall import floyd_warshall_reference
from repro.spark.context import SparkContext
from repro.spark.faults import FaultInjector, FaultPlan
from repro.spark.metrics import EngineMetrics
from repro.spark.remote import RemoteTask, is_picklable, pack_payload, run_remote
from repro.spark.scheduler import TaskScheduler



def _config(backend):
    return EngineConfig(backend=backend, num_executors=2, cores_per_executor=2)


@pytest.fixture(scope="module")
def process_context():
    """One shared processes-backend context (worker pools are expensive to spawn)."""
    with SparkContext(_config("processes")) as sc:
        yield sc


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_map_reduce_stage_results_match_serial(self, backend):
        data = [(i % 5, i) for i in range(40)]
        with SparkContext(_config(backend)) as sc:
            got = dict(sc.parallelize(data, num_partitions=4)
                       .reduceByKey(lambda a, b: a + b).collect())
        expected: dict = {}
        for key, value in data:
            expected[key] = expected.get(key, 0) + value
        assert got == expected

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_blocked_cb_matches_reference(self, backend):
        adjacency = erdos_renyi_adjacency(64, seed=11)
        reference = floyd_warshall_reference(adjacency)
        with APSPEngine(_config(backend)) as engine:
            result = engine.solve(adjacency,
                                  SolveRequest(solver="blocked-cb", block_size=16))
        assert np.allclose(result.distances, reference)

    def test_processes_backend_matches_serial_on_128_nodes(self):
        # Acceptance criterion: EngineConfig(backend="processes") solves match
        # the serial reference on a 128-node graph.
        adjacency = erdos_renyi_adjacency(128, seed=1234)
        request = SolveRequest(solver="blocked-cb", block_size=32)
        with APSPEngine(_config("serial")) as engine:
            serial = engine.solve(adjacency, request)
        with APSPEngine(_config("processes")) as engine:
            processes = engine.solve(adjacency, request)
        assert np.allclose(serial.distances, processes.distances)
        assert np.allclose(serial.distances, floyd_warshall_reference(adjacency))
        # Worker-side shared-fs reads must flow back into the driver's delta.
        assert processes.metrics["sharedfs_bytes_read"] == \
            serial.metrics["sharedfs_bytes_read"]


class TestFaultRetry:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_retry_then_succeed(self, backend):
        plan = FaultPlan(fail_task_indices=frozenset({1, 3}))
        with SparkContext(_config(backend), fault_plan=plan) as sc:
            result = sorted(sc.parallelize(list(range(20)), num_partitions=5)
                            .map(lambda x: x * 2).collect())
            assert result == [2 * i for i in range(20)]
            assert sc.metrics.tasks_retried == 2
            assert sc.metrics.tasks_failed == 2


class TestExceptionSafety:
    def test_raising_task_does_not_abandon_siblings(self):
        scheduler = TaskScheduler(_config("threads"), EngineMetrics(), FaultInjector())
        finished = []
        barrier = threading.Event()

        def slow_ok(i):
            def task():
                barrier.wait(timeout=5)
                finished.append(i)
                return i
            return task

        def fails_fast():
            barrier.set()
            raise ValueError("boom")

        tasks = [fails_fast] + [slow_ok(i) for i in range(1, 4)]
        with pytest.raises(ValueError):
            scheduler.run_stage("test", tasks)
        # All sibling futures were gathered before the error was re-raised.
        assert sorted(finished) == [1, 2, 3]
        # The pool is still healthy for the next stage.
        assert scheduler.run_stage("test", [lambda: 7, lambda: 8]) == [7, 8]
        scheduler.shutdown()

    def test_first_error_wins_and_stage_is_recorded(self):
        metrics = EngineMetrics()
        scheduler = TaskScheduler(_config("threads"), metrics, FaultInjector())

        def fail(msg):
            def task():
                raise RuntimeError(msg)
            return task

        with pytest.raises(RuntimeError, match="first"):
            scheduler.run_stage("test", [fail("first"), fail("second")])
        # The failing stage still shows up in the metrics.
        assert len(metrics.stages) == 1
        scheduler.shutdown()


class TestShutdown:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_shutdown_idempotent(self, backend):
        scheduler = TaskScheduler(_config(backend), EngineMetrics(), FaultInjector())
        assert scheduler.run_stage("test", [lambda: 1]) == [1]
        scheduler.shutdown()
        scheduler.shutdown()  # second call must be a no-op

    def test_context_stop_idempotent_with_processes(self):
        sc = SparkContext(_config("processes"))
        sc.parallelize([1, 2, 3]).collect()
        sc.stop()
        sc.stop()


class TestRemoteExecution:
    def test_remote_task_runs_in_worker_process(self, process_context):
        tasks = [RemoteTask(os.getpid) for _ in range(2)]
        pids = process_context.scheduler.run_stage("test", tasks)
        assert all(pid != os.getpid() for pid in pids)

    def test_remote_task_post_runs_driver_side(self, process_context):
        seen = []
        task = RemoteTask(os.getpid, post=lambda pid: seen.append(os.getpid()) or pid)
        [pid] = process_context.scheduler.run_stage("test", [task])
        assert pid != os.getpid()
        assert seen == [os.getpid()]

    def test_unpicklable_tasks_fall_back_to_driver(self, process_context):
        captured = object()  # closures over arbitrary state cannot be shipped
        results = process_context.scheduler.run_stage(
            "test", [lambda: id(captured), lambda: 42])
        assert results[1] == 42

    def test_remote_task_local_call(self):
        # Under serial/threads backends a RemoteTask is just a callable.
        task = RemoteTask(max, (3, 5), post=lambda r: r * 10)
        assert task() == 50

    def test_run_remote_returns_metrics_delta(self):
        result, delta = run_remote(max, 1, 2)
        assert result == 2
        assert delta["sharedfs_bytes_read"] == 0

    def test_is_picklable(self):
        assert is_picklable(max)
        assert not is_picklable(lambda: 0)

    def test_pack_payload_rejects_unpicklable_args(self):
        assert pack_payload(max, (1, 2)) is not None
        assert pack_payload(max, (threading.Lock(),)) is None

    def test_unpicklable_records_fall_back_to_driver(self, process_context):
        # The adapter (id) pickles, but the records do not; the stage must
        # run driver-side instead of crashing the worker feed.
        rdd = process_context.parallelize([threading.Lock(), threading.Lock()],
                                          num_partitions=2).map(id)
        results = rdd.collect()
        assert len(results) == 2 and all(isinstance(r, int) for r in results)

    def test_persisted_rdd_cache_filled_from_remote_results(self, process_context):
        rdd = process_context.parallelize(list(range(16)), num_partitions=4) \
            .map(abs).cache()
        rdd.collect()
        # abs is picklable, so partitions were computed remotely; the driver
        # must still have backfilled the persistence cache.
        assert rdd._persisted
        assert len(rdd._cache) == 4
        assert process_context.metrics.cached_partitions >= 4


class TestSpawnMainSanitizer:
    def test_pseudo_main_file_cleared(self, monkeypatch):
        # A heredoc/pipe-driven interpreter has __main__.__file__ == "<stdin>",
        # which would make spawn/forkserver children crash re-running it.
        import sys
        from repro.spark.scheduler import _sanitize_main_for_spawn
        main = sys.modules["__main__"]
        monkeypatch.setattr(main, "__file__", "<stdin>", raising=False)
        _sanitize_main_for_spawn()
        assert main.__file__ is None

    def test_real_main_file_untouched(self, monkeypatch):
        import sys
        from repro.spark.scheduler import _sanitize_main_for_spawn
        main = sys.modules["__main__"]
        monkeypatch.setattr(main, "__file__", __file__, raising=False)
        _sanitize_main_for_spawn()
        assert main.__file__ == __file__


class TestSolverFallbacks:
    def test_pure_shuffle_solver_correct_under_processes(self, process_context):
        # blocked-im's copy/pair closures are not picklable; the processes
        # backend must transparently run them on the driver's thread pool.
        adjacency = erdos_renyi_adjacency(48, seed=5)
        with APSPEngine(_config("processes")) as engine:
            result = engine.solve(adjacency,
                                  SolveRequest(solver="blocked-im", block_size=12))
        assert np.allclose(result.distances, floyd_warshall_reference(adjacency))

    def test_task_failure_surfaces_under_processes(self, process_context):
        def boom():
            raise SolverError("intentional")

        with pytest.raises(SolverError, match="intentional"):
            process_context.scheduler.run_stage("test", [boom, lambda: 1])
