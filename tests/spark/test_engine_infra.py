"""Tests for the engine infrastructure: shuffle spills, shared FS, broadcast, faults, metrics."""

import numpy as np
import pytest

from repro.common.config import EngineConfig
from repro.common.errors import FaultInjectedError, LineageError, SolverError, StorageExhaustedError
from repro.spark.broadcast import Broadcast
from repro.spark.context import SparkContext
from repro.spark.faults import FaultInjector, FaultPlan
from repro.spark.metrics import STAGE_RECORDS_KEPT, EngineMetrics
from repro.spark.scheduler import TaskScheduler, MAX_TASK_ATTEMPTS
from repro.spark.sharedfs import SharedFileSystem
from repro.spark.shuffle import ShuffleManager
from repro.spark.util import estimate_size, record_key


class TestEstimateSize:
    def test_ndarray_uses_nbytes(self):
        assert estimate_size(np.zeros((10, 10))) == 800

    def test_tuple_sums_members(self):
        assert estimate_size(((0, 1), np.zeros(10))) >= 80

    def test_scalars(self):
        assert estimate_size(3) == 8
        assert estimate_size(3.5) == 8

    def test_strings_and_bytes(self):
        assert estimate_size("abcd") == 4
        assert estimate_size(b"abcd") == 4

    def test_dict(self):
        assert estimate_size({"a": 1}) > 0

    def test_none(self):
        assert estimate_size(None) == 1

    def test_arbitrary_object_falls_back_to_pickle(self):
        class Thing:
            pass
        assert estimate_size(Thing()) > 0

    def test_fast_path_repeats_the_ladder_exactly(self):
        # The exact-type fast path must not move a single byte counter
        # (shuffle_bytes, collect_bytes, broadcast_bytes, cached_bytes): this
        # is the ladder as it stood before the fast path was put ahead of it.
        import pickle
        from collections import namedtuple

        from repro.linalg.bitset import PackedBlock, PackedVector
        from repro.linalg.witness import witness_block

        def ladder(obj):
            if obj is None:
                return 1
            if isinstance(obj, np.ndarray):
                return int(obj.nbytes)
            if isinstance(obj, (bytes, bytearray)):
                return len(obj)
            if isinstance(obj, str):
                return len(obj.encode("utf-8"))
            if isinstance(obj, (int, float, bool, np.integer, np.floating)):
                return 8
            if isinstance(obj, (tuple, list)):
                return sum(ladder(x) for x in obj) + 8
            if isinstance(obj, dict):
                return sum(ladder(k) + ladder(v) for k, v in obj.items()) + 8
            return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))

        block = np.arange(12.0).reshape(3, 4)
        packed = PackedBlock.from_dense(np.eye(5, 70, dtype=bool))
        witnessed = witness_block(block[:, :3].copy(), 0, 3)
        pair = namedtuple("pair", "left right")
        samples = [
            ((1, 2), block), ((1, 2), ("A", block)), ((0, 0), packed),
            ((0, 3), ("L", witnessed)), (("col", 2), block[:, 1]),
            PackedVector.from_dense(np.ones(70, dtype=bool)),
            [[1, 2.5], [], [[block.astype(np.float32)]]], {"a": [1, (2, None)], 3: block},
            None, "", "naïve", b"ab", bytearray(3), True, 7, -1.5, (), [],
            np.float32(1.5), np.int64(3), np.bool_(True), np.zeros(0), np.zeros((2, 0)),
            block.view(type("Sub", (np.ndarray,), {})),
            pair(1, block), (1, [2, (3.0, "x", {"k": b"v"})]), complex(1, 2), {1, 2},
        ]
        for sample in samples:
            size = estimate_size(sample)
            assert type(size) is int and size == ladder(sample), repr(sample)


class TestRecordKey:
    def test_pair(self):
        assert record_key(("k", 1)) == "k"

    def test_non_pair_raises(self):
        with pytest.raises(TypeError):
            record_key(42)


class TestMetrics:
    def test_counters_accumulate(self):
        m = EngineMetrics()
        m.task_launched(3)
        m.shuffle_started()
        m.shuffle_write(0, records=5, nbytes=100)
        m.shuffle_write(1, records=2, nbytes=50)
        m.collect_performed(10)
        m.broadcast_performed(20)
        m.sharedfs_written(30)
        m.sharedfs_read(40)
        d = m.as_dict()
        assert d["tasks_launched"] == 3
        assert d["shuffle_records"] == 7
        assert d["shuffle_bytes"] == 150
        assert d["spilled_bytes_per_executor"] == {0: 100, 1: 50}
        assert m.max_spilled_bytes() == 100
        assert m.total_spilled_bytes == 150
        assert d["collect_bytes"] == 10
        assert d["broadcast_bytes"] == 20
        assert d["sharedfs_bytes_written"] == 30
        assert d["sharedfs_bytes_read"] == 40

    def test_reset(self):
        m = EngineMetrics()
        m.task_launched()
        m.reset()
        assert m.as_dict()["tasks_launched"] == 0

    def test_stage_records(self):
        m = EngineMetrics()
        m.stage_finished(1, "result", 4, 0.5)
        assert len(m.stages) == 1
        assert m.stages[0].kind == "result"

    def test_stage_records_are_a_bounded_window(self):
        m = EngineMetrics()
        for stage_id in range(STAGE_RECORDS_KEPT + 5):
            m.stage_finished(stage_id, "result", 1, 0.0)
        assert m.as_dict()["num_stages"] == STAGE_RECORDS_KEPT + 5
        assert len(m.stages) == STAGE_RECORDS_KEPT
        assert m.stages[0].stage_id == 5 and m.stages[-1].stage_id == STAGE_RECORDS_KEPT + 4


class TestShuffleManager:
    def _config(self, capacity=None):
        return EngineConfig(num_executors=2, cores_per_executor=1,
                            local_storage_bytes=capacity)

    def test_write_and_read_round_trip(self):
        manager = ShuffleManager(self._config(), EngineMetrics())
        sid = manager.new_shuffle()
        manager.write_map_output(sid, 0, {0: [("a", 1)], 1: [("b", 2)]})
        manager.write_map_output(sid, 1, {0: [("c", 3)]})
        assert manager.read_reduce_input(sid, 0) == [("a", 1), ("c", 3)]
        assert manager.read_reduce_input(sid, 1) == [("b", 2)]

    def test_spill_accounting_per_executor(self):
        metrics = EngineMetrics()
        manager = ShuffleManager(self._config(), metrics)
        sid = manager.new_shuffle()
        manager.write_map_output(sid, 0, {0: [np.zeros(100)]})
        manager.write_map_output(sid, 1, {0: [np.zeros(50)]})
        spills = manager.spilled_bytes()
        assert spills[0] == 800 and spills[1] == 400

    def test_capacity_exceeded_raises(self):
        # The Blocked In-Memory failure mode of Section 5.2.
        manager = ShuffleManager(self._config(capacity=1000), EngineMetrics())
        sid = manager.new_shuffle()
        manager.write_map_output(sid, 0, {0: [np.zeros(100)]})   # 800 bytes, fits
        with pytest.raises(StorageExhaustedError) as exc:
            manager.write_map_output(sid, 2, {0: [np.zeros(100)]})  # same executor 0, 1600 > 1000
        assert exc.value.node == 0
        assert exc.value.capacity_bytes == 1000

    def test_capacity_disabled_when_none(self):
        manager = ShuffleManager(self._config(capacity=None), EngineMetrics())
        sid = manager.new_shuffle()
        for i in range(10):
            manager.write_map_output(sid, 0, {0: [np.zeros(1000)]})

    def test_spills_accumulate_across_shuffles(self):
        # Spill volume is cumulative over the application lifetime (kept for
        # fault tolerance), which is why it grows linearly with iterations.
        metrics = EngineMetrics()
        manager = ShuffleManager(self._config(), metrics)
        for _ in range(3):
            sid = manager.new_shuffle()
            manager.write_map_output(sid, 0, {0: [np.zeros(10)]})
            manager.release(sid)
        assert metrics.spilled_bytes_per_executor[0] == 3 * 80

    def test_release_frees_data_but_keeps_accounting(self):
        metrics = EngineMetrics()
        manager = ShuffleManager(self._config(), metrics)
        sid = manager.new_shuffle()
        manager.write_map_output(sid, 0, {0: [("a", 1)]})
        manager.release(sid)
        with pytest.raises(LineageError, match=f"shuffle {sid} "):
            manager.read_reduce_input(sid, 0)
        assert metrics.shuffle_records == 1

    def test_live_gauges_follow_held_buckets(self):
        metrics = EngineMetrics()
        manager = ShuffleManager(self._config(), metrics)
        first, second = manager.new_shuffle(), manager.new_shuffle()
        manager.write_map_output(first, 0, {0: [np.zeros(10)]})
        manager.write_map_output(second, 1, {0: [np.zeros(20)]})
        assert metrics.as_dict()["live_shuffles"] == 2
        assert metrics.as_dict()["live_shuffle_bytes"] == 80 + 160
        manager.release(first)
        manager.release(first)              # a second release is a no-op
        snap = metrics.as_dict()
        assert (snap["live_shuffles"], snap["live_shuffle_bytes"]) == (1, 160)
        assert snap["shuffle_bytes"] == 240 and metrics.total_spilled_bytes == 240


class TestSharedFileSystem:
    def test_write_read_ndarray(self, tmp_path):
        fs = SharedFileSystem(str(tmp_path))
        block = np.arange(12.0).reshape(3, 4)
        path = fs.write("block-0", block)
        assert np.array_equal(fs.read(path), block)
        assert np.array_equal(fs.read("block-0"), block)

    def test_write_read_generic_object(self, tmp_path):
        fs = SharedFileSystem(str(tmp_path))
        fs.write("meta", {"q": 4})
        assert fs.read("meta") == {"q": 4}

    def test_write_blocks_helper(self, tmp_path):
        fs = SharedFileSystem(str(tmp_path))
        paths = fs.write_blocks("col0", {0: np.zeros(3), 1: np.ones(3)})
        assert set(paths) == {0, 1}
        assert np.array_equal(fs.read(paths[1]), np.ones(3))

    def test_metrics_accounting(self, tmp_path):
        metrics = EngineMetrics()
        fs = SharedFileSystem(str(tmp_path), metrics)
        path = fs.write("x", np.zeros(100))
        fs.read(path)
        assert metrics.sharedfs_files_written == 1
        assert metrics.sharedfs_bytes_written > 800
        assert metrics.sharedfs_bytes_read > 800

    def test_missing_object_raises_lineage_error(self, tmp_path):
        fs = SharedFileSystem(str(tmp_path))
        path = fs.write("x", np.zeros(2))
        fs.drop(path)
        with pytest.raises(LineageError):
            fs.read(path)

    def test_exists_and_clear(self, tmp_path):
        fs = SharedFileSystem(str(tmp_path))
        path = fs.write("x", np.zeros(2))
        assert fs.exists(path)
        fs.clear()
        assert not fs.exists(path)


class TestBroadcast:
    def test_value_accessible(self):
        b = Broadcast([1, 2, 3])
        assert b.value == [1, 2, 3]

    def test_traffic_accounted_per_executor(self):
        metrics = EngineMetrics()
        Broadcast(np.zeros(100), metrics=metrics, num_executors=4)
        assert metrics.broadcast_bytes == 4 * 800

    def test_context_broadcast(self, spark_context):
        b = spark_context.broadcast(np.arange(5))
        assert np.array_equal(b.value, np.arange(5))
        assert spark_context.metrics.broadcast_count == 1

    def test_context_broadcast_charges_every_executor(self, spark_context):
        value = np.zeros(10)
        spark_context.broadcast(value)
        executors = spark_context.config.num_executors
        assert spark_context.metrics.broadcast_bytes == executors * value.nbytes

    def test_ids_are_distinct(self):
        first, second = Broadcast(1), Broadcast(2)
        assert second.id > first.id
        assert f"id={second.id}" in repr(second)


class TestFaultInjection:
    def test_planned_task_fails_once(self):
        injector = FaultInjector(FaultPlan(fail_task_indices=frozenset({0})))
        tid = injector.next_task_id()
        with pytest.raises(FaultInjectedError):
            injector.maybe_fail(tid, attempt=0)
        injector.maybe_fail(tid, attempt=1)  # retry succeeds
        assert injector.injected_failures == 1

    def test_max_failures_respected(self):
        injector = FaultInjector(FaultPlan(failure_rate=1.0, max_failures=2))
        failures = 0
        for _ in range(10):
            tid = injector.next_task_id()
            try:
                injector.maybe_fail(tid, attempt=0)
            except FaultInjectedError:
                failures += 1
        assert failures == 2

    def test_scheduler_retries_failed_tasks(self):
        config = EngineConfig()
        metrics = EngineMetrics()
        injector = FaultInjector(FaultPlan(fail_task_indices=frozenset({0, 1})))
        scheduler = TaskScheduler(config, metrics, injector)
        results = scheduler.run_stage("test", [lambda: 1, lambda: 2, lambda: 3])
        assert results == [1, 2, 3]
        assert metrics.tasks_failed == 2
        assert metrics.tasks_retried == 2
        scheduler.shutdown()

    def test_scheduler_gives_up_after_max_attempts(self):
        config = EngineConfig()
        scheduler = TaskScheduler(config, EngineMetrics(), FaultInjector())

        def always_fails():
            raise FaultInjectedError("boom")

        with pytest.raises(SolverError):
            scheduler.run_stage("test", [always_fails])
        scheduler.shutdown()

    def test_max_attempts_constant(self):
        assert MAX_TASK_ATTEMPTS == 4

    def test_end_to_end_job_with_faults(self):
        plan = FaultPlan(fail_task_indices=frozenset({1, 3}))
        with SparkContext(EngineConfig(), fault_plan=plan) as sc:
            result = sorted(sc.parallelize(list(range(20)), num_partitions=5)
                            .map(lambda x: x * 2).collect())
        assert result == [2 * i for i in range(20)]


class TestSparkContext:
    def test_context_manager_stops(self, engine_config):
        with SparkContext(engine_config) as sc:
            sc.parallelize([1]).collect()
        with pytest.raises(RuntimeError):
            sc.run_job(sc.parallelize([1]))

    def test_stop_idempotent(self, engine_config):
        sc = SparkContext(engine_config)
        sc.stop()
        sc.stop()

    def test_default_parallelism(self, engine_config):
        with SparkContext(engine_config) as sc:
            assert sc.parallelize(list(range(100))).num_partitions == \
                engine_config.parallelism
            assert sc.total_cores == engine_config.total_cores

    def test_shared_fs_lazily_created(self, engine_config):
        with SparkContext(engine_config) as sc:
            fs = sc.shared_fs
            assert fs is sc.shared_fs  # same instance
            fs.write("probe", np.zeros(1))

    def test_run_job_custom_function(self, spark_context):
        rdd = spark_context.parallelize(list(range(10)), num_partitions=2)
        sizes = spark_context.run_job(rdd, lambda records: len(records))
        assert sum(sizes) == 10
