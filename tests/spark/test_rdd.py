"""Tests for the RDD API: transformations, actions, caching, partitioning semantics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.config import EngineConfig
from repro.common.errors import ConfigurationError
from repro.spark.context import SparkContext
from repro.spark.partitioner import MultiDiagonalPartitioner, PortableHashPartitioner
from repro.spark.rdd import ShuffledRDD


class TestBasicTransformations:
    def test_parallelize_collect_round_trip(self, spark_context):
        data = [(i, i * i) for i in range(20)]
        assert sorted(spark_context.parallelize(data).collect()) == data

    def test_map(self, spark_context):
        rdd = spark_context.parallelize(list(range(10)))
        assert sorted(rdd.map(lambda x: x * 2).collect()) == [2 * i for i in range(10)]

    def test_filter(self, spark_context):
        rdd = spark_context.parallelize(list(range(20)))
        assert sorted(rdd.filter(lambda x: x % 2 == 0).collect()) == list(range(0, 20, 2))

    def test_flatmap(self, spark_context):
        rdd = spark_context.parallelize([1, 2, 3])
        assert sorted(rdd.flatMap(lambda x: [x] * x).collect()) == [1, 2, 2, 3, 3, 3]

    def test_chained_transformations(self, spark_context):
        rdd = spark_context.parallelize(list(range(50)))
        result = rdd.map(lambda x: x + 1).filter(lambda x: x % 5 == 0).map(lambda x: x // 5)
        assert sorted(result.collect()) == list(range(1, 11))

    def test_transformations_are_lazy(self, spark_context):
        calls = []

        def record(x):
            calls.append(x)
            return x

        rdd = spark_context.parallelize([1, 2, 3]).map(record)
        assert calls == []          # nothing computed yet
        rdd.collect()
        assert sorted(calls) == [1, 2, 3]

    def test_map_partitions_sees_each_whole_partition(self, spark_context):
        rdd = spark_context.parallelize(list(range(12)), num_partitions=3)
        sums = rdd.mapPartitions(lambda records: [sum(records)]).collect()
        assert len(sums) == 3
        assert sum(sums) == sum(range(12))

    def test_map_partitions_keeps_partitioner_only_when_asked(self, spark_context):
        partitioner = PortableHashPartitioner(4)
        rdd = spark_context.parallelize([(i, i) for i in range(10)], partitioner=partitioner)
        assert rdd.mapPartitions(lambda records: records).partitioner is None
        kept = rdd.mapPartitions(lambda records: records, preserves_partitioning=True)
        assert kept.partitioner == partitioner

    def test_flatmap_may_drop_records(self, spark_context):
        rdd = spark_context.parallelize(list(range(10)))
        kept = rdd.flatMap(lambda x: [] if x % 2 else [x])
        assert sorted(kept.collect()) == [0, 2, 4, 6, 8]

    def test_filter_can_empty_every_partition(self, spark_context):
        rdd = spark_context.parallelize(list(range(10)), num_partitions=4)
        empty = rdd.filter(lambda x: False)
        assert empty.collect() == []
        assert empty.count() == 0
        assert empty.num_partitions == 4


class TestActions:
    def test_count(self, spark_context):
        assert spark_context.parallelize(list(range(33))).count() == 33

    def test_collect_accounts_driver_traffic(self, spark_context):
        before = spark_context.metrics.collect_bytes
        spark_context.parallelize([np.zeros(1000)]).collect()
        assert spark_context.metrics.collect_bytes >= before + 8000

    def test_count_of_empty_rdd(self, spark_context):
        assert spark_context.parallelize([], num_partitions=3).count() == 0

    def test_count_does_not_account_driver_traffic(self, spark_context):
        before = spark_context.metrics.collect_bytes
        assert spark_context.parallelize([np.zeros(1000)] * 3).count() == 3
        assert spark_context.metrics.collect_bytes == before

    def test_parallelize_partition_count(self, spark_context):
        assert spark_context.parallelize(list(range(10)), num_partitions=5).num_partitions == 5
        default = spark_context.parallelize(list(range(10)))
        assert default.num_partitions == spark_context.config.parallelism


class TestByKeyOperations:
    def test_reduce_by_key(self, spark_context):
        rdd = spark_context.parallelize([("a", 1), ("b", 5), ("a", 3)])
        assert dict(rdd.reduceByKey(lambda x, y: x + y).collect()) == {"a": 4, "b": 5}

    def test_reduce_by_key_triggers_shuffle(self, spark_context):
        rdd = spark_context.parallelize([("a", 1), ("a", 2)])
        rdd.reduceByKey(lambda x, y: x + y).collect()
        assert spark_context.metrics.shuffle_count == 1

    def test_combine_by_key_list_pairing(self, spark_context):
        # The paper's ListAppend/ListUnpack pairing pattern.
        rdd = spark_context.parallelize([((0, 1), "A"), ((0, 1), "D"), ((1, 1), "A")])
        combined = rdd.combineByKey(lambda v: [v], lambda acc, v: acc + [v],
                                    lambda a, b: a + b)
        result = {k: sorted(v) for k, v in combined.collect()}
        assert result == {(0, 1): ["A", "D"], (1, 1): ["A"]}

    def test_by_key_on_non_pairs_raises(self, spark_context):
        rdd = spark_context.parallelize([1, 2, 3])
        with pytest.raises(TypeError):
            rdd.reduceByKey(lambda a, b: a + b).collect()

    def test_reduce_by_key_with_custom_partitioner(self, spark_context):
        partitioner = MultiDiagonalPartitioner(4, 4)
        rdd = spark_context.parallelize([((0, 1), 5), ((0, 1), 3), ((2, 3), 1)])
        reduced = rdd.reduceByKey(min, partitioner)
        assert reduced.partitioner == partitioner
        assert dict(reduced.collect()) == {(0, 1): 3, (2, 3): 1}

    def test_combine_by_key_merges_across_partitions(self, spark_context):
        data = [(k, 1) for _ in range(6) for k in range(5)]
        rdd = spark_context.parallelize(data, num_partitions=4)
        counts = rdd.combineByKey(lambda v: v, lambda acc, v: acc + v,
                                  lambda a, b: a + b, 3)
        assert dict(counts.collect()) == {k: 6 for k in range(5)}

    def test_aggregating_shuffle_combines_map_side(self, spark_context):
        data = [("k", 1)] * 200
        moved = spark_context.parallelize(data, num_partitions=2).partitionBy(2)
        assert not moved.aggregates
        moved.collect()
        plain_records = spark_context.metrics.shuffle_records
        reduced = spark_context.parallelize(data, num_partitions=2) \
            .reduceByKey(lambda a, b: a + b, 2)
        assert reduced.aggregates
        assert reduced.collect() == [("k", 200)]
        # One combined record per map task instead of every input record.
        assert spark_context.metrics.shuffle_records - plain_records == 2
        assert plain_records == 200

    def test_partition_by_keeps_duplicate_keys(self, spark_context):
        rdd = spark_context.parallelize([(1, "a"), (1, "b"), (2, "c")]).partitionBy(2)
        assert sorted(rdd.collect()) == [(1, "a"), (1, "b"), (2, "c")]

    def test_reduce_by_key_defaults_to_parent_partitioner(self, spark_context):
        partitioner = PortableHashPartitioner(3)
        rdd = spark_context.parallelize([(i % 4, i) for i in range(12)],
                                        partitioner=partitioner)
        reduced = rdd.reduceByKey(max)
        assert reduced.partitioner == partitioner
        assert dict(reduced.collect()) == {0: 8, 1: 9, 2: 10, 3: 11}


class TestPartitioning:
    def test_partition_by_places_keys_correctly(self, spark_context):
        partitioner = PortableHashPartitioner(5)
        rdd = spark_context.parallelize([(i, i) for i in range(40)]).partitionBy(partitioner)
        parts = spark_context.run_job(rdd)
        for index, part in enumerate(parts):
            for key, _ in part:
                assert partitioner(key) == index

    def test_partition_by_is_noop_when_already_partitioned(self, spark_context):
        partitioner = PortableHashPartitioner(4)
        rdd = spark_context.parallelize([(i, i) for i in range(10)], partitioner=partitioner)
        assert rdd.partitionBy(partitioner) is rdd

    def test_partition_by_accepts_int(self, spark_context):
        rdd = spark_context.parallelize([(i, i) for i in range(10)]).partitionBy(3)
        assert rdd.num_partitions == 3

    def test_map_drops_partitioner_filter_keeps_it(self, spark_context):
        partitioner = PortableHashPartitioner(4)
        rdd = spark_context.parallelize([(i, i) for i in range(10)], partitioner=partitioner)
        assert rdd.map(lambda kv: kv).partitioner is None
        assert rdd.filter(lambda kv: True).partitioner == partitioner
        assert rdd.map_preserving(lambda kv: kv).partitioner == partitioner

    def test_union_concatenates_partitions_and_drops_partitioner(self, spark_context):
        partitioner = PortableHashPartitioner(4)
        a = spark_context.parallelize([(1, "a")], partitioner=partitioner)
        b = spark_context.parallelize([(2, "b")], partitioner=partitioner)
        union = spark_context.union([a, b])
        # This is the partition-explosion behaviour Section 5.2 warns about.
        assert union.num_partitions == a.num_partitions + b.num_partitions
        assert union.partitioner is None
        assert sorted(union.collect()) == [(1, "a"), (2, "b")]

    def test_union_of_unpartitioned_rdds(self, spark_context):
        a = spark_context.parallelize([1, 2])
        b = spark_context.parallelize([3])
        assert sorted(spark_context.union([a, b]).collect()) == [1, 2, 3]

    def test_union_keeps_duplicates(self, spark_context):
        a = spark_context.parallelize([1, 2], num_partitions=2)
        union = spark_context.union([a, a])
        assert union.num_partitions == 4
        assert sorted(union.collect()) == [1, 1, 2, 2]

    def test_union_of_nothing_raises(self, spark_context):
        with pytest.raises(ConfigurationError):
            spark_context.union([])

    def test_partition_by_rejects_unknown_spec(self, spark_context):
        rdd = spark_context.parallelize([(1, 1)])
        with pytest.raises(ConfigurationError):
            rdd.partitionBy("hash")

class TestCaching:
    def test_cache_avoids_recomputation(self, spark_context):
        calls = []

        def record(x):
            calls.append(x)
            return x

        rdd = spark_context.parallelize([1, 2, 3], num_partitions=1).map(record).cache()
        rdd.collect()
        rdd.collect()
        assert len(calls) == 3  # computed once despite two actions

    def test_unpersist_recomputes(self, spark_context):
        calls = []
        rdd = spark_context.parallelize([1], num_partitions=1) \
            .map(lambda x: calls.append(x) or x).cache()
        rdd.collect()
        rdd.unpersist()
        rdd.collect()
        assert len(calls) == 2

    def test_unpersist_returns_self_and_clears_flag(self, spark_context):
        rdd = spark_context.parallelize([1]).cache()
        assert rdd.unpersist() is rdd
        assert not rdd._persisted

    def test_cached_flag(self, spark_context):
        rdd = spark_context.parallelize([1])
        assert not rdd._persisted
        assert rdd.cache() is rdd
        assert rdd._persisted

    def test_cache_metrics(self, spark_context):
        rdd = spark_context.parallelize([np.zeros(100)], num_partitions=1).cache()
        rdd.collect()
        assert spark_context.metrics.cached_partitions >= 1

    def test_deep_lineage_with_periodic_checkpoints(self, spark_context):
        # One narrow RDD per step, materialized every 16 — periodic
        # checkpointing (fw-2d itself rolls its persistence, next test).  The
        # lineage walk must not recurse once per ancestor (RecursionError at
        # depth ~1000 before prepare() used an explicit stack).
        rdd = spark_context.parallelize([(0, 0)], num_partitions=1)
        for k in range(1, 1501):
            rdd = rdd.map_preserving(lambda record: (record[0], record[1] + 1))
            if k % 16 == 0:
                rdd.cache()
                assert rdd.count() == 1
        assert rdd.collect() == [(0, 1500)]

    def test_deep_lineage_with_rolling_persistence(self, spark_context):
        # fw-2d's shape: every generation is cached when defined, computed by
        # a job on an un-persisted child, and its parent dropped afterwards.
        calls, walks = [], []

        class CountedParents(list):
            """An RDD's parent list that logs each time prepare() descends it."""
            def __iter__(self):
                walks.append(1)
                return super().__iter__()

        def counted(rdd):
            rdd._parents = CountedParents(rdd._parents)
            return rdd

        def bump(record):
            calls.append(1)
            return record[0], record[1] + 1

        keys = list(range(6))
        root = spark_context.parallelize([(key, 0) for key in keys]).partitionBy(2)
        assert isinstance(root, ShuffledRDD)
        depth = 1500
        previous, current = None, counted(root)
        for k in range(depth):
            walks.clear()
            probe = counted(current.filter(lambda record: True))
            assert sorted(probe.collect()) == [(key, k) for key in keys]
            if previous is not None:
                previous.unpersist()
            if k >= 2:
                # probe and current descend; the fully cached parent cuts the walk
                assert len(walks) == 2
            previous, current = current, counted(current.map_preserving(bump).cache())
        assert sorted(current.collect()) == [(key, depth) for key in keys]
        assert len(calls) == depth * len(keys)  # each generation computed once
        assert spark_context.metrics.shuffle_count == 1

        # Dropping a generation that is still needed costs a recompute from
        # its (cached) parent, never a wrong answer or a second shuffle.
        current.unpersist()
        assert sorted(current.filter(lambda record: True).collect()) == \
            [(key, depth) for key in keys]
        assert len(calls) == (depth + 1) * len(keys)
        assert spark_context.metrics.shuffle_count == 1

    def test_unpersist_below_a_prepare_cut_falls_back_to_lineage(self, spark_context):
        calls = []
        shuffled = spark_context.parallelize([(i, i) for i in range(8)]).partitionBy(2)
        lower = shuffled.map_preserving(lambda r: calls.append(r) or r).cache()
        upper = lower.map_preserving(lambda r: (r[0], r[1] + 1)).cache()
        expected = [(i, i + 1) for i in range(8)]
        assert sorted(upper.collect()) == expected
        assert len(calls) == 8
        # `upper` is fully cached: jobs above it stop there, whatever happens below.
        lower.unpersist()
        assert sorted(upper.filter(lambda r: True).collect()) == expected
        assert len(calls) == 8
        # With both gone the job replays the lineage down to the shuffle's
        # buckets, which are read again but not rewritten.
        upper.unpersist()
        assert sorted(upper.filter(lambda r: True).collect()) == expected
        assert len(calls) == 16
        assert spark_context.metrics.shuffle_count == 1


class TestShuffledRDD:
    def test_shuffle_materialized_once(self, spark_context):
        rdd = spark_context.parallelize([("a", 1), ("b", 2)]).partitionBy(2)
        rdd.collect()
        rdd.collect()
        assert spark_context.metrics.shuffle_count == 1

    def test_shuffle_is_shuffled_rdd(self, spark_context):
        rdd = spark_context.parallelize([("a", 1)]).partitionBy(2)
        assert isinstance(rdd, ShuffledRDD)

    def test_chained_shuffles(self, spark_context):
        rdd = spark_context.parallelize([(i % 3, i) for i in range(30)])
        result = rdd.reduceByKey(lambda a, b: a + b).partitionBy(PortableHashPartitioner(2))
        collected = dict(result.collect())
        expected = {k: sum(i for i in range(30) if i % 3 == k) for k in range(3)}
        assert collected == expected
        assert spark_context.metrics.shuffle_count == 2

    def test_threaded_backend_gives_same_results(self, threaded_config):
        with SparkContext(threaded_config) as sc:
            rdd = sc.parallelize([(i % 5, i) for i in range(100)], num_partitions=8)
            result = dict(rdd.reduceByKey(lambda a, b: a + b).collect())
        expected = {k: sum(i for i in range(100) if i % 5 == k) for k in range(5)}
        assert result == expected

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(-100, 100)), max_size=60),
           st.integers(1, 7))
    def test_property_reduce_by_key_matches_python(self, data, num_partitions):
        expected = {}
        for k, v in data:
            expected[k] = expected.get(k, 0) + v
        with SparkContext(EngineConfig(backend="serial", num_executors=2,
                                       cores_per_executor=1)) as sc:
            rdd = sc.parallelize(data, num_partitions=num_partitions)
            result = dict(rdd.reduceByKey(lambda a, b: a + b).collect())
        assert result == expected
