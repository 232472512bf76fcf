"""Resilient Distributed Dataset: lazy, lineage-tracked, partitioned collections.

The RDD API implemented here is what the paper's four APSP solvers use
(Algorithms 1-4) plus ``mapPartitions``: the narrow ``map``/
``map_preserving``, ``flatMap``, ``filter`` and ``mapPartitions``; the wide
``partitionBy``, ``reduceByKey`` and ``combineByKey``; the actions
``collect`` and ``count``; and ``cache``/``unpersist``.  Narrow
transformations are evaluated lazily per partition and recomputed from
lineage when needed; wide transformations materialize a shuffle through the
:class:`~repro.spark.shuffle.ShuffleManager`, which charges spill volume to
executors.  ``SparkContext.union`` builds a :class:`UnionRDD`, which
concatenates parent partitions (and therefore loses the partitioner): the
partition-explosion behaviour Section 5.2 warns about.
"""

from __future__ import annotations

import threading
import weakref
from collections import defaultdict
from typing import Callable, Iterable, Sequence

from repro.common.errors import ConfigurationError
from repro.spark.partitioner import Partitioner, PortableHashPartitioner
from repro.spark.remote import RemoteTask, compute_map_partition, is_picklable
from repro.spark.util import estimate_size, record_key


class _PerRecordAdapter:
    """Partition adapter applying ``func`` to every record.

    The adapters are classes (not lambdas) so that a partition computation is
    picklable — and therefore shippable to a worker process — whenever the
    user function itself is.
    """

    __slots__ = ("func",)

    def __init__(self, func: Callable) -> None:
        self.func = func

    def __call__(self, index: int, records: list) -> list:
        return [self.func(x) for x in records]


class _FilterAdapter:
    """Partition adapter keeping records matching ``predicate``."""

    __slots__ = ("predicate",)

    def __init__(self, predicate: Callable) -> None:
        self.predicate = predicate

    def __call__(self, index: int, records: list) -> list:
        return [x for x in records if self.predicate(x)]


class _FlatMapAdapter:
    """Partition adapter applying ``func`` per record and flattening the results."""

    __slots__ = ("func",)

    def __init__(self, func: Callable) -> None:
        self.func = func

    def __call__(self, index: int, records: list) -> list:
        out: list = []
        for x in records:
            out.extend(self.func(x))
        return out


class _WholePartitionAdapter:
    """Partition adapter applying ``func`` to the whole partition."""

    __slots__ = ("func",)

    def __init__(self, func: Callable) -> None:
        self.func = func

    def __call__(self, index: int, records: list) -> list:
        return list(self.func(records))


class RDD:
    """Base class of all RDDs.  Use :class:`~repro.spark.context.SparkContext` to create them."""

    def __init__(self, context, num_partitions: int, partitioner: Partitioner | None = None,
                 parents: Sequence["RDD"] = ()) -> None:
        self.context = context
        self.id = context._register_rdd(self)
        self._num_partitions = int(num_partitions)
        self.partitioner = partitioner
        self._parents = list(parents)
        self._persisted = False
        self._cache: dict[int, list] = {}
        self._cache_lock = threading.Lock()

    # ------------------------------------------------------------------ structure
    @property
    def num_partitions(self) -> int:
        """Partition count of this RDD."""
        return self._num_partitions

    def parents(self) -> list["RDD"]:
        """Parent RDDs in the lineage graph."""
        return list(self._parents)

    def compute_partition(self, index: int) -> list:
        """Compute the records of partition ``index`` from the parent lineage."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Materialize every shuffle dependency in the lineage, ancestors first.

        The lineage is a DAG in which an RDD may be reachable along many paths
        (e.g. the blocked solvers reuse the previous iteration's RDD several
        times per iteration), so the walk is memoized by RDD identity — and it
        runs on an explicit stack: the 2D Floyd-Warshall solver chains one
        narrow RDD per pivot, so an ``n``-vertex solve has a lineage ``n``
        deep, past the interpreter's recursion limit at n ≈ 1000.  It stops
        at an ancestor that will not ask its parents for anything — a
        persisted RDD with every partition cached, a shuffle whose map side
        already ran — so under that solver's rolling persistence a job walks
        O(1) RDDs, not the whole chain.  (If such an ancestor is unpersisted
        mid-job, a shuffle below it still materializes itself on first read.)
        """
        seen = {id(self)}
        stack = [self]
        shuffles = []
        while stack:
            rdd = stack.pop()
            if rdd._persisted and len(rdd._cache) == rdd._num_partitions:
                continue
            if isinstance(rdd, ShuffledRDD):
                if rdd._shuffle_id is not None:
                    continue
                shuffles.append(rdd)
            for parent in rdd._parents:
                if id(parent) not in seen:
                    seen.add(id(parent))
                    stack.append(parent)
        # An RDD is constructed after its parents, so ascending ids run each
        # map stage after every shuffle it reads from.
        for rdd in sorted(shuffles, key=lambda shuffled: shuffled.id):
            rdd._materialize()

    def iterator(self, index: int) -> list:
        """Return the records of partition ``index``, honouring persistence."""
        if self._persisted:
            with self._cache_lock:
                if index in self._cache:
                    return self._cache[index]
            data = self.compute_partition(index)
            with self._cache_lock:
                if index not in self._cache:
                    self._cache[index] = data
                    self.context.metrics.partition_cached(
                        sum(estimate_size(r) for r in data))
            return data
        return self.compute_partition(index)

    def remote_payload(self, index: int):
        """Picklable ``(fn, args)`` computing this partition in a worker, or ``None``.

        ``None`` means "driver-only": the partition computation captures
        driver state (closures, the context, shuffle outputs) and must run
        in-process.  Subclasses with self-contained computations override
        this so the ``processes`` backend can ship them.
        """
        return None

    def stage_tasks(self, finish: Callable[[int, list], object]) -> list:
        """One scheduler task per partition, each returning ``finish(index, records)``.

        The one place a stage's tasks are built (result stages in
        :meth:`~repro.spark.context.SparkContext.run_job`, shuffle-map stages
        in :class:`ShuffledRDD`).  When the scheduler ships payloads and the
        partition's computation is self-contained (:meth:`remote_payload`),
        the task is a :class:`~repro.spark.remote.RemoteTask`: a worker
        computes the records and the driver completes it — back-filling the
        persistence cache, then applying the (arbitrary, driver-only)
        ``finish``.  Every other partition is a local closure over
        :meth:`iterator`.
        """
        use_remote = self.context.scheduler.supports_remote

        def local_task(index: int):
            """Bind one partition index into a driver-side task."""
            return lambda: finish(index, self.iterator(index))

        def completion(index: int):
            """Bind one partition index into a remote task's driver-side completion."""
            def post(records):
                """Back-fill the cache, then finish one partition's result."""
                self._fill_cache(index, records)
                return finish(index, records)
            return post

        tasks = []
        for index in range(self._num_partitions):
            payload = self.remote_payload(index) if use_remote else None
            if payload is None:
                tasks.append(local_task(index))
            else:
                fn, args = payload
                tasks.append(RemoteTask(fn, args, post=completion(index)))
        return tasks

    def _fill_cache(self, index: int, records: list) -> None:
        """Store remotely-computed records in the persistence cache (if enabled).

        Remote execution bypasses :meth:`iterator`, so the driver re-inserts
        results here to keep ``cache()`` semantics identical across
        backends.
        """
        if not self._persisted:
            return
        with self._cache_lock:
            if index in self._cache:
                return
            self._cache[index] = records
        self.context.metrics.partition_cached(
            sum(estimate_size(r) for r in records))

    # ------------------------------------------------------------------ persistence
    def cache(self) -> "RDD":
        """Keep computed partitions in memory (Spark's ``MEMORY_ONLY``)."""
        self._persisted = True
        return self

    def unpersist(self) -> "RDD":
        """Drop any cached partitions (lineage stays intact)."""
        self._persisted = False
        with self._cache_lock:
            self._cache.clear()
        return self

    # ------------------------------------------------------------------ narrow transformations
    def map(self, func: Callable) -> "RDD":
        """Apply ``func`` to every record.  Keys may change, so the partitioner is dropped."""
        return MapPartitionsRDD(self, _PerRecordAdapter(func),
                                preserves_partitioning=False)

    def map_preserving(self, func: Callable) -> "RDD":
        """Like :meth:`map` but asserts keys are unchanged, keeping the partitioner.

        The paper's per-block update functions (``FloydWarshallUpdate``,
        ``MinPlus``, ``MatMin``) never change the block key, so solvers use
        this variant to avoid spurious reshuffles — the same effect as using
        ``mapValues``/``preservesPartitioning=True`` in pySpark.
        """
        return MapPartitionsRDD(self, _PerRecordAdapter(func),
                                preserves_partitioning=True)

    def flatMap(self, func: Callable) -> "RDD":
        """Apply ``func`` returning an iterable per record and flatten the results."""
        return MapPartitionsRDD(self, _FlatMapAdapter(func), preserves_partitioning=False)

    def filter(self, predicate: Callable) -> "RDD":
        """Keep records for which ``predicate`` is true.  Partitioning is preserved."""
        return MapPartitionsRDD(self, _FilterAdapter(predicate),
                                preserves_partitioning=True)

    def mapPartitions(self, func: Callable, *, preserves_partitioning: bool = False) -> "RDD":
        """Apply ``func`` to each whole partition (an iterable) returning an iterable."""
        return MapPartitionsRDD(self, _WholePartitionAdapter(func),
                                preserves_partitioning=preserves_partitioning)

    # ------------------------------------------------------------------ wide transformations
    def partitionBy(self, partitioner: Partitioner | int,
                    num_partitions: int | None = None) -> "RDD":
        """Redistribute (key, value) records according to ``partitioner``.

        Accepts either a :class:`~repro.spark.partitioner.Partitioner` or an
        integer partition count (pySpark style, implying the portable hash).
        A no-op when the RDD is already partitioned by an equal partitioner.
        """
        partitioner = _as_partitioner(partitioner, num_partitions)
        if self.partitioner is not None and self.partitioner == partitioner:
            return self
        return ShuffledRDD(self, partitioner)

    def reduceByKey(self, func: Callable, partitioner: Partitioner | int | None = None) -> "RDD":
        """Merge values per key with ``func`` (map-side combined, like Spark)."""
        partitioner = _as_partitioner(partitioner, None, default=self._default_partitioner())
        return ShuffledRDD(self, partitioner,
                           create_combiner=lambda v: v,
                           merge_value=func,
                           merge_combiners=func)

    def combineByKey(self, create_combiner: Callable, merge_value: Callable,
                     merge_combiners: Callable,
                     partitioner: Partitioner | int | None = None) -> "RDD":
        """General per-key aggregation (the paper uses it to pair blocks via ``ListAppend``)."""
        partitioner = _as_partitioner(partitioner, None, default=self._default_partitioner())
        return ShuffledRDD(self, partitioner,
                           create_combiner=create_combiner,
                           merge_value=merge_value,
                           merge_combiners=merge_combiners)

    def _default_partitioner(self) -> Partitioner:
        if self.partitioner is not None:
            return self.partitioner
        return PortableHashPartitioner(max(1, self.num_partitions))

    # ------------------------------------------------------------------ actions
    def collect(self) -> list:
        """Return all records to the driver (accounted as driver traffic)."""
        parts = self.context.run_job(self)
        result = [record for part in parts for record in part]
        self.context.metrics.collect_performed(sum(estimate_size(r) for r in result))
        return result

    def count(self) -> int:
        """Number of records across all partitions."""
        parts = self.context.run_job(self, lambda records: len(records))
        return int(sum(parts))

    # ------------------------------------------------------------------ misc
    def __repr__(self) -> str:
        name = type(self).__name__
        return (f"{name}(id={self.id}, partitions={self.num_partitions}, "
                f"partitioner={self.partitioner!r})")


def _as_partitioner(partitioner, num_partitions, default: Partitioner | None = None) -> Partitioner:
    """Normalize the many ways callers can specify a partitioner."""
    if partitioner is None:
        if default is None:
            raise ConfigurationError("a partitioner or partition count is required")
        return default
    if isinstance(partitioner, Partitioner):
        return partitioner
    if isinstance(partitioner, int):
        return PortableHashPartitioner(partitioner)
    raise ConfigurationError(f"cannot interpret partitioner {partitioner!r}")


class ParallelCollectionRDD(RDD):
    """An RDD created from an in-memory collection via ``SparkContext.parallelize``."""

    def __init__(self, context, data: Iterable, num_partitions: int,
                 partitioner: Partitioner | None = None) -> None:
        records = list(data)
        num_partitions = max(1, int(num_partitions))
        super().__init__(context, num_partitions, partitioner)
        if partitioner is not None:
            slices: list[list] = [[] for _ in range(num_partitions)]
            for record in records:
                slices[partitioner(record_key(record))].append(record)
        else:
            # Range-split like Spark's default for parallelize.
            slices = [[] for _ in range(num_partitions)]
            for i, record in enumerate(records):
                slices[i * num_partitions // max(1, len(records))].append(record)
        self._slices = slices

    def compute_partition(self, index: int) -> list:
        """Return the materialized slice for one partition."""
        return list(self._slices[index])


class MapPartitionsRDD(RDD):
    """Narrow transformation: apply a function to every parent partition."""

    def __init__(self, parent: RDD, func: Callable[[int, list], list], *,
                 preserves_partitioning: bool) -> None:
        partitioner = parent.partitioner if preserves_partitioning else None
        super().__init__(parent.context, parent.num_partitions, partitioner, parents=[parent])
        self._func = func
        self._remote_ok: bool | None = None

    def compute_partition(self, index: int) -> list:
        """Apply the partition function to the parent's records."""
        parent = self._parents[0]
        return self._func(index, parent.iterator(index))

    def remote_payload(self, index: int):
        """Ship ``func(parent partition)`` to a worker when ``func`` is picklable.

        The parent's records are fetched on the driver (they are cache hits
        or cheap narrow computations for the solvers' hot paths) and shipped
        together with the adapter, so the worker needs no lineage — only the
        function and its input.
        """
        if self._persisted:
            with self._cache_lock:
                if index in self._cache:
                    return None  # cached: the closure path is a dict lookup
        if self._remote_ok is None:
            self._remote_ok = is_picklable(self._func)
        if not self._remote_ok:
            return None
        records = self._parents[0].iterator(index)
        return compute_map_partition, (self._func, index, records)


class UnionRDD(RDD):
    """Concatenation of several RDDs: partitions are concatenated, partitioner dropped.

    This mirrors Spark's behaviour ("each component RDD preserves its
    partitioning when in union"), which is why the paper's solvers must
    repartition after every union to avoid partition-count explosion.
    """

    def __init__(self, context, rdds: Sequence[RDD]) -> None:
        rdds = list(rdds)
        if not rdds:
            raise ConfigurationError("union requires at least one RDD")
        total = sum(r.num_partitions for r in rdds)
        super().__init__(context, total, None, parents=rdds)
        self._offsets: list[tuple[RDD, int]] = []
        for rdd in rdds:
            for p in range(rdd.num_partitions):
                self._offsets.append((rdd, p))

    def compute_partition(self, index: int) -> list:
        """Route the partition index to the owning parent."""
        rdd, parent_index = self._offsets[index]
        return list(rdd.iterator(parent_index))

    def remote_payload(self, index: int):
        """Delegate to the member RDD owning this partition."""
        rdd, parent_index = self._offsets[index]
        return rdd.remote_payload(parent_index)


class ShuffledRDD(RDD):
    """Wide transformation: repartition (and optionally aggregate) by key.

    The shuffle is materialized lazily, at most once, by :meth:`prepare`:
    a map stage partitions (and map-side combines) every parent partition,
    writes the buckets through the shuffle manager (charging local-storage
    spills), and the reduce side then serves partitions from those buckets.
    The buckets live exactly as long as this RDD: a finalizer releases them
    when it is collected (the spill accounting stays).
    """

    def __init__(self, parent: RDD, partitioner: Partitioner,
                 create_combiner: Callable | None = None,
                 merge_value: Callable | None = None,
                 merge_combiners: Callable | None = None) -> None:
        super().__init__(parent.context, partitioner.num_partitions, partitioner,
                         parents=[parent])
        self._create_combiner = create_combiner
        self._merge_value = merge_value
        self._merge_combiners = merge_combiners
        self._shuffle_id: int | None = None
        self._materialize_lock = threading.Lock()

    @property
    def aggregates(self) -> bool:
        """True when the shuffle aggregates by key (and so map-side combines)."""
        return self._create_combiner is not None

    def _bucket_records(self, records: list) -> dict[int, list]:
        """Partition (and optionally map-side combine) one map task's records."""
        partitioner = self.partitioner
        buckets: dict[int, list] = defaultdict(list)
        if self.aggregates:
            combined: dict[int, dict] = defaultdict(dict)
            for record in records:
                key = record_key(record)
                target = partitioner(key)
                bucket = combined[target]
                if key in bucket:
                    bucket[key] = self._merge_value(bucket[key], record[1])
                else:
                    bucket[key] = self._create_combiner(record[1])
            for target, kv in combined.items():
                buckets[target] = list(kv.items())
        else:
            for record in records:
                key = record_key(record)
                buckets[partitioner(key)].append(record)
        return dict(buckets)

    def _materialize(self) -> None:
        """Run the shuffle map phase once (idempotent)."""
        with self._materialize_lock:
            if self._shuffle_id is not None:
                return
            parent = self._parents[0]
            manager = self.context.shuffle_manager
            shuffle_id = manager.new_shuffle()
            # Binds the manager and the id, never ``self``: the buckets go
            # when the last RDD that can read them goes.
            weakref.finalize(self, manager.release, shuffle_id)
            # One task per parent partition; bucketing is the driver-side finish.
            tasks = parent.stage_tasks(
                lambda map_index, records: (map_index, self._bucket_records(records)))
            results = self.context.scheduler.run_stage("shuffle-map", tasks)
            for map_index, buckets in results:
                manager.write_map_output(shuffle_id, map_index, buckets)
            self._shuffle_id = shuffle_id

    def compute_partition(self, index: int) -> list:
        """Merge the shuffled buckets for one reduce partition."""
        if self._shuffle_id is None:
            self._materialize()
        raw = self.context.shuffle_manager.read_reduce_input(self._shuffle_id, index)
        if not self.aggregates:
            return list(raw)
        merged: dict = {}
        for key, value in raw:
            merged[key] = self._merge_combiners(merged[key], value) if key in merged else value
        return list(merged.items())
