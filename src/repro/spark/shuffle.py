"""Shuffle manager: data movement between stages, staged through local storage.

A shuffle has two halves with two lifetimes.

* **The spill accounting persists.**  In Spark every wide transformation
  writes its map-side output to the local disks of the executors before the
  reduce side fetches it; those spills are kept for fault tolerance, so their
  volume accumulates over the lifetime of an application.  Section 5.2 of the
  paper shows this is exactly what breaks the Blocked In-Memory solver for
  small block sizes: the per-iteration ``partitionBy`` shuffles exceed the
  1 TB of local SSD per node.  Every map-side write is therefore charged
  against the executor that produced it (``spilled_bytes_per_executor``) and
  checked against the configured capacity
  (:class:`~repro.common.errors.StorageExhaustedError`) for the context's
  whole life; nothing below ever un-charges it.
* **The buckets are freed.**  The records themselves (:attr:`MapOutput.buckets`)
  are only needed while an RDD can still read them.  The
  :class:`~repro.spark.rdd.ShuffledRDD` that wrote a shuffle holds a
  ``weakref.finalize`` that calls :meth:`ShuffleManager.release` when the RDD
  is collected — Spark's ``ContextCleaner`` dropping an unreachable
  ``ShuffleDependency`` — so a long-lived context holds the shuffles its live
  RDDs can read and not its history.  Reading a released shuffle raises
  :class:`~repro.common.errors.LineageError`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.common.config import EngineConfig
from repro.common.errors import LineageError, StorageExhaustedError
from repro.spark.metrics import EngineMetrics
from repro.spark.util import estimate_size


@dataclass
class MapOutput:
    """Map-side output of one task: records grouped by reduce partition."""

    map_partition: int
    executor: int
    buckets: dict[int, list]
    records: int
    nbytes: int


class ShuffleManager:
    """Tracks shuffle writes, enforces local-storage capacity, serves reduce reads.

    ``_outputs`` holds the map outputs of every shuffle not yet released; the
    ``live_shuffles``/``live_shuffle_bytes`` gauges of :class:`EngineMetrics`
    mirror it.
    """

    def __init__(self, config: EngineConfig, metrics: EngineMetrics) -> None:
        self.config = config
        self.metrics = metrics
        self._lock = threading.Lock()
        self._next_shuffle_id = 0
        self._outputs: dict[int, list[MapOutput]] = {}

    def new_shuffle(self) -> int:
        """Register a new shuffle and return its id."""
        with self._lock:
            shuffle_id = self._next_shuffle_id
            self._next_shuffle_id += 1
            self._outputs[shuffle_id] = []
        self.metrics.shuffle_started()
        return shuffle_id

    def executor_for_partition(self, partition_index: int) -> int:
        """Deterministic partition -> executor placement (round robin)."""
        return partition_index % max(1, self.config.num_executors)

    def write_map_output(self, shuffle_id: int, map_partition: int,
                         buckets: dict[int, list]) -> MapOutput:
        """Record the map-side output of one task and charge its spill volume.

        Raises :class:`~repro.common.errors.StorageExhaustedError` when the
        cumulative spill volume on the producing executor exceeds the
        configured per-node local storage.
        """
        records = sum(len(v) for v in buckets.values())
        nbytes = sum(estimate_size(rec) for v in buckets.values() for rec in v)
        executor = self.executor_for_partition(map_partition)
        output = MapOutput(map_partition=map_partition, executor=executor,
                           buckets=buckets, records=records, nbytes=nbytes)
        self.metrics.shuffle_write(executor, records, nbytes)
        capacity = self.config.local_storage_bytes
        if capacity is not None:
            used = self.metrics.spilled_bytes_per_executor.get(executor, 0)
            if used > capacity:
                raise StorageExhaustedError(
                    f"executor {executor} exceeded local storage capacity: "
                    f"{used} bytes spilled > {capacity} bytes available",
                    node=executor, required_bytes=used, capacity_bytes=capacity)
        with self._lock:
            self._outputs[shuffle_id].append(output)
        self.metrics.shuffle_retained(nbytes)
        return output

    def read_reduce_input(self, shuffle_id: int, reduce_partition: int) -> list:
        """Return all records destined for ``reduce_partition``, in map-task order.

        Raises :class:`~repro.common.errors.LineageError` for a shuffle that
        was released (or never registered): an empty read would be a silently
        wrong result.
        """
        with self._lock:
            outputs = self._outputs.get(shuffle_id)
            if outputs is None:
                raise LineageError(f"shuffle {shuffle_id} was released or never registered; "
                                   "its reduce input is gone")
            outputs = list(outputs)
        records: list = []
        for output in sorted(outputs, key=lambda o: o.map_partition):
            records.extend(output.buckets.get(reduce_partition, ()))
        return records

    def release(self, shuffle_id: int) -> None:
        """Drop a shuffle's buckets (spill accounting is intentionally kept).

        Called once per shuffle, by the finalizer of the
        :class:`~repro.spark.rdd.ShuffledRDD` that wrote it; releasing an
        unknown id is a no-op.  It takes no lock of this manager: the cyclic
        collector runs finalizers at an arbitrary allocation, possibly inside
        one of this thread's critical sections.  ``dict.pop`` is atomic, and
        it only ever removes the id of a shuffle no live RDD can read.
        """
        outputs = self._outputs.pop(shuffle_id, None)
        if outputs is not None:
            self.metrics.shuffle_released(sum(o.nbytes for o in outputs))

    def spilled_bytes(self) -> dict[int, int]:
        """Cumulative spilled bytes per executor."""
        return dict(self.metrics.spilled_bytes_per_executor)
