"""Shuffle manager: data movement between stages, staged through local storage.

In Spark every wide transformation writes its map-side output to the local
disks of the executors before the reduce side fetches it; those spills are
kept for fault tolerance, so their volume accumulates over the lifetime of an
application.  Section 5.2 of the paper shows this is exactly what breaks the
Blocked In-Memory solver for small block sizes: the per-iteration
``partitionBy`` shuffles exceed the 1 TB of local SSD per node.  The shuffle
manager reproduces that mechanism: every map-side write is charged against the
executor that produced it and checked against the configured capacity.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.common.config import EngineConfig
from repro.common.errors import StorageExhaustedError
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
    """Tracks shuffle writes, enforces local-storage capacity, serves reduce reads."""

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
        return output

    def read_reduce_input(self, shuffle_id: int, reduce_partition: int) -> list:
        """Return all records destined for ``reduce_partition``, in map-task order."""
        with self._lock:
            outputs = list(self._outputs.get(shuffle_id, ()))
        records: list = []
        for output in sorted(outputs, key=lambda o: o.map_partition):
            records.extend(output.buckets.get(reduce_partition, ()))
        return records

    def release(self, shuffle_id: int) -> None:
        """Drop in-memory shuffle data (spill accounting is intentionally kept)."""
        with self._lock:
            self._outputs.pop(shuffle_id, None)

    def spilled_bytes(self) -> dict[int, int]:
        """Cumulative spilled bytes per executor."""
        return dict(self.metrics.spilled_bytes_per_executor)
