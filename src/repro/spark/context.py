"""The driver-side entry point of the mini-Spark engine."""

from __future__ import annotations

import os
import shutil
import weakref
from typing import Callable, Iterable, Sequence

from repro.common.config import EngineConfig, default_config
from repro.spark.broadcast import Broadcast
from repro.spark.faults import FaultInjector, FaultPlan
from repro.spark.metrics import EngineMetrics
from repro.spark.partitioner import Partitioner
from repro.spark.rdd import RDD, ParallelCollectionRDD, UnionRDD
from repro.spark.scheduler import TaskScheduler
from repro.spark.sharedfs import SharedFileSystem
from repro.spark.shuffle import ShuffleManager


class SparkContext:
    """Driver: creates RDDs, runs jobs, owns the shuffle manager and shared storage.

    Example
    -------
    >>> from repro.common.config import EngineConfig
    >>> with SparkContext(EngineConfig(backend="serial")) as sc:
    ...     rdd = sc.parallelize([("a", 1), ("b", 2), ("a", 3)])
    ...     dict(rdd.reduceByKey(lambda x, y: x + y).collect())
    {'a': 4, 'b': 2}
    """

    def __init__(self, config: EngineConfig | None = None,
                 fault_plan: FaultPlan | None = None) -> None:
        self.config = config or default_config()
        self.metrics = EngineMetrics()
        self.fault_injector = FaultInjector(fault_plan)
        self.scheduler = TaskScheduler(self.config, self.metrics, self.fault_injector)
        self.scheduler.add_repair_hook(self._repair_staged_block)
        self.shuffle_manager = ShuffleManager(self.config, self.metrics)
        self._shared_fs: SharedFileSystem | None = None
        self._shared_fs_root: str | None = None
        #: Removes the temp dir the context created: on :meth:`stop`, or
        #: when a context dropped without ``stop()`` is collected.
        self._remove_owned_root: weakref.finalize | None = None
        self._rdd_counter = 0
        self._stopped = False

    # ------------------------------------------------------------------ lifecycle
    def __enter__(self) -> "SparkContext":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def stop(self) -> None:
        """Shut down the scheduler and release shared storage."""
        if self._stopped:
            return
        self.scheduler.shutdown()
        if self._remove_owned_root is not None:
            # The context created this temp dir, so the context removes it —
            # nothing is written back into (or leaked through) the config.
            self._remove_owned_root()
            self._shared_fs_root = None
        self._stopped = True

    # ------------------------------------------------------------------ plumbing
    def _register_rdd(self, rdd: RDD) -> int:
        self._rdd_counter += 1
        return self._rdd_counter

    @property
    def total_cores(self) -> int:
        """Total executor cores of the simulated cluster."""
        return self.config.total_cores

    # ------------------------------------------------------------------ RDD creation
    def parallelize(self, data: Iterable, num_partitions: int | None = None,
                    partitioner: Partitioner | None = None) -> RDD:
        """Create an RDD from an in-memory collection.

        When ``partitioner`` is given, records must be (key, value) pairs and
        are placed according to the partitioner (like ``parallelize`` followed
        by ``partitionBy`` but without a shuffle).
        """
        if partitioner is not None:
            slices = partitioner.num_partitions
        else:
            slices = num_partitions or self.config.parallelism
        return ParallelCollectionRDD(self, data, slices, partitioner)

    def union(self, rdds: Sequence[RDD]) -> RDD:
        """Union of several RDDs (partition lists concatenate)."""
        return UnionRDD(self, rdds)

    def broadcast(self, value) -> Broadcast:
        """Create a broadcast variable, accounting driver-to-executor traffic."""
        return Broadcast(value, metrics=self.metrics, num_executors=self.config.num_executors)

    # ------------------------------------------------------------------ shared storage
    @property
    def shared_fs(self) -> SharedFileSystem:
        """The shared persistent storage used by the impure solvers (lazily created).

        When the config names no directory, the context creates a private
        temp dir, owns it for its lifetime, and removes it on :meth:`stop`
        (or when it is garbage-collected unstopped) — the (possibly shared)
        config object is never mutated.
        """
        if self._shared_fs is None:
            owned = self.config.shared_fs_dir is None
            self._shared_fs_root = self.config.resolve_shared_fs_dir()
            if owned:
                self._remove_owned_root = weakref.finalize(
                    self, shutil.rmtree, self._shared_fs_root, ignore_errors=True)
            self._shared_fs = SharedFileSystem(
                os.path.join(self._shared_fs_root, "sharedfs"), self.metrics,
                fault_injector=self.fault_injector)
        return self._shared_fs

    def _repair_staged_block(self, exc) -> bool:
        """Scheduler repair hook: re-stage a block a worker reported lost.

        Worker processes hold no lineage registry, so a missing/corrupt
        staged block surfaces as a :class:`~repro.common.errors.StagingError`
        on the driver; this hook rewrites the block from the driver's bounded
        registry so the retried task finds it intact.
        """
        if self._shared_fs is None or getattr(exc, "name", None) is None:
            return False
        return self._shared_fs.restage(exc.name)

    def clear_shared_fs(self) -> None:
        """Drop every staged shared-filesystem object (if any were created).

        A long-lived context serving many solves would otherwise accumulate
        the impure solvers' staged ``.blk`` files until :meth:`stop`; callers
        that know a job boundary (e.g. the engine between jobs) use this to
        keep disk usage bounded to one solve.
        """
        if self._shared_fs is not None:
            self._shared_fs.clear()

    # ------------------------------------------------------------------ job execution
    def run_job(self, rdd: RDD, func: Callable[[list], object] | None = None) -> list:
        """Run one task per partition of ``rdd`` and return the per-partition results.

        ``func`` maps a partition's record list to the task result (defaults
        to the identity, i.e. return the records).
        """
        if self._stopped:
            raise RuntimeError("SparkContext has been stopped")
        rdd.prepare()
        func = func or (lambda records: records)
        tasks = rdd.stage_tasks(lambda index, records: func(records))
        return self.scheduler.run_stage("result", tasks)
