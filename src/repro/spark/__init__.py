"""A faithful, in-process mini-Spark engine.

The paper's solvers use a small but specific subset of the Apache Spark RDD
API: ``parallelize``, ``map``, ``flatMap``, ``filter``, ``union``,
``reduceByKey``, ``combineByKey``, ``partitionBy`` with a custom partitioner,
``collect``, ``count``, ``cache`` and broadcast variables (plus
``mapPartitions``), and the
behaviours that drive the paper's performance story — shuffles staged through
per-node local storage, ``union`` preserving parent partitioning, pySpark's
``portable_hash`` key partitioning, and a shared file system used as an
out-of-band broadcast channel.  This package implements exactly that surface
with lazy RDDs, lineage-based recomputation, pluggable execution backends,
and detailed metrics/spill accounting so the paper's experiments can be
reproduced and projected.
"""

from repro.spark.context import SparkContext
from repro.spark.rdd import RDD
from repro.spark.partitioner import (
    Partitioner,
    PortableHashPartitioner,
    MultiDiagonalPartitioner,
    GridPartitioner,
    portable_hash,
)
from repro.spark.broadcast import Broadcast
from repro.spark.sharedfs import SharedFileSystem
from repro.spark.metrics import EngineMetrics
from repro.spark.faults import FaultInjector, FaultPlan

__all__ = [
    "SparkContext",
    "RDD",
    "Partitioner",
    "PortableHashPartitioner",
    "MultiDiagonalPartitioner",
    "GridPartitioner",
    "portable_hash",
    "Broadcast",
    "SharedFileSystem",
    "EngineMetrics",
    "FaultInjector",
    "FaultPlan",
]
