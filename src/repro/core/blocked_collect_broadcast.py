"""Blocked Collect/Broadcast APSP solver (Algorithm 4 of the paper, Section 4.5).

A redesign of the Blocked In-Memory solver that bypasses explicit data
shuffling: the processed pivot diagonal block and the updated row/column
blocks travel through the driver (``collect``) and the shared persistent
storage instead of a shuffle.  This makes the solver *impure* (not
fault-tolerant) but, per the paper's experiments, the best performing — it is
the only solver able to handle the largest problems (Table 3).
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import SolverError
from repro.common.timing import Stopwatch
from repro.core import building_blocks as bb
from repro.core.base import SparkAPSPSolver
from repro.core.registry import SolverShape, register_solver
from repro.linalg.algebra import Semiring, get_algebra
from repro.linalg.blocks import BlockGrid
from repro.linalg.semiring import semiring_relax
from repro.spark.context import SparkContext
from repro.spark.partitioner import Partitioner
from repro.spark.rdd import RDD


@register_solver(aliases=("blocked-collect-broadcast", "cb"),
                 description="Blocked APSP with pivot data staged through the driver "
                             "and shared storage (Algorithm 4, impure, fastest)")
class BlockedCollectBroadcastSolver(SparkAPSPSolver):
    """Blocked APSP with pivot data redistributed through the driver and shared storage."""

    name = "blocked-cb"
    pure = False
    layouts = ("triangular", "full")
    algebras = SparkAPSPSolver.algebras + ("longest-path",)

    @staticmethod
    def shape(n: int, block_size: int, grid: BlockGrid,
              element_size: float) -> SolverShape:
        """The pivot and its row/column travel through the driver and shared
        storage; every block is restaged."""
        q, stored = grid.q, float(grid.count)
        block_bytes = element_size * block_size * block_size
        collected = (2.0 * (q - 1) + 1.0) * block_bytes
        return SolverShape(
            solver="blocked-cb", iterations=q, stages=4 * q + 1,
            paper_stages=3, **bb.blocked_work(grid, block_size),
            collect=collected, sharedfs_write=collected,
            sharedfs_read=2.0 * stored * block_bytes,
            restage=stored * block_bytes)

    def _run(self, sc: SparkContext, rdd: RDD, n: int, block_size: int,
             grid: BlockGrid, partitioner: Partitioner, stopwatch: Stopwatch):
        shared_fs = sc.shared_fs
        algebra = self.algebra
        current = rdd
        for pivot in range(grid.q):
            # ---- Phase 1: solve the pivot block and stage it ------------------
            with stopwatch.section("phase1-diagonal"):
                diag = current.filter(bb.on_diagonal(pivot)) \
                    .map_preserving(bb.FloydWarshallBlock(algebra)).cache()
                diag_records = diag.collect()
                if len(diag_records) != 1:
                    raise SolverError(
                        f"expected exactly one diagonal block for pivot {pivot}, "
                        f"got {len(diag_records)}")
                diag_path = shared_fs.write(f"cb-it{pivot}-diag", diag_records[0][1])

            # ---- Phase 2: update block-row/column of the pivot -----------------
            with stopwatch.section("phase2-rowcol"):
                rowcol = current.filter(bb.off_diagonal_in_row_or_column(pivot)) \
                    .mapPartitions(
                        _Phase2Update(pivot, shared_fs, diag_path, algebra),
                        preserves_partitioning=True).cache()
                rowcol_records = rowcol.collect()
                rowcol_paths = {
                    key: shared_fs.write(f"cb-it{pivot}-rowcol-{key}", block)
                    for key, block in rowcol_records
                }

            # ---- Phase 3: update the remaining blocks ---------------------------
            with stopwatch.section("phase3-remaining"):
                others = current.filter(bb.not_in_block_row_or_column(pivot)) \
                    .mapPartitions(
                        _Phase3Update(grid, pivot, shared_fs, rowcol_paths,
                                      algebra),
                        preserves_partitioning=True)

            # ---- Reassemble A ---------------------------------------------------
            with stopwatch.section("repartition"):
                current = sc.union([diag, rowcol, others]) \
                    .partitionBy(partitioner).cache()
                current.count()
        return current, grid.q


class _Phase2Update:
    """Update a partition's row/column blocks against the staged pivot block (``MinPlus``).

    A callable class rather than a closure so the ``processes`` backend can
    pickle the update (together with the shared-filesystem handle and the
    semiring, which pickles by name) into a worker process.  It runs once
    per partition, so the task decodes the pivot block once, not once per
    record.
    """

    __slots__ = ("pivot", "shared_fs", "diag_path", "algebra")

    def __init__(self, pivot: int, shared_fs, diag_path: str,
                 algebra: Semiring | str | None = None) -> None:
        self.pivot = pivot
        self.shared_fs = shared_fs
        self.diag_path = diag_path
        self.algebra = get_algebra(algebra)

    def __call__(self, records) -> list:
        read = self.shared_fs.task_reader()
        # A column block A_{i, pivot} is right-multiplied by the pivot
        # closure, a row block A_{pivot, j} left-multiplied.
        return [bb.min_plus((key, block), read(self.diag_path),
                            other_on_left=key[1] != self.pivot,
                            algebra=self.algebra)
                for key, block in records]


class _Phase3Update:
    """Update a partition's off-pivot blocks with ``A_IJ ⊕ (A_It ⊗ A_tJ)`` from shared storage.

    Picklable for the same reason as :class:`_Phase2Update` — phase 3 is the
    O(q²) bulk of every iteration and the main beneficiary of true
    multi-core execution.  A task decodes each staged row/column block once,
    however many of its records use it.
    """

    __slots__ = ("grid", "pivot", "shared_fs", "rowcol_paths", "algebra")

    def __init__(self, grid: BlockGrid, pivot: int, shared_fs,
                 rowcol_paths: dict,
                 algebra: Semiring | str | None = None) -> None:
        self.grid = grid
        self.pivot = pivot
        self.shared_fs = shared_fs
        self.rowcol_paths = rowcol_paths
        self.algebra = get_algebra(algebra)

    def __call__(self, records) -> list:
        read = self.shared_fs.task_reader()

        def oriented(row: int, col: int) -> np.ndarray:
            """``A_{row, col}`` where exactly one of row/col equals the pivot."""
            key, transposed = self.grid.locate(row, col)
            block = read(self.rowcol_paths[key])
            return block.T if transposed else block

        return [((i, j), semiring_relax(block, oriented(i, self.pivot),
                                        oriented(self.pivot, j), self.algebra))
                for (i, j), block in records]
