"""Repeated Squaring APSP solver (Algorithm 1 of the paper, Section 4.2).

Computes the min-plus closure ``A^n`` by repeated squaring, where each
squaring is rewritten as a sweep of matrix-vector (column-block) products:
for every block column ``J`` the driver collects the column, stages it in the
shared file system, and a ``map`` + ``reduceByKey(MatMin)`` computes the new
column.  The use of the shared file system makes the solver *impure*.

The solver performs ``ceil(log2(n - 1))`` squarings, each costing ``q``
column sweeps — asymptotically a ``log n`` factor more work than the blocked
solvers, which is exactly the trade-off Table 2 quantifies.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.common.timing import Stopwatch
from repro.core import building_blocks as bb
from repro.core.base import SparkAPSPSolver
from repro.core.registry import SolverShape, register_solver
from repro.linalg.blocks import BlockGrid
from repro.linalg.semiring import closure_iterations
from repro.spark.context import SparkContext
from repro.spark.partitioner import Partitioner
from repro.spark.rdd import RDD


@register_solver(aliases=("squaring", "rs"),
                 description="Min-plus repeated squaring via column-block products "
                             "staged through shared storage (Algorithm 1, impure)")
class RepeatedSquaringSolver(SparkAPSPSolver):
    """Min-plus repeated squaring with column-block staging through shared storage."""

    name = "repeated-squaring"
    pure = False
    layouts = ("triangular", "full")
    algebras = SparkAPSPSolver.algebras + ("longest-path",)

    @staticmethod
    def shape(n: int, block_size: int, grid: BlockGrid,
              element_size: float) -> SolverShape:
        """An iteration is one column sweep (q per squaring).  A sweep
        computes only the column's stored output blocks, q products each:
        ``stored`` products on average over the q sweeps, on both layouts.
        Each product reads one staged block and is reduced into the column."""
        q, stored = grid.q, float(grid.count)
        squarings = max(1, closure_iterations(n))
        block_bytes = element_size * block_size * block_size
        products = stored
        column = q * block_bytes
        contributions = products * block_bytes
        return SolverShape(
            solver="repeated-squaring", iterations=q * squarings,
            stages=2 * q * squarings + squarings + 1, paper_stages=3,
            bulk_ops=products * float(block_size) ** 3,
            kernel_calls=products, driver=stored / q, collect=column,
            sharedfs_write=column, sharedfs_read=contributions,
            reduce=contributions)

    def _run(self, sc: SparkContext, rdd: RDD, n: int, block_size: int,
             grid: BlockGrid, partitioner: Partitioner, stopwatch: Stopwatch):
        shared_fs = sc.shared_fs
        algebra = self.algebra
        squarings = max(1, closure_iterations(n))
        current = rdd

        for iteration in range(squarings):
            column_rdds: list[RDD] = []
            for target_column in range(grid.q):
                with stopwatch.section("collect-column"):
                    # Identify the blocks of column-block J and group them on the driver.
                    column_records = current.filter(
                        bb.in_column(grid, target_column)).collect()
                    column_blocks = _orient_column(grid, column_records,
                                                   target_column)
                with stopwatch.section("stage-column"):
                    # Stage the column in the shared file system (not a broadcast).
                    paths = shared_fs.write_blocks(
                        f"sq-it{iteration}-col{target_column}", column_blocks)

                with stopwatch.section("matvec"):
                    contributions = current.mapPartitions(
                        _column_products(grid, target_column, shared_fs,
                                         paths, algebra))
                    column_result = contributions.reduceByKey(
                        bb.ElementwiseCombine(algebra), partitioner)
                    column_rdds.append(column_result)
            with stopwatch.section("union"):
                current = sc.union(column_rdds).cache()
                # Force materialization so per-iteration work is not replayed and
                # the lineage stays shallow, as the in-memory persistence of the
                # paper's implementation achieves.
                current.count()

        return current, squarings


def _column_products(grid: BlockGrid, target_column: int, shared_fs,
                     paths: dict, algebra) -> Callable[[list], list]:
    """Partition function emitting contributions to column ``J`` against the staged column.

    It runs once per partition, so the task decodes each staged column
    block once, however many of its records multiply it.  It is a closure,
    so the ``processes`` backend runs it in the driver's task pool: shipped
    to workers, the sweep's many small tasks cost more in pickling than
    they gain.
    """
    def run(records) -> list:
        read = shared_fs.task_reader()
        emit = bb.matprod_column_contributions(
            grid, target_column, lambda inner: read(paths[inner]), algebra)
        return [out for record in records for out in emit(record)]
    return run


def _orient_column(grid: BlockGrid, column_records,
                   target_column: int) -> dict[int, np.ndarray]:
    """Build ``{block-row K: A_{K, J}}`` for column ``J`` from stored blocks.

    Each record lands at the block-row of its grid role in column ``J``,
    transposed when that role is the mirrored one.  Blocks pass through in
    their stored representation — packed-bitset blocks stay packed (their
    ``.T`` is a packed transpose), so the staged column of a reachability
    solve ships at 1/8th the bytes of ``bool`` blocks.
    """
    column_blocks: dict[int, np.ndarray] = {}
    for key, block in column_records:
        for r, c, transposed in grid.roles(key):
            if c == target_column:
                column_blocks[r] = block.T if transposed else block
    return column_blocks
