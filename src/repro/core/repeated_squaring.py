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

import numpy as np

from repro.common.timing import Stopwatch
from repro.core import building_blocks as bb
from repro.core.base import SparkAPSPSolver
from repro.core.registry import register_solver
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

    def _run(self, sc: SparkContext, rdd: RDD, n: int, block_size: int, q: int,
             partitioner: Partitioner, stopwatch: Stopwatch, *,
             layout: str = "triangular"):
        shared_fs = sc.shared_fs
        algebra = self.algebra
        squarings = max(1, closure_iterations(n))
        current = rdd

        # Triangular storage covers column J with every block touching
        # row-or-column J (mirrors transpose in); the full grid stores the
        # column outright, so only blocks with column index J are collected.
        column_filter = bb.in_column if layout == "full" \
            else bb.in_block_row_or_column

        for iteration in range(squarings):
            column_rdds: list[RDD] = []
            for target_column in range(q):
                with stopwatch.section("collect-column"):
                    # Identify the blocks of column-block J and group them on the driver.
                    column_records = current.filter(
                        column_filter(target_column)).collect()
                    column_blocks = _orient_column(column_records, target_column,
                                                   layout=layout)
                with stopwatch.section("stage-column"):
                    # Stage the column in the shared file system (not a broadcast).
                    paths = shared_fs.write_blocks(
                        f"sq-it{iteration}-col{target_column}", column_blocks)

                def fetch(inner: int, _paths=dict(paths)) -> np.ndarray:
                    """Read one staged column block from the shared file system."""
                    return shared_fs.read(_paths[inner])

                with stopwatch.section("matvec"):
                    contributions = current.flatMap(
                        bb.matprod_column_contributions(target_column, fetch,
                                                        algebra, layout=layout))
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


def _orient_column(column_records, target_column: int, *,
                   layout: str = "triangular") -> dict[int, np.ndarray]:
    """Build ``{block-row K: A_{K, J}}`` for column ``J`` from stored blocks.

    Blocks pass through in their stored representation — packed-bitset blocks
    stay packed (their ``.T`` is a packed transpose), so the staged column of
    a reachability solve ships at 1/8th the bytes of ``bool`` blocks, and
    witnessed blocks keep their planes (their ``.T`` swaps parents/succs).
    Under the full grid the records *are* the column — no transposes, which
    is what lets single-plane (transpose-free) witnessed blocks stage.
    """
    column_blocks: dict[int, np.ndarray] = {}
    for (i, j), block in column_records:
        if j == target_column:
            column_blocks[i] = block
        if layout != "full" and i == target_column and j != target_column:
            column_blocks[j] = block.T
    return column_blocks
