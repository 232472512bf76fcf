"""2D Floyd-Warshall APSP solver (Algorithm 2 of the paper, Section 4.3).

The textbook parallel Floyd-Warshall over a 2D block decomposition: in
iteration ``k`` the pivot column ``k`` is extracted from the block column
``K = k // b``, collected on the driver, broadcast to all executors, and every
block applies the rank-1 ``FloydWarshallUpdate``.  The solver is *pure* — it
uses only fault-tolerant Spark operations and no wide transformations — but it
needs ``n`` synchronization rounds, which is what makes it unscalable in
practice (Table 2).
"""

from __future__ import annotations

from repro.common.timing import Stopwatch
from repro.core import building_blocks as bb
from repro.core.base import SparkAPSPSolver
from repro.core.registry import SolverShape, register_solver
from repro.linalg.blocks import BlockGrid
from repro.spark.context import SparkContext
from repro.spark.partitioner import Partitioner
from repro.spark.rdd import RDD


@register_solver(aliases=("fw2d", "2d-floyd-warshall"),
                 description="2D-decomposed Floyd-Warshall with a per-iteration "
                             "pivot collect+broadcast (Algorithm 2, pure)")
class FloydWarshall2DSolver(SparkAPSPSolver):
    """Pure-Spark 2D-decomposed Floyd-Warshall with per-pivot collect + broadcast."""

    name = "fw-2d"
    pure = True
    layouts = ("triangular", "full")
    algebras = SparkAPSPSolver.algebras + ("longest-path",)

    @staticmethod
    def shape(n: int, block_size: int, grid: BlockGrid,
              element_size: float) -> SolverShape:
        """n pivots: a rank-1 update of every block after the pivot column is
        collected and broadcast (a dense vector even under packed storage)."""
        stored = float(grid.count)
        column = max(element_size, 1.0) * n
        return SolverShape(
            solver="fw-2d", iterations=n, stages=n + 2, paper_stages=2,
            bulk_ops=stored * float(block_size) ** 2, kernel_calls=stored,
            driver=stored / grid.q, collect=column, broadcast=column)

    def _run(self, sc: SparkContext, rdd: RDD, n: int, block_size: int,
             grid: BlockGrid, partitioner: Partitioner, stopwatch: Stopwatch):
        algebra = self.algebra
        # Rolling persistence: every generation is marked cached when it is
        # defined and computed exactly once, by the next pivot's extract job
        # (which reads every partition anyway); its parent is dropped as soon
        # as that job returns, so two generations are resident at most.
        previous, current = None, rdd
        for k in range(n):
            pivot_block, k_local = divmod(k, block_size)
            with stopwatch.section("extract-column"):
                pieces = current.filter(bb.in_block_row_or_column(pivot_block)) \
                    .flatMap(bb.extract_col(grid, pivot_block, k_local)).collect()
                if previous is not None:
                    previous.unpersist()
                # One vector on a mirrored grid (the pivot row is the pivot
                # column), the column and the row of an asymmetric matrix
                # otherwise.
                vectors = bb.assemble_pivot(pieces, grid, n, block_size, algebra)
            with stopwatch.section("broadcast"):
                operands = [sc.broadcast(vector).value for vector in vectors]
            with stopwatch.section("update"):
                previous, current = current, current.map_preserving(
                    bb.FloydWarshallUpdate(operands[0], operands[-1],
                                           block_size, algebra)).cache()
        with stopwatch.section("update"):
            # No extract job follows the last pivot, so one count() stands in.
            current.count()
            previous.unpersist()
        return current, n
