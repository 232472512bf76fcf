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
from repro.core.registry import register_solver
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

    #: Materialize (cache + count) the block RDD every this many pivots to keep
    #: the narrow-lineage chain short.  Spark users achieve the same with
    #: periodic persistence; the interval does not change results.
    checkpoint_interval = 16

    def _run(self, sc: SparkContext, rdd: RDD, n: int, block_size: int, q: int,
             partitioner: Partitioner, stopwatch: Stopwatch, *,
             layout: str = "triangular"):
        algebra = self.algebra
        current = rdd
        for k in range(n):
            pivot_block = k // block_size
            k_local = k % block_size

            if layout == "full":
                # An asymmetric matrix's pivot row is not its pivot column:
                # extract both in one pass over the pivot cross (tagged
                # pieces), assemble and broadcast each, and feed the rank-1
                # update its two distinct operand vectors.
                with stopwatch.section("extract-column"):
                    pieces = current.filter(bb.in_block_row_or_column(pivot_block)) \
                        .flatMap(bb.extract_rowcol(pivot_block, k_local)).collect()
                    col_pieces = [(idx, piece) for (tag, idx), piece in pieces
                                  if tag == "col"]
                    row_pieces = [(idx, piece) for (tag, idx), piece in pieces
                                  if tag == "row"]
                    column = bb.assemble_column(col_pieces, n, block_size, algebra)
                    row = bb.assemble_column(row_pieces, n, block_size, algebra)
                with stopwatch.section("broadcast"):
                    col_broadcast = sc.broadcast(column)
                    row_broadcast = sc.broadcast(row)
                with stopwatch.section("update"):
                    current = current.map_preserving(
                        bb.FloydWarshallUpdateWithRowCol(
                            col_broadcast.value, row_broadcast.value,
                            block_size, algebra))
                    if (k + 1) % self.checkpoint_interval == 0 or k == n - 1:
                        current = current.cache()
                        current.count()
                continue

            with stopwatch.section("extract-column"):
                pieces = current.filter(bb.in_block_row_or_column(pivot_block)) \
                    .flatMap(bb.extract_col(pivot_block, k_local)).collect()
                column = bb.assemble_column(pieces, n, block_size, algebra)
            with stopwatch.section("broadcast"):
                broadcast = sc.broadcast(column)
            with stopwatch.section("update"):
                current = current.map_preserving(
                    bb.FloydWarshallUpdateWithColumn(
                        broadcast.value, block_size, algebra))
                if (k + 1) % self.checkpoint_interval == 0 or k == n - 1:
                    current = current.cache()
                    current.count()
        return current, n
