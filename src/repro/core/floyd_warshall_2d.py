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

    def _run(self, sc: SparkContext, rdd: RDD, n: int, block_size: int, q: int,
             partitioner: Partitioner, stopwatch: Stopwatch, *,
             layout: str = "triangular"):
        algebra = self.algebra
        # An asymmetric matrix's pivot row is not its pivot column: the full
        # grid extracts both in one pass over the pivot cross (tagged
        # pieces), assembles and broadcasts each, and feeds the rank-1
        # update its two distinct operand vectors.
        full = layout == "full"
        extract = bb.extract_rowcol if full else bb.extract_col
        update = (bb.FloydWarshallUpdateWithRowCol if full
                  else bb.FloydWarshallUpdateWithColumn)
        # Rolling persistence: every generation is marked cached when it is
        # defined and computed exactly once, by the next pivot's extract job
        # (which reads every partition anyway); its parent is dropped as soon
        # as that job returns, so two generations are resident at most.
        previous, current = None, rdd
        for k in range(n):
            pivot_block, k_local = divmod(k, block_size)
            with stopwatch.section("extract-column"):
                pieces = current.filter(bb.in_block_row_or_column(pivot_block)) \
                    .flatMap(extract(pivot_block, k_local)).collect()
                if previous is not None:
                    previous.unpersist()
                if full:
                    vectors = [bb.assemble_column(
                        [(idx, piece) for (tag, idx), piece in pieces if tag == side],
                        n, block_size, algebra) for side in ("col", "row")]
                else:
                    vectors = [bb.assemble_column(pieces, n, block_size, algebra)]
            with stopwatch.section("broadcast"):
                operands = [sc.broadcast(vector).value for vector in vectors]
            with stopwatch.section("update"):
                previous, current = current, current.map_preserving(
                    update(*operands, block_size, algebra)).cache()
        with stopwatch.section("update"):
            # No extract job follows the last pivot, so one count() stands in.
            current.count()
            previous.unpersist()
        return current, n
