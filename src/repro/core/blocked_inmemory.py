"""Blocked In-Memory APSP solver (Algorithm 3 of the paper, Section 4.4).

The blocked Floyd-Warshall of Venkataraman et al. expressed purely with
fault-tolerant Spark operations.  Each of the ``q`` iterations runs three
phases:

1. the pivot diagonal block ``A_tt`` is solved with a sequential APSP kernel;
2. the blocks of block-row/column ``t`` are updated against the pivot block,
   which is replicated to them via ``flatMap(CopyDiag)`` + ``partitionBy`` +
   ``combineByKey`` (data shuffling simulating a broadcast, because Spark
   exposes no executor-initiated broadcast);
3. all remaining blocks are updated with the pair ``A_It ⊗ A_tJ``, again by
   replicating the updated row/column blocks via ``CopyCol`` and pairing with
   ``combineByKey``.

Every phase ends in a ``partitionBy`` so partition counts stay bounded; the
price is one shuffle per phase whose spills accumulate in local storage — the
failure mode the paper observes at small block sizes (Section 5.2).
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


@register_solver(aliases=("blocked-in-memory", "im"),
                 description="Blocked (Venkataraman) APSP expressed entirely with "
                             "Spark shuffles (Algorithm 3, pure)")
class BlockedInMemorySolver(SparkAPSPSolver):
    """Pure-Spark blocked APSP relying on shuffles to pair pivot data with blocks."""

    name = "blocked-im"
    pure = True
    layouts = ("triangular", "full")
    algebras = SparkAPSPSolver.algebras + ("longest-path",)

    @staticmethod
    def shape(n: int, block_size: int, grid: BlockGrid,
              element_size: float) -> SolverShape:
        """Shuffles carry the pivot, then the row/column, to their users,
        then every block back to its partition."""
        q, stored = grid.q, float(grid.count)
        block_bytes = element_size * block_size * block_size
        phase3 = max(0.0, stored - 2 * (q - 1) - 1)
        return SolverShape(
            solver="blocked-im", iterations=q, stages=6 * q + 1,
            paper_stages=4, **bb.blocked_work(grid, block_size),
            shuffle=((q - 1) + 2.0 * phase3) * block_bytes + stored * block_bytes)

    def _run(self, sc: SparkContext, rdd: RDD, n: int, block_size: int,
             grid: BlockGrid, partitioner: Partitioner, stopwatch: Stopwatch):
        algebra = self.algebra
        current = rdd
        for pivot in range(grid.q):
            # ---- Phase 1: solve the pivot diagonal block ---------------------
            with stopwatch.section("phase1-diagonal"):
                diag = current.filter(bb.on_diagonal(pivot)) \
                    .map_preserving(bb.FloydWarshallBlock(algebra)).cache()
                diag_copies = diag.flatMap(bb.copy_diag(grid, pivot)) \
                    .partitionBy(partitioner)

            # ---- Phase 2: update block-row/column of the pivot ----------------
            with stopwatch.section("phase2-rowcol"):
                rowcol = current.filter(bb.off_diagonal_in_row_or_column(pivot)) \
                    .map_preserving(bb.tag_base)
                paired = sc.union([diag_copies, rowcol]).combineByKey(
                    bb.create_list, bb.list_append, bb.merge_lists, partitioner)
                updated_rowcol = paired.map_preserving(
                    bb.unpack_phase2(pivot, algebra)).cache()
                rowcol_copies = updated_rowcol.flatMap(bb.copy_col(grid, pivot)) \
                    .partitionBy(partitioner)

            # ---- Phase 3: update the remaining blocks --------------------------
            with stopwatch.section("phase3-remaining"):
                others = current.filter(bb.not_in_block_row_or_column(pivot)) \
                    .map_preserving(bb.tag_base)
                paired3 = sc.union([rowcol_copies, others]).combineByKey(
                    bb.create_list, bb.list_append, bb.merge_lists, partitioner)
                updated_others = paired3.map_preserving(bb.unpack_phase3(pivot, algebra))

            # ---- Reassemble A for the next iteration ---------------------------
            with stopwatch.section("repartition"):
                current = sc.union([diag, updated_rowcol, updated_others]) \
                    .partitionBy(partitioner).cache()
                current.count()
        return current, grid.q
