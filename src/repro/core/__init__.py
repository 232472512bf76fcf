"""The paper's primary contribution: Spark-based APSP solvers.

Four solvers are provided (Section 4 of the paper), all operating on a 2D
block decomposition of the adjacency matrix stored as ``((I, J), A_IJ)``
records in an RDD, keeping only the upper triangle of the symmetric matrix:

* :class:`~repro.core.repeated_squaring.RepeatedSquaringSolver` — min-plus
  repeated squaring rewritten as a series of matrix-vector (column-block)
  products with the column staged through shared storage (Algorithm 1, impure).
* :class:`~repro.core.floyd_warshall_2d.FloydWarshall2DSolver` — the textbook
  2D-decomposed Floyd-Warshall with a collect+broadcast of the pivot column
  per iteration (Algorithm 2, pure).
* :class:`~repro.core.blocked_inmemory.BlockedInMemorySolver` — the blocked
  (Venkataraman) algorithm expressed entirely with Spark shuffles
  (Algorithm 3, pure).
* :class:`~repro.core.blocked_collect_broadcast.BlockedCollectBroadcastSolver`
  — the blocked algorithm with the pivot data staged through the driver and
  shared storage instead of shuffles (Algorithm 4, impure, best performing).
"""

from repro.core.api import solve_apsp, available_solvers, APSPResult, get_solver_class
from repro.core.base import SparkAPSPSolver, SolvePlan
from repro.core.engine import APSPEngine, APSPJob
from repro.core.registry import (SolverInfo, register_solver, solver_catalog,
                                 solver_info, unregister_solver)
from repro.core.request import SolveRequest
from repro.core.repeated_squaring import RepeatedSquaringSolver
from repro.core.floyd_warshall_2d import FloydWarshall2DSolver
from repro.core.blocked_inmemory import BlockedInMemorySolver
from repro.core.blocked_collect_broadcast import BlockedCollectBroadcastSolver
from repro.core import building_blocks

__all__ = [
    "solve_apsp",
    "available_solvers",
    "get_solver_class",
    "APSPResult",
    "APSPEngine",
    "APSPJob",
    "SolveRequest",
    "SolvePlan",
    "SolverInfo",
    "register_solver",
    "unregister_solver",
    "solver_catalog",
    "solver_info",
    "SparkAPSPSolver",
    "RepeatedSquaringSolver",
    "FloydWarshall2DSolver",
    "BlockedInMemorySolver",
    "BlockedCollectBroadcastSolver",
    "building_blocks",
]
