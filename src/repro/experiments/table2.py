"""Table 2: the effect of block size (and partitioner) on execution time.

For every solver x partitioner x block size the paper reports the iteration
count, the measured time of a single iteration at full scale, and the
projected total (single x iterations).  The projected mode regenerates the
table from the cost model at the paper's configuration (n = 262,144,
p = 1,024, B = 2); the measured mode runs real single iterations of each
solver on the mini-Spark engine at a configurable small scale and projects
totals the same way the paper does.
"""

from __future__ import annotations

from repro.cluster.costmodel import NODE_CORES, NUM_NODES, CostModel
from repro.common.config import EngineConfig
from repro.common.timing import format_seconds
from repro.core.engine import APSPEngine
from repro.core.registry import solver_shape
from repro.core.request import SolveRequest
from repro.graph.generators import erdos_renyi_adjacency

#: The paper's Table 2 configuration.
PAPER_N = 262144
PAPER_P = NUM_NODES * NODE_CORES
PAPER_B_FACTOR = 2
PAPER_BLOCK_SIZES = (256, 512, 1024, 2048, 4096)
SOLVERS = ("repeated-squaring", "fw-2d", "blocked-im", "blocked-cb")
PARTITIONERS = ("MD", "PH")


def run_projected(*, n: int = PAPER_N, p: int = PAPER_P,
                  block_sizes=PAPER_BLOCK_SIZES, solvers=SOLVERS,
                  partitioners=PARTITIONERS) -> list[dict]:
    """Regenerate Table 2 rows from the cost model."""
    cm = CostModel()
    rows: list[dict] = []
    for solver in solvers:
        for partitioner in partitioners:
            for block_size in block_sizes:
                proj = cm.project(solver, n, block_size, p, partitioner=partitioner,
                                  partitions_per_core=PAPER_B_FACTOR)
                rows.append({
                    "method": solver,
                    "partitioner": partitioner,
                    "block_size": block_size,
                    "iterations": proj.iterations,
                    "single_seconds": proj.single_iteration_seconds,
                    "single": format_seconds(proj.single_iteration_seconds),
                    "projected_seconds": proj.projected_total_seconds,
                    "projected": format_seconds(proj.projected_total_seconds),
                    "feasible": proj.feasible,
                })
    return rows


def run_measured(*, n: int = 160, block_sizes=(16, 32, 64), solvers=SOLVERS,
                 partitioners=("MD",), config: EngineConfig | None = None,
                 seed: int = 5) -> list[dict]:
    """Measure single-iteration times of each solver on the engine, then project.

    The full solve is executed (so results stay verifiable); the single-iteration
    time is the total divided by the iteration count, mirroring how the paper's
    per-iteration numbers relate to its projected totals.  The count is the
    solver shape's, as in the projected rows: repeated squaring's iteration
    is one column sweep, q per squaring.
    """
    config = config or EngineConfig(backend="serial", num_executors=4, cores_per_executor=2)
    adjacency = erdos_renyi_adjacency(n, seed=seed)
    rows: list[dict] = []
    with APSPEngine(config) as engine:
        for solver in solvers:
            for partitioner in partitioners:
                for block_size in block_sizes:
                    result = engine.solve(adjacency, SolveRequest(
                        solver=solver, block_size=block_size, partitioner=partitioner,
                        partitions_per_core=PAPER_B_FACTOR))
                    elapsed = result.elapsed_seconds
                    iterations = solver_shape(
                        solver, n, result.block_size, result.layout,
                        result.distances.itemsize).iterations
                    single = elapsed / iterations
                    rows.append({
                        "method": solver,
                        "partitioner": partitioner,
                        "block_size": block_size,
                        "iterations": iterations,
                        "single_seconds": single,
                        "projected_seconds": single * iterations,
                        "total_seconds": elapsed,
                        "shuffle_bytes": result.metrics.get("shuffle_bytes", 0),
                        "collect_bytes": result.metrics.get("collect_bytes", 0),
                        "sharedfs_bytes": result.metrics.get("sharedfs_bytes_written", 0),
                    })
    return rows
