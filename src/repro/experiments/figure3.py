"""Figure 3: block size x partitioner x over-decomposition for the blocked solvers.

Top/middle panels: total execution time of Blocked In-Memory (IM) and Blocked
Collect/Broadcast (CB) as a function of the block size, for the default
Portable Hash (PH) partitioner and the multi-diagonal (MD) partitioner, with
B ∈ {1, 2} RDD partitions per core (paper: n = 131,072 on p = 1,024 cores).

Bottom panel: the distribution of RDD partition sizes (blocks per partition)
induced by the two partitioners, which explains the timing differences.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.costmodel import NODE_CORES, NUM_NODES, CostModel
from repro.common.config import EngineConfig
from repro.core.engine import APSPEngine
from repro.core.request import SolveRequest
from repro.graph.generators import erdos_renyi_adjacency
from repro.linalg.blocks import num_blocks, upper_triangular_block_ids
from repro.sequential.floyd_warshall import floyd_warshall_reference
from repro.spark.partitioner import partitioner_by_name

#: Paper configuration for Figure 3.
PAPER_N = 131072
PAPER_P = NUM_NODES * NODE_CORES
PAPER_BLOCK_SIZES = (512, 768, 1024, 1280, 1536, 1792, 2048)


def partition_size_distribution(n: int, block_size: int, num_partitions: int,
                                partitioner_name: str) -> dict:
    """Reproduce the bottom panel: blocks-per-partition statistics for one partitioner."""
    q = num_blocks(n, block_size)
    partitioner = partitioner_by_name(partitioner_name, num_partitions, q)
    counts = partitioner.distribution(upper_triangular_block_ids(q))
    return {
        "partitioner": partitioner_name.upper(),
        "block_size": block_size,
        "q": q,
        "num_partitions": num_partitions,
        "min_blocks": int(counts.min()),
        "max_blocks": int(counts.max()),
        "mean_blocks": float(counts.mean()),
        "std_blocks": float(counts.std()),
        "empty_partitions": int((counts == 0).sum()),
    }


def run_projected(*, n: int = PAPER_N, p: int = PAPER_P,
                  block_sizes=PAPER_BLOCK_SIZES) -> list[dict]:
    """Projected total times at paper scale for IM/CB x {PH, MD} x B ∈ {1, 2}."""
    cm = CostModel()
    rows: list[dict] = []
    for solver in ("blocked-im", "blocked-cb"):
        for partitioner in ("PH", "MD"):
            for b_factor in (1, 2):
                for block_size in block_sizes:
                    proj = cm.project(solver, n, block_size, p,
                                      partitioner=partitioner,
                                      partitions_per_core=b_factor)
                    rows.append({
                        "solver": solver,
                        "partitioner": partitioner,
                        "B": b_factor,
                        "block_size": block_size,
                        "total_seconds": proj.projected_total_seconds,
                        "feasible": proj.feasible,
                        "imbalance": proj.iteration.imbalance_factor,
                    })
    return rows


def run_measured(*, n: int = 192, block_sizes=(16, 24, 32, 48, 64),
                 config: EngineConfig | None = None, seed: int = 11,
                 check_correctness: bool = True) -> list[dict]:
    """Measured engine runs at laptop scale (same sweep structure as the paper's)."""
    config = config or EngineConfig(backend="serial", num_executors=4, cores_per_executor=2)
    adjacency = erdos_renyi_adjacency(n, seed=seed)
    reference = floyd_warshall_reference(adjacency) if check_correctness else None
    rows: list[dict] = []
    # The whole sweep shares one engine session (one Spark context), exactly
    # like the paper's long-lived cluster runs.
    with APSPEngine(config) as engine:
        for solver in ("blocked-im", "blocked-cb"):
            for partitioner in ("PH", "MD"):
                for b_factor in (1, 2):
                    for block_size in block_sizes:
                        result = engine.solve(adjacency, SolveRequest(
                            solver=solver, block_size=block_size,
                            partitioner=partitioner, partitions_per_core=b_factor))
                        correct = True
                        if reference is not None:
                            correct = bool(np.allclose(result.distances, reference))
                        rows.append({
                            "solver": solver,
                            "partitioner": partitioner,
                            "B": b_factor,
                            "block_size": block_size,
                            "total_seconds": result.elapsed_seconds,
                            "shuffle_bytes": result.metrics.get("shuffle_bytes", 0),
                            "sharedfs_bytes": result.metrics.get("sharedfs_bytes_written", 0),
                            "correct": correct,
                        })
    return rows


def run_partition_distribution(*, n: int = PAPER_N, p: int = PAPER_P, b_factor: int = 2,
                               block_sizes=PAPER_BLOCK_SIZES) -> list[dict]:
    """Bottom panel of Figure 3 at paper scale (pure bookkeeping, fast)."""
    rows = []
    for partitioner in ("MD", "PH"):
        for block_size in block_sizes:
            rows.append(partition_size_distribution(n, block_size, p * b_factor, partitioner))
    return rows
