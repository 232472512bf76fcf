"""Table 3 and Figure 5: weak scaling of the blocked solvers vs the MPI baselines.

The paper keeps n/p = 256 and scales p from 64 to 1,024, comparing Blocked
In-Memory, Blocked Collect/Broadcast, the naive MPI 2D Floyd-Warshall
(FW-2D-GbE) and the optimized divide-and-conquer solver (DC-GbE), reporting
wall-clock times (Table 3) and Gop/s per core normalized by the sequential
reference T1 = 0.022 s at n = 256 (Figure 5).
"""

from __future__ import annotations

import time

import numpy as np

from repro.cluster.costmodel import CostModel
from repro.common.config import EngineConfig
from repro.common.timing import format_seconds
from repro.core.engine import APSPEngine
from repro.core.request import SolveRequest
from repro.graph.generators import erdos_renyi_adjacency
from repro.mpi.divide_conquer import dc_apsp
from repro.mpi.fw2d import fw2d_mpi_apsp
from repro.sequential.floyd_warshall import floyd_warshall_reference

#: The paper's weak-scaling configuration.
PAPER_VERTICES_PER_CORE = 256
PAPER_CORE_COUNTS = (64, 128, 256, 512, 1024)
PAPER_T1_SECONDS = 0.022
PAPER_T1_GOPS = 0.762


def run_projected(*, vertices_per_core: int = PAPER_VERTICES_PER_CORE,
                  core_counts=PAPER_CORE_COUNTS) -> list[dict]:
    """Regenerate Table 3 / Figure 5 from the cost model."""
    cm = CostModel()
    rows: list[dict] = []
    for entry in cm.weak_scaling(vertices_per_core=vertices_per_core,
                                 core_counts=core_counts):
        p, n = entry["p"], entry["n"]
        im, cb = entry["blocked-im"], entry["blocked-cb"]
        fw2d_s = entry["fw-2d-mpi_seconds"]
        dc_s = entry["dc-mpi_seconds"]
        rows.append({
            "p": p,
            "n": n,
            "blocked_im": format_seconds(im.projected_total_seconds) if im.feasible else "-",
            "blocked_im_seconds": im.projected_total_seconds if im.feasible else float("nan"),
            "blocked_im_b": im.block_size,
            "blocked_cb": format_seconds(cb.projected_total_seconds),
            "blocked_cb_seconds": cb.projected_total_seconds,
            "blocked_cb_b": cb.block_size,
            "fw2d_mpi": format_seconds(fw2d_s),
            "fw2d_mpi_seconds": fw2d_s,
            "dc_mpi": format_seconds(dc_s),
            "dc_mpi_seconds": dc_s,
            "gops_core_im": cm.gops_per_core(n, p, im.projected_total_seconds) if im.feasible else 0.0,
            "gops_core_cb": cm.gops_per_core(n, p, cb.projected_total_seconds),
            "gops_core_fw2d_mpi": cm.gops_per_core(n, p, fw2d_s),
            "gops_core_dc_mpi": cm.gops_per_core(n, p, dc_s),
            "sequential_gops": PAPER_T1_GOPS,
        })
    return rows


def run_measured(*, vertices_per_core: int = 16, core_counts=(4, 8, 16),
                 config: EngineConfig | None = None, seed: int = 17,
                 check_correctness: bool = True) -> list[dict]:
    """Weak scaling on this machine: same structure, laptop-sized problems.

    ``p`` is the simulated core count of the engine; ``n = vertices_per_core * p``.
    Every configuration is checked against the sequential reference so the
    scaling rows are backed by verified results.
    """
    rows: list[dict] = []
    for p in core_counts:
        n = vertices_per_core * p
        cfg = (config or EngineConfig()).replace(
            num_executors=max(1, p // 4), cores_per_executor=min(4, p))
        adjacency = erdos_renyi_adjacency(n, seed=seed + p)
        reference = floyd_warshall_reference(adjacency) if check_correctness else None

        measurements: dict[str, float] = {}
        correct: dict[str, bool] = {}

        # Both solvers at this scale share one engine session (one context),
        # which is what the paper's per-p cluster allocation looks like.
        with APSPEngine(cfg) as engine:
            for solver in ("blocked-im", "blocked-cb"):
                result = engine.solve(adjacency, SolveRequest(
                    solver=solver, block_size=max(8, n // 8)))
                measurements[solver] = result.elapsed_seconds
                correct[solver] = (reference is None
                                   or bool(np.allclose(result.distances, reference)))

        start = time.perf_counter()
        ranks = 4 if n % 2 == 0 else 1
        fw2d = fw2d_mpi_apsp(adjacency, num_ranks=ranks)
        measurements["fw2d-mpi"] = time.perf_counter() - start
        correct["fw2d-mpi"] = reference is None or bool(np.allclose(fw2d, reference))

        start = time.perf_counter()
        dc = dc_apsp(adjacency, base_case=max(16, n // 8))
        measurements["dc-mpi"] = time.perf_counter() - start
        correct["dc-mpi"] = reference is None or bool(np.allclose(dc, reference))

        start = time.perf_counter()
        floyd_warshall_reference(adjacency)
        t_seq = time.perf_counter() - start

        rows.append({
            "p": p,
            "n": n,
            "blocked_im_seconds": measurements["blocked-im"],
            "blocked_cb_seconds": measurements["blocked-cb"],
            "fw2d_mpi_seconds": measurements["fw2d-mpi"],
            "dc_mpi_seconds": measurements["dc-mpi"],
            "sequential_seconds": t_seq,
            "all_correct": all(correct.values()),
        })
    return rows
