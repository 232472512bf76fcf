"""Measure the per-block kernels on the host machine.

The paper's cost narrative is anchored in the throughput of the per-block
kernels: the sequential SciPy Floyd-Warshall achieves 0.762 Gop/s on one core
of the evaluation cluster (Section 5.4, the ``T1`` reference), the rate
:mod:`repro.cluster.costmodel` projects with.  This module times the same two
kernels here, which is Figure 2's measured mode.
"""

from __future__ import annotations

import time

import numpy as np

from repro.common.rng import make_rng
from repro.common.validation import check_positive_int
from repro.linalg.kernels import floyd_warshall_inplace
from repro.linalg.semiring import semiring_relax


def _random_block(b: int, rng) -> np.ndarray:
    block = rng.uniform(1.0, 10.0, size=(b, b))
    np.fill_diagonal(block, 0.0)
    return block


def measure_kernel_times(block_sizes=(64, 96, 128, 192, 256), *, repeats: int = 2,
                         seed: int = 0) -> list[dict]:
    """Measure MatProd+MatMin and FloydWarshall wall-clock times per block size.

    Returns one row per block size with keys ``block_size``, ``minplus_seconds``
    and ``floyd_warshall_seconds``.  This is the measured version of Figure 2.
    """
    rng = make_rng(seed)
    rows: list[dict] = []
    for b in block_sizes:
        check_positive_int(b, "block size")
        a = _random_block(b, rng)
        c = _random_block(b, rng)
        # MatProd + MatMin
        best_mp = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            semiring_relax(a, a, c)
            best_mp = min(best_mp, time.perf_counter() - start)
        # FloydWarshall
        best_fw = float("inf")
        for _ in range(repeats):
            work = a.copy()
            start = time.perf_counter()
            floyd_warshall_inplace(work)
            best_fw = min(best_fw, time.perf_counter() - start)
        rows.append({"block_size": b, "minplus_seconds": best_mp,
                     "floyd_warshall_seconds": best_fw})
    return rows
