"""Kernel-rate calibration for the cost model.

The paper's cost narrative is anchored in the throughput of the per-block
kernels: the sequential SciPy Floyd-Warshall achieves 0.762 Gop/s on one core
of the evaluation cluster (Section 5.4, the ``T1`` reference), and the blocked
solvers reach roughly 60-80 % of that per core at scale.  The calibration can
either *measure* the equivalent rates on the host machine (used for
"measured" projections and Figure 2) or use the paper's reported numbers
(used to reproduce the paper's tables at their scale).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

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


@dataclass(frozen=True)
class KernelCalibration:
    """Effective per-core kernel throughputs in operations per second.

    ``b^3`` operations are assumed per ``b x b`` block kernel invocation, so a
    rate ``r`` predicts ``t(b) = b^3 / r``.
    """

    floyd_warshall_rate: float
    minplus_rate: float
    dc_optimized_rate: float = 1.7e9
    source: str = "paper"

    @classmethod
    def paper(cls) -> "KernelCalibration":
        """Rates matching the paper's hardware.

        The sequential reference gives 0.762 Gop/s (T1 = 0.022 s at n = 256);
        the min-plus kernel is assumed comparable.  The optimized DC solver's
        effective rate (~1.7 Gop/s/core) is back-computed from its reported
        2 h 52 m at n = 262,144 on 1,024 cores.
        """
        return cls(floyd_warshall_rate=0.762e9, minplus_rate=0.70e9,
                   dc_optimized_rate=1.7e9, source="paper")

    @classmethod
    def measure(cls, block_sizes=(96, 128, 192), *, repeats: int = 2,
                seed: int = 0) -> "KernelCalibration":
        """Fit rates from measurements on the host machine (cubic model)."""
        rows = measure_kernel_times(block_sizes, repeats=repeats, seed=seed)
        fw = np.array([r["floyd_warshall_seconds"] for r in rows])
        mp = np.array([r["minplus_seconds"] for r in rows])
        ops = np.array([float(r["block_size"]) ** 3 for r in rows])
        fw_rate = float(np.median(ops / np.maximum(fw, 1e-9)))
        mp_rate = float(np.median(ops / np.maximum(mp, 1e-9)))
        return cls(floyd_warshall_rate=fw_rate, minplus_rate=mp_rate,
                   dc_optimized_rate=max(fw_rate, mp_rate) * 2.0, source="measured")

    def floyd_warshall_seconds(self, b: int) -> float:
        """Predicted sequential Floyd-Warshall time for a ``b x b`` block."""
        return float(b) ** 3 / self.floyd_warshall_rate

    def minplus_seconds(self, b: int) -> float:
        """Predicted MatProd+MatMin time for ``b x b`` operands."""
        return float(b) ** 3 / self.minplus_rate

    def sequential_apsp_seconds(self, n: int) -> float:
        """Predicted single-core Floyd-Warshall time for an ``n x n`` problem (T1)."""
        return float(n) ** 3 / self.floyd_warshall_rate
