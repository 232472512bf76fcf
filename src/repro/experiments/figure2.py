"""Figure 2: sequential kernel time (MatProd+MatMin, FloydWarshall) vs block size.

The paper sweeps block sizes from ~500 to 10,000 and observes O(b^3) growth
with a knee once blocks no longer fit in cache.  The measured mode sweeps
block sizes that fit this machine's time budget; the projected mode evaluates
the paper's kernel rates at the paper's block sizes.
"""

from __future__ import annotations

from repro.cluster.calibration import measure_kernel_times
from repro.cluster.costmodel import FLOYD_WARSHALL_RATE, MINPLUS_RATE

#: Block sizes the paper's Figure 2 spans.
PAPER_BLOCK_SIZES = (1000, 2000, 3000, 4000, 6000, 8000, 10000)

#: Block sizes measured on the host by default (kept small enough to be quick).
DEFAULT_MEASURED_BLOCK_SIZES = (64, 96, 128, 192, 256, 384, 512)


def run_measured(block_sizes=DEFAULT_MEASURED_BLOCK_SIZES, *, repeats: int = 2,
                 seed: int = 0) -> list[dict]:
    """Measure the two kernels on this machine; one row per block size."""
    rows = measure_kernel_times(block_sizes, repeats=repeats, seed=seed)
    for row in rows:
        b = row["block_size"]
        row["minplus_gops"] = (b ** 3) / row["minplus_seconds"] / 1e9
        row["floyd_warshall_gops"] = (b ** 3) / row["floyd_warshall_seconds"] / 1e9
    return rows


def run_projected(block_sizes=PAPER_BLOCK_SIZES) -> list[dict]:
    """Evaluate the paper's kernel rates at the paper's block sizes."""
    return [{"block_size": b,
             "minplus_seconds": float(b) ** 3 / MINPLUS_RATE,
             "floyd_warshall_seconds": float(b) ** 3 / FLOYD_WARSHALL_RATE}
            for b in block_sizes]


def check_cubic_growth(rows: list[dict], *, key: str = "floyd_warshall_seconds",
                       tolerance: float = 1.2) -> bool:
    """Verify the O(b^3) shape: time ratios track (b2/b1)^3 within ``tolerance``.

    Small blocks are dominated by constant overheads, so the check only uses
    the largest two block sizes.
    """
    if len(rows) < 2:
        return True
    rows = sorted(rows, key=lambda r: r["block_size"])
    b1, b2 = rows[-2]["block_size"], rows[-1]["block_size"]
    t1, t2 = rows[-2][key], rows[-1][key]
    if t1 <= 0:
        return True
    expected = (b2 / b1) ** 3
    observed = t2 / t1
    return observed <= expected * tolerance and observed >= expected / (tolerance * 2.0)
