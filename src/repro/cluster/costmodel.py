"""Analytic per-solver cost models used to project paper-scale runtimes.

Table 2 of the paper is itself a projection: the authors measure the time of a
single outer iteration at full scale and multiply by the iteration count.
Running at full scale is impossible here, so the projection goes one step
further: per-iteration times are assembled from an explicit breakdown —
per-block kernel throughput, data volumes implied by each algorithm's
structure, cluster bandwidths, Spark scheduling overheads, and the load
imbalance induced by the chosen partitioner (computed from the partitioner's
*actual* block distribution, the quantity shown in the bottom panel of
Figure 3).

The paper's machine is the one block of constants below, each documented with
the observation that anchors it; nothing else in the program writes a paper
rate.  The goal is that the *shape* of the paper's results is reproduced
(orderings, crossovers, infeasibility regions), with absolute numbers in the
right ballpark.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.linalg.blocks import BlockGrid, num_blocks
from repro.spark.partitioner import partitioner_by_name

GIB = 1024 ** 3
MIB = 1024 ** 2

# ---------------------------------------------------------------------------
# The paper's machine (Section 5).  ``b^3`` operations are counted per
# ``b x b`` block kernel, so a rate ``r`` (op/s per core) predicts ``b^3 / r``.

#: 32 nodes of two 16-core Skylake processors: 1,024 cores.
NUM_NODES = 32
NODE_CORES = 32
#: 1 TB of local SSD per node, used by Spark for shuffle staging.
LOCAL_STORAGE_BYTES = 1024 * GIB
#: Effective sequential SSD bandwidth for shuffle restaging (writes are
#: absorbed by the page cache and overlap with compute, so the effective
#: figure exceeds the raw device write rate).
LOCAL_STORAGE_BANDWIDTH = 1024 * MIB
#: GbE interconnect: 1 Gbit/s ≈ 125 MB/s per node (bytes/s), and the
#: per-message latency of MPI over TCP/GbE (seconds).
NETWORK_BANDWIDTH = 125 * MIB
NETWORK_LATENCY = 2.5e-4
#: Spark's driver -> executors broadcast channel (bytes/s).
BROADCAST_BANDWIDTH = 125 * MIB
#: Effective per-node shuffle bandwidth (bytes/s).  Although the interconnect
#: is GbE, Spark compresses shuffle blocks (early-iteration distance blocks are
#: dominated by +inf and compress extremely well) and overlaps serialization
#: with transfers, so the effective rate implied by the paper's measured
#: single-iteration times is well above the raw 125 MB/s.
SHUFFLE_BANDWIDTH = 1 * GIB
#: Driver collect and shared GPFS effective bandwidths (bytes/s); the impure
#: solvers stage their broadcasts through the shared file system.
COLLECT_BANDWIDTH = 1 * GIB
SHAREDFS_WRITE_BANDWIDTH = 1 * GIB
SHAREDFS_READ_BANDWIDTH_PER_NODE = 2 * GIB
#: Sequential SciPy Floyd-Warshall on one core: 0.762 Gop/s, the T1 = 0.022 s
#: at n = 256 reference of Section 5.4.
FLOYD_WARSHALL_RATE = 0.762e9
#: MatProd + MatMin per core, assumed comparable to the sequential reference.
MINPLUS_RATE = 0.70e9
#: The optimized DC solver's effective rate per core, back-computed from its
#: reported 2 h 52 m at n = 262,144 on 1,024 cores.
DC_OPTIMIZED_RATE = 1.7e9
#: Per-task driver-side dispatch cost and per-stage fixed cost (scheduling,
#: synchronization, Python-worker round trips).  Anchored on the 2D
#: Floyd-Warshall iterations of Table 2, which are nearly pure scheduling
#: overhead: ~16-21 s per iteration at p = 1024, B = 2, essentially
#: independent of the block size (~17 s with ~2 stages x 2048 tasks).
TASK_DISPATCH_SECONDS = 1.0e-3
STAGE_OVERHEAD_SECONDS = 4.0
#: Straggler slack when there is little over-decomposition: Spark can only
#: load-balance dynamically if each core has several partitions to work
#: through, which is why the paper insists on B >= 2 (Section 5.3).  The
#: compute and shuffle terms are multiplied by ``1 + coefficient / B``.
STRAGGLER_COEFFICIENT = 0.3


def element_bytes(algebra=None, dtype: str | None = None,
                  storage: str | None = None) -> float:
    """Bytes per matrix element implied by an (algebra, dtype, storage) triple.

    The data-volume terms of the cost model historically hardcoded 8 bytes —
    a float64 assumption.  A float32 solve moves half that, a boolean
    ``reachability`` solve one byte per cell, and a *packed-bitset*
    reachability solve one **bit** per cell (0.125 bytes).  ``storage=None``
    or ``"auto"`` resolves to the algebra's default storage, matching what a
    :class:`~repro.core.request.SolveRequest` would actually run.
    """
    from repro.linalg.algebra import get_algebra
    resolved = get_algebra(algebra)
    # resolve_storage validates the policy against the algebra (typos and
    # unsupported combinations like packed shortest-path raise, exactly as a
    # SolveRequest would, instead of silently mis-sizing the model 64x).
    if resolved.resolve_storage(storage) == "packed":
        return 1.0 / 8.0
    return float(resolved.resolve_dtype(dtype).itemsize)


def rank1_update_seconds(n: int, *, algebra=None, dtype: str | None = None,
                         storage: str | None = None, orientations: int = 1) -> float:
    """Estimated seconds to relax a cached ``n x n`` closure through one edge.

    One edge insertion is a rank-1 sweep — one ⊗ and one ⊕ per closure cell,
    the min-plus rate's unit of work — per *orientation* (an undirected edge
    sweeps both directions).  Narrower element storage scales the
    bandwidth-bound sweep by its byte ratio against the float64 the paper
    rates were anchored on.  A closure with parents pays no more here: the
    rows a batch changed are derived once, after it.
    """
    seconds = float(n) * n * max(1, int(orientations)) / MINPLUS_RATE
    return seconds * element_bytes(algebra, dtype, storage) / 8.0


def full_resolve_seconds(n: int, *, algebra=None, dtype: str | None = None,
                         storage: str | None = None) -> float:
    """Estimated seconds to rebuild the closure from scratch (``n^3`` sweep).

    The alternative a batched update is weighed against: the sequential
    Floyd-Warshall at the paper's rate, scaled by the same storage byte
    ratio as :func:`rank1_update_seconds` so the comparison stays
    apples-to-apples under packed or narrow-dtype storage.
    """
    seconds = float(n) ** 3 / FLOYD_WARSHALL_RATE
    return seconds * element_bytes(algebra, dtype, storage) / 8.0


def update_break_even(n: int, *, algebra=None, dtype: str | None = None,
                      storage: str | None = None, orientations: int = 1) -> int:
    """Batch size past which a full re-closure beats per-edge rank-1 sweeps.

    ``full_resolve_seconds / rank1_update_seconds`` — roughly ``0.46 n`` for
    an undirected dense float64 shortest-path closure under the paper rates,
    i.e. dynamic maintenance wins until the batch rewrites a sizable
    fraction of the graph's rows.
    """
    per_edge = rank1_update_seconds(n, algebra=algebra, dtype=dtype,
                                    storage=storage, orientations=orientations)
    resolve = full_resolve_seconds(n, algebra=algebra, dtype=dtype,
                                   storage=storage)
    if per_edge <= 0.0:
        return 1
    return max(1, int(resolve / per_edge))


@dataclass
class IterationEstimate:
    """Breakdown of one outer iteration of a solver."""

    solver: str
    block_size: int
    iterations: int
    compute_seconds: float
    sequential_seconds: float
    shuffle_seconds: float
    driver_seconds: float
    sharedfs_seconds: float
    overhead_seconds: float
    imbalance_factor: float

    @property
    def single_iteration_seconds(self) -> float:
        """Sum of all per-iteration cost terms."""
        return (self.compute_seconds + self.sequential_seconds + self.shuffle_seconds
                + self.driver_seconds + self.sharedfs_seconds + self.overhead_seconds)

    @property
    def projected_total_seconds(self) -> float:
        """Single-iteration time scaled by the iteration count."""
        return self.single_iteration_seconds * self.iterations


@dataclass
class ProjectionResult:
    """Full projection for one (solver, n, b, p, partitioner, B) configuration."""

    solver: str
    n: int
    block_size: int
    p: int
    partitioner: str
    partitions_per_core: int
    iteration: IterationEstimate
    feasible: bool
    infeasibility_reason: str | None = None
    layout: str = "triangular"

    @property
    def iterations(self) -> int:
        """Outer-iteration count of the projected run."""
        return self.iteration.iterations

    @property
    def single_iteration_seconds(self) -> float:
        """Projected seconds for one outer iteration."""
        return self.iteration.single_iteration_seconds

    @property
    def projected_total_seconds(self) -> float:
        """Projected end-to-end runtime in seconds."""
        return self.iteration.projected_total_seconds

    @property
    def gops_per_core(self) -> float:
        """``n^3 / (T * p)`` in Gop/s per core — the metric of Figure 5."""
        if not self.feasible or self.projected_total_seconds <= 0:
            return 0.0
        return float(self.n) ** 3 / self.projected_total_seconds / self.p / 1e9


class CostModel:
    """Analytic cost model for the Spark solvers and the two MPI baselines.

    A Spark solver's work and bytes are its registered
    :class:`~repro.core.registry.SolverShape`; every term is priced from the
    module's paper-machine constants.
    """

    def __init__(self) -> None:
        #: Memo for partitioner-imbalance factors (they are pure functions of
        #: the partitioner, q and the partition count, and expensive for
        #: large q).
        self._imbalance_cache: dict = {}

    # ------------------------------------------------------------------ helpers
    def _nodes_for(self, p: int) -> int:
        return max(1, math.ceil(p / NODE_CORES))

    def imbalance_factor(self, partitioner_name: str, n: int, block_size: int,
                         p: int, partitions_per_core: int,
                         layout: str = "triangular") -> float:
        """Load-imbalance multiplier implied by the partitioner's block histogram.

        The real distribution of upper-triangular block keys over partitions is
        computed exactly (the quantity shown in the bottom panel of Figure 3);
        partitions are then packed onto the ``p`` cores greedily, largest
        first, which models Spark's dynamic task scheduling.  The factor is
        the heaviest core's load relative to the mean.  With B = 1 there is
        exactly one partition per core and no scheduling freedom, so the skew
        of the Portable Hash partitioner hits with full force — the behaviour
        the paper highlights (Section 5.3).
        """
        q = num_blocks(n, block_size)
        partitions = max(1, p * partitions_per_core)
        cache_key = (partitioner_name.upper(), q, partitions, p, layout)
        if cache_key in self._imbalance_cache:
            return self._imbalance_cache[cache_key]
        partitioner = partitioner_by_name(partitioner_name, partitions, q)
        counts = partitioner.distribution(BlockGrid(q, layout).keys())
        total = counts.sum()
        if total == 0:
            return 1.0
        # Greedy longest-processing-time packing of partitions onto cores.
        cores = np.zeros(min(p, int(total)) or 1, dtype=np.int64)
        for load in sorted(counts.tolist(), reverse=True):
            if load == 0:
                break
            cores[np.argmin(cores)] += load
        mean = total / cores.shape[0]
        factor = float(max(1.0, cores.max() / max(mean, 1e-12)))
        self._imbalance_cache[cache_key] = factor
        return factor

    # ------------------------------------------------------------------ Spark solvers
    def estimate_iteration(self, solver: str, n: int, block_size: int, p: int, *,
                           partitioner: str = "MD",
                           partitions_per_core: int = 2,
                           algebra=None, dtype: str | None = None,
                           storage: str | None = None,
                           layout: str = "triangular") -> IterationEstimate:
        """Estimate one outer iteration of a Spark solver at cluster scale.

        ``algebra``/``dtype``/``storage`` size both the data-volume and the
        kernel terms: the defaults keep the historical float64
        (8 bytes/element) projection bit-for-bit, ``dtype="float32"`` halves
        every transfer *and* the (memory-bandwidth-bound) block kernels, and
        a packed-bitset reachability solve moves 1/64th of the float64
        volume while its word-parallel kernels run at the packed element
        width.  ``layout`` prices the block grid: the full (directed) grid
        stores — and therefore computes, shuffles and spills — roughly twice
        the blocks of the mirrored upper triangle at the same ``b``.
        """
        from repro.core.registry import solver_shape  # repro.core imports us
        element_size = element_bytes(algebra, dtype, storage)
        shape = solver_shape(solver, n, block_size, layout, element_size)
        nodes = self._nodes_for(p)
        partitions = max(1, p * partitions_per_core)
        imbalance = self.imbalance_factor(partitioner, n, block_size, p,
                                          partitions_per_core, layout)
        imbalance *= 1.0 + STRAGGLER_COEFFICIENT / max(1, partitions_per_core)

        # The per-core kernel rates were anchored on float64 operands; the
        # block kernels are memory-bandwidth-bound, so narrower elements
        # speed them up by their byte ratio (packed reachability kernels are
        # word-parallel: 64 cells per uint64 op).
        kernel_scale = element_size / 8.0
        mp_rate = MINPLUS_RATE / kernel_scale
        fw_rate = FLOYD_WARSHALL_RATE / kernel_scale
        kernel = float(block_size) ** 3
        # Granularity: the pivot-only products rarely have enough tasks to
        # fill p cores; the bulk waits on the most loaded core.
        panel = math.ceil(shape.panel_ops / kernel / p) * kernel / mp_rate
        bulk = shape.bulk_ops / mp_rate / p * imbalance
        # Grid-keyed shuffles follow the partitioner's skew; the reduce into
        # one block column and the local restage do not.
        shuffle = shape.shuffle / nodes / SHUFFLE_BANDWIDTH * imbalance \
            + shape.reduce / nodes / SHUFFLE_BANDWIDTH \
            + shape.restage / nodes / LOCAL_STORAGE_BANDWIDTH
        driver = shape.collect / COLLECT_BANDWIDTH \
            + shape.broadcast * nodes / BROADCAST_BANDWIDTH
        sharedfs = shape.sharedfs_write / SHAREDFS_WRITE_BANDWIDTH \
            + shape.sharedfs_read / nodes / SHAREDFS_READ_BANDWIDTH_PER_NODE
        stages = shape.paper_stages
        overhead = stages * STAGE_OVERHEAD_SECONDS \
            + stages * partitions * TASK_DISPATCH_SECONDS

        return IterationEstimate(
            solver=solver, block_size=block_size, iterations=shape.iterations,
            compute_seconds=panel + bulk,
            sequential_seconds=shape.pivot_ops / fw_rate,
            shuffle_seconds=shuffle, driver_seconds=driver,
            sharedfs_seconds=sharedfs, overhead_seconds=overhead,
            imbalance_factor=imbalance,
        )

    def spill_per_node_bytes(self, solver: str, n: int, block_size: int, p: int, *,
                             algebra=None, dtype: str | None = None,
                             storage: str | None = None,
                             layout: str = "triangular") -> float:
        """Cumulative local-storage spill per node over the whole run.

        Every iteration's grid-keyed shuffle leaves its files in local
        storage (Blocked-IM's failure mode at small blocks, Section 5.2).
        """
        from repro.core.registry import solver_shape  # repro.core imports us
        shape = solver_shape(solver, n, block_size, layout,
                             element_bytes(algebra, dtype, storage))
        return shape.shuffle * shape.iterations / self._nodes_for(p)

    def project(self, solver: str, n: int, block_size: int, p: int, *,
                partitioner: str = "MD", partitions_per_core: int = 2,
                algebra=None, dtype: str | None = None,
                storage: str | None = None,
                layout: str = "triangular") -> ProjectionResult:
        """Project the full runtime of a Spark solver configuration."""
        iteration = self.estimate_iteration(solver, n, block_size, p,
                                            partitioner=partitioner,
                                            partitions_per_core=partitions_per_core,
                                            algebra=algebra, dtype=dtype,
                                            storage=storage, layout=layout)
        feasible = True
        reason = None
        spill = self.spill_per_node_bytes(solver, n, block_size, p,
                                          algebra=algebra, dtype=dtype,
                                          storage=storage, layout=layout)
        if spill > LOCAL_STORAGE_BYTES:
            feasible = False
            reason = (f"local storage exhausted: {spill / GIB:.0f} GiB spilled per node "
                      f"> {LOCAL_STORAGE_BYTES / GIB:.0f} GiB available")
        return ProjectionResult(
            solver=solver, n=n, block_size=block_size, p=p, partitioner=partitioner,
            partitions_per_core=partitions_per_core, iteration=iteration,
            feasible=feasible, infeasibility_reason=reason, layout=layout,
        )

    def best_block_size(self, solver: str, n: int, p: int, *,
                        candidates=(256, 512, 768, 1024, 1280, 1536, 2048, 2560, 4096),
                        partitioner: str = "MD",
                        partitions_per_core: int = 2,
                        algebra=None, dtype: str | None = None,
                        storage: str | None = None,
                        layout: str = "triangular") -> ProjectionResult:
        """Pick the feasible block size with the smallest projected total (Table 3 tuning).

        Every per-candidate estimate is priced under the *requested*
        ``storage``/``layout`` policy — a packed-bitset or full-grid sweep
        compares candidates on its own spill walls and kernel rates instead
        of the dense-triangular ones (which used to hide, e.g., that a
        packed Blocked-IM stays feasible at block sizes whose dense twin
        has already hit the local-storage wall).
        """
        best: ProjectionResult | None = None
        for b in candidates:
            if b > n:
                continue
            result = self.project(solver, n, b, p, partitioner=partitioner,
                                  partitions_per_core=partitions_per_core,
                                  algebra=algebra, dtype=dtype, storage=storage,
                                  layout=layout)
            if not result.feasible:
                continue
            if best is None or result.projected_total_seconds < best.projected_total_seconds:
                best = result
        if best is None:
            # Return the least-bad infeasible configuration so callers can report it.
            return self.project(solver, n, min(max(candidates), n), p,
                                partitioner=partitioner,
                                partitions_per_core=partitions_per_core,
                                algebra=algebra, dtype=dtype, storage=storage,
                                layout=layout)
        return best

    # ------------------------------------------------------------------ baselines
    def sequential_seconds(self, n: int) -> float:
        """T1: single-core SciPy Floyd-Warshall."""
        return float(n) ** 3 / FLOYD_WARSHALL_RATE

    def mpi_fw2d_seconds(self, n: int, p: int, *,
                         algebra=None, dtype: str | None = None,
                         storage: str | None = None) -> float:
        """FW-2D-GbE: n iterations of (2 grid broadcasts + rank-1 update of the local block).

        The broadcast follows the straightforward implementation the paper
        describes as "naive": the segment owner sends to each of the ``g - 1``
        peers in its grid row/column point-to-point, so the latency term grows
        linearly in the grid dimension — the behaviour the paper blames for
        the solver's poor scaling (Section 5.5).  Like the Spark-solver
        estimates, the broadcast volume is sized by
        :func:`element_bytes` — the defaults keep the historical 8-byte
        float64 projection; narrower dtypes shrink the bandwidth term
        proportionally (latency and compute are element-size independent).
        """
        g = max(1, int(round(math.sqrt(p))))
        local = n / g
        element_size = element_bytes(algebra, dtype, storage)
        bcast = (g - 1) * (NETWORK_LATENCY
                           + element_size * local / NETWORK_BANDWIDTH)
        update = local * local / FLOYD_WARSHALL_RATE
        return n * (2.0 * bcast + update)

    def mpi_dc_seconds(self, n: int, p: int, *,
                       algebra=None, dtype: str | None = None,
                       storage: str | None = None) -> float:
        """DC-GbE: communication-avoiding divide & conquer (Solomonik et al.).

        Compute is ``~n^3 / p`` at the optimized kernel rate; communication is
        the 2D lower bound ``O(n^2 / sqrt(p))`` words plus ``O(sqrt(p) log^2 p)``
        messages.  The bandwidth term is sized by :func:`element_bytes`
        (historically a hardcoded 8 bytes/word); latency and compute are
        element-size independent.
        """
        element_size = element_bytes(algebra, dtype, storage)
        compute = float(n) ** 3 / p / DC_OPTIMIZED_RATE
        bandwidth_term = (element_size * float(n) ** 2 / math.sqrt(p)
                          / NETWORK_BANDWIDTH)
        latency_term = math.sqrt(p) * (math.log2(max(2, p)) ** 2) * NETWORK_LATENCY
        return compute + bandwidth_term + latency_term

    # ------------------------------------------------------------------ experiment-level helpers
    def weak_scaling(self, *, vertices_per_core: int = 256,
                     core_counts=(64, 128, 256, 512, 1024),
                     partitioner: str = "MD",
                     partitions_per_core: int = 2) -> list[dict]:
        """Reproduce Table 3 / Figure 5: weak scaling with ``n = vertices_per_core * p``."""
        rows: list[dict] = []
        for p in core_counts:
            n = vertices_per_core * p
            im = self.best_block_size("blocked-im", n, p, partitioner=partitioner,
                                      partitions_per_core=partitions_per_core)
            cb = self.best_block_size("blocked-cb", n, p, partitioner=partitioner,
                                      partitions_per_core=partitions_per_core)
            row = {
                "p": p,
                "n": n,
                "blocked-im": im,
                "blocked-cb": cb,
                "fw-2d-mpi_seconds": self.mpi_fw2d_seconds(n, p),
                "dc-mpi_seconds": self.mpi_dc_seconds(n, p),
                "sequential_reference_seconds": self.sequential_seconds(vertices_per_core),
            }
            rows.append(row)
        return rows

    def gops_per_core(self, n: int, p: int, seconds: float) -> float:
        """Normalized throughput ``n^3 / (T p)`` in Gop/s, as plotted in Figure 5."""
        if seconds <= 0:
            return 0.0
        return float(n) ** 3 / seconds / p / 1e9
