"""Analytic per-solver cost models used to project paper-scale runtimes.

Table 2 of the paper is itself a projection: the authors measure the time of a
single outer iteration at full scale and multiply by the iteration count.
Running at full scale is impossible here, so the projection goes one step
further: per-iteration times are assembled from an explicit breakdown —
per-block kernel throughput (calibrated, see
:class:`~repro.cluster.calibration.KernelCalibration`), data volumes implied
by each algorithm's structure, cluster bandwidths, Spark scheduling overheads,
and the load imbalance induced by the chosen partitioner (computed from the
partitioner's *actual* block distribution, the quantity shown in the bottom
panel of Figure 3).

The constants are documented with the observation that anchors them; the goal
is that the *shape* of the paper's results is reproduced (orderings,
crossovers, infeasibility regions), with absolute numbers in the right
ballpark.  EXPERIMENTS.md records the paper-vs-model numbers side by side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.calibration import KernelCalibration
from repro.cluster.model import ClusterSpec, paper_cluster, GIB
from repro.common.errors import ConfigurationError
from repro.linalg.blocks import BlockGrid, num_blocks
from repro.linalg.semiring import closure_iterations
from repro.spark.partitioner import partitioner_by_name

#: Canonical solver names understood by the cost model.
SOLVER_NAMES = ("repeated-squaring", "fw-2d", "blocked-im", "blocked-cb")

#: Effective per-node shuffle bandwidth (bytes/s).  Although the interconnect
#: is GbE, Spark compresses shuffle blocks (early-iteration distance blocks are
#: dominated by +inf and compress extremely well) and overlaps serialization
#: with transfers, so the effective rate implied by the paper's measured
#: single-iteration times is well above the raw 125 MB/s.
DEFAULT_SHUFFLE_BANDWIDTH = 1 * GIB

#: Driver collect / shared-storage effective bandwidths (bytes/s).
DEFAULT_COLLECT_BANDWIDTH = 1 * GIB
DEFAULT_SHAREDFS_WRITE_BANDWIDTH = 1 * GIB
DEFAULT_SHAREDFS_READ_BANDWIDTH_PER_NODE = 2 * GIB


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
                         storage: str | None = None, orientations: int = 1,
                         witnessed: bool = False) -> float:
    """Estimated seconds to relax a cached ``n x n`` closure through one edge.

    One edge insertion is a rank-1 sweep — one ⊗ and one ⊕ per closure cell,
    the min-plus rate's unit of work — per *orientation* (an undirected edge
    sweeps both directions).  Witness tracking roughly doubles the sweep (the
    parents/succs planes are gathered and rewritten alongside the values);
    narrower element storage scales the bandwidth-bound sweep by its byte
    ratio against the float64 the calibration rates were anchored on.
    """
    seconds = (float(n) * n * max(1, int(orientations))
               / KernelCalibration.paper().minplus_rate)
    if witnessed:
        seconds *= 2.0
    return seconds * element_bytes(algebra, dtype, storage) / 8.0


def full_resolve_seconds(n: int, *, algebra=None, dtype: str | None = None,
                         storage: str | None = None) -> float:
    """Estimated seconds to rebuild the closure from scratch (``n^3`` sweep).

    The alternative a batched update is weighed against: the sequential
    Floyd-Warshall at the calibrated rate, scaled by the same storage byte
    ratio as :func:`rank1_update_seconds` so the comparison stays
    apples-to-apples under packed or narrow-dtype storage.
    """
    seconds = float(n) ** 3 / KernelCalibration.paper().floyd_warshall_rate
    return seconds * element_bytes(algebra, dtype, storage) / 8.0


def update_break_even(n: int, *, algebra=None, dtype: str | None = None,
                      storage: str | None = None, orientations: int = 1,
                      witnessed: bool = False) -> int:
    """Batch size past which a full re-closure beats per-edge rank-1 sweeps.

    ``full_resolve_seconds / rank1_update_seconds`` — roughly ``0.46 n`` for
    an undirected dense float64 shortest-path closure under the paper rates,
    i.e. dynamic maintenance wins until the batch rewrites a sizable
    fraction of the graph's rows.
    """
    per_edge = rank1_update_seconds(n, algebra=algebra, dtype=dtype,
                                    storage=storage, orientations=orientations,
                                    witnessed=witnessed)
    resolve = full_resolve_seconds(n, algebra=algebra, dtype=dtype,
                                   storage=storage)
    if per_edge <= 0.0:
        return 1
    return max(1, int(resolve / per_edge))


def predicted_task_seconds(n: int, block_size: int, *,
                           num_partitions: int | None = None,
                           algebra=None, dtype: str | None = None,
                           storage: str | None = None) -> float:
    """Estimated wall seconds of one stage task (one partition's block kernels).

    The scheduler's *soft* task timeout is this prediction times
    ``EngineConfig.task_timeout_multiplier``: an attempt running far past the
    modelled kernel time is a straggler and worth speculating against.  The
    estimate is deliberately simple — blocks per partition × the calibrated
    per-block min-plus product time, scaled by element width — because it
    only needs to be the right order of magnitude (the scheduler floors the
    derived timeout well above any test-scale task wall).
    """
    q = num_blocks(n, block_size)
    parts = max(1, int(num_partitions) if num_partitions else 1)
    blocks_per_task = max(1.0, float(q) * q / parts)
    per_block = float(block_size) ** 3 / KernelCalibration.paper().minplus_rate
    return blocks_per_task * per_block * element_bytes(algebra, dtype, storage) / 8.0


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


@dataclass
class CostModel:
    """Analytic cost model for the four Spark solvers and the two MPI baselines."""

    cluster: ClusterSpec = field(default_factory=paper_cluster)
    calibration: KernelCalibration = field(default_factory=KernelCalibration.paper)
    shuffle_bandwidth_per_node: float = DEFAULT_SHUFFLE_BANDWIDTH
    collect_bandwidth: float = DEFAULT_COLLECT_BANDWIDTH
    sharedfs_write_bandwidth: float = DEFAULT_SHAREDFS_WRITE_BANDWIDTH
    sharedfs_read_bandwidth_per_node: float = DEFAULT_SHAREDFS_READ_BANDWIDTH_PER_NODE
    #: Per-task driver-side dispatch cost and per-stage fixed cost (scheduling,
    #: synchronization, Python-worker round trips).  Anchored on the 2D
    #: Floyd-Warshall iterations of Table 2, which are nearly pure scheduling
    #: overhead (~17 s per iteration with ~2 stages x 2048 tasks at p = 1024).
    task_dispatch_seconds: float = 1.0e-3
    stage_overhead_seconds: float = 4.0
    #: Straggler slack when there is little over-decomposition: Spark can only
    #: load-balance dynamically if each core has several partitions to work
    #: through, which is why the paper insists on B >= 2 (Section 5.3).  The
    #: compute and shuffle terms are multiplied by ``1 + coefficient / B``.
    straggler_coefficient: float = 0.3
    #: When true, the model charges both orientations of each stored
    #: upper-triangular block as separate kernel invocations (Section 4 notes
    #: that symmetric storage "increases computational costs of processing
    #: tasks").  The paper's measured single-iteration times are consistent
    #: with the transpose update being obtained for free (it is the transpose
    #: of the stored update), so the default is False; Repeated Squaring always
    #: pays both roles because its column products genuinely differ.
    duplicate_transpose_work: bool = False
    #: Memo for partitioner-imbalance factors (they are pure functions of the
    #: partitioner, q and the partition count, and expensive for large q).
    _imbalance_cache: dict = field(default_factory=dict, repr=False)

    # ------------------------------------------------------------------ helpers
    def _nodes_for(self, p: int) -> int:
        return max(1, math.ceil(p / self.cluster.node.cores))

    @staticmethod
    def _block_bytes(b: int, element_size: float = 8.0) -> float:
        return element_size * b * b

    def iteration_count(self, solver: str, n: int, block_size: int) -> int:
        """Outer iterations as counted in Table 2."""
        q = num_blocks(n, block_size)
        if solver == "repeated-squaring":
            return q * max(1, closure_iterations(n))
        if solver == "fw-2d":
            return n
        if solver in ("blocked-im", "blocked-cb"):
            return q
        raise ConfigurationError(f"unknown solver {solver!r}")

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
        if solver not in SOLVER_NAMES:
            raise ConfigurationError(f"unknown solver {solver!r}")
        q = num_blocks(n, block_size)
        b = block_size
        nodes = self._nodes_for(p)
        partitions = max(1, p * partitions_per_core)
        element_size = element_bytes(algebra, dtype, storage)
        block_bytes = self._block_bytes(b, element_size)
        stored_blocks = float(BlockGrid(q, layout).count)
        role_factor = 2.0 if self.duplicate_transpose_work else 1.0
        imbalance = self.imbalance_factor(partitioner, n, block_size, p,
                                          partitions_per_core, layout)
        imbalance *= 1.0 + self.straggler_coefficient / max(1, partitions_per_core)
        iterations = self.iteration_count(solver, n, block_size)

        # The per-core kernel rates were anchored on float64 operands; the
        # block kernels are memory-bandwidth-bound, so narrower elements
        # speed them up by their byte ratio (packed reachability kernels are
        # word-parallel: 64 cells per uint64 op).
        kernel_scale = element_size / 8.0
        mp_rate = self.calibration.minplus_rate / kernel_scale
        fw_rate = self.calibration.floyd_warshall_rate / kernel_scale
        def sched(stages, tasks):
            """Driver scheduling overhead for a stage/task mix."""
            return (stages * self.stage_overhead_seconds
                    + tasks * self.task_dispatch_seconds)

        sequential = 0.0
        compute = 0.0
        shuffle = 0.0
        driver = 0.0
        sharedfs = 0.0
        overhead = 0.0

        if solver == "fw-2d":
            # Rank-1 update of every stored block: b^2 work per block.
            update_ops = stored_blocks * role_factor * float(b) ** 2
            compute = update_ops / mp_rate / p * imbalance
            # The broadcast pivot column is a dense vector even under packed
            # block storage, so it is sized by the element dtype alone.
            column_bytes = max(element_size, 1.0) * n
            driver = column_bytes / self.collect_bandwidth \
                + column_bytes * nodes / self.cluster.spark.broadcast_bandwidth
            overhead = sched(stages=2, tasks=2 * partitions)
        elif solver == "repeated-squaring":
            # One iteration = one column-block sweep: every stored block performs a
            # min-plus product per role (both roles are genuine work here),
            # contributions are shuffled for the MatMin reduction, and the staged
            # column is read from shared storage.
            products = stored_blocks * 2.0
            compute = products * float(b) ** 3 / mp_rate / p * imbalance
            contribution_bytes = products * block_bytes
            shuffle = contribution_bytes / nodes / self.shuffle_bandwidth_per_node
            column_bytes = q * block_bytes
            driver = column_bytes / self.collect_bandwidth
            sharedfs = column_bytes / self.sharedfs_write_bandwidth + \
                contribution_bytes / nodes / self.sharedfs_read_bandwidth_per_node
            overhead = sched(stages=3, tasks=3 * partitions)
        else:
            # Blocked methods share the three-phase structure.
            sequential = float(b) ** 3 / fw_rate                       # phase 1 pivot block
            phase2_products = 2.0 * (q - 1) * role_factor
            phase3_products = max(0.0, stored_blocks - 2 * (q - 1) - 1) * role_factor
            # Granularity: phase 2 rarely has enough tasks to fill p cores.
            phase2_time = math.ceil(phase2_products / p) * float(b) ** 3 / mp_rate
            phase3_time = phase3_products * float(b) ** 3 / mp_rate / p * imbalance
            compute = phase2_time + phase3_time
            if solver == "blocked-im":
                # Phase-2 diagonal copies go to the q-1 row/column blocks; phase-3
                # copies deliver the two operands of every stored off-pivot block.
                phase3_blocks = max(0.0, stored_blocks - 2 * (q - 1) - 1)
                copies_volume = ((q - 1) + 2.0 * phase3_blocks) * block_bytes
                repartition_volume = stored_blocks * block_bytes
                shuffle = (copies_volume + repartition_volume) / nodes \
                    / self.shuffle_bandwidth_per_node * imbalance
                overhead = sched(stages=4, tasks=4 * partitions)
            else:  # blocked-cb
                collected = (2.0 * (q - 1) + 1.0) * block_bytes
                driver = collected / self.collect_bandwidth
                reads = 2.0 * stored_blocks * block_bytes
                sharedfs = collected / self.sharedfs_write_bandwidth + \
                    reads / nodes / self.sharedfs_read_bandwidth_per_node
                restage = stored_blocks * block_bytes / nodes \
                    / self.cluster.node.local_storage_bandwidth
                shuffle = restage
                overhead = sched(stages=3, tasks=3 * partitions)

        return IterationEstimate(
            solver=solver, block_size=block_size, iterations=iterations,
            compute_seconds=compute, sequential_seconds=sequential,
            shuffle_seconds=shuffle, driver_seconds=driver,
            sharedfs_seconds=sharedfs, overhead_seconds=overhead,
            imbalance_factor=imbalance,
        )

    def spill_per_node_bytes(self, solver: str, n: int, block_size: int, p: int, *,
                             algebra=None, dtype: str | None = None,
                             storage: str | None = None,
                             layout: str = "triangular") -> float:
        """Cumulative local-storage spill per node over the whole run (Blocked-IM only)."""
        if solver != "blocked-im":
            return 0.0
        q = num_blocks(n, block_size)
        block_bytes = self._block_bytes(block_size,
                                        element_bytes(algebra, dtype, storage))
        stored_blocks = float(BlockGrid(q, layout).count)
        phase3_blocks = max(0.0, stored_blocks - 2 * (q - 1) - 1)
        per_iter = ((q - 1) + 2.0 * phase3_blocks + stored_blocks) * block_bytes
        return per_iter * q / self._nodes_for(p)

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
        if solver == "blocked-im":
            spill = self.spill_per_node_bytes(solver, n, block_size, p,
                                              algebra=algebra, dtype=dtype,
                                              storage=storage, layout=layout)
            capacity = self.cluster.node.local_storage_bytes
            if spill > capacity:
                feasible = False
                reason = (f"local storage exhausted: {spill / GIB:.0f} GiB spilled per node "
                          f"> {capacity / GIB:.0f} GiB available")
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
        return self.calibration.sequential_apsp_seconds(n)

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
        net = self.cluster.network
        element_size = element_bytes(algebra, dtype, storage)
        bcast = (g - 1) * (net.latency
                           + element_size * local / net.bandwidth_per_node)
        update = local * local / self.calibration.floyd_warshall_rate
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
        net = self.cluster.network
        element_size = element_bytes(algebra, dtype, storage)
        compute = float(n) ** 3 / p / self.calibration.dc_optimized_rate
        bandwidth_term = (element_size * float(n) ** 2 / math.sqrt(p)
                          / net.bandwidth_per_node)
        latency_term = math.sqrt(p) * (math.log2(max(2, p)) ** 2) * net.latency
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
