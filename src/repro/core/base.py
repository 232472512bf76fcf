"""Common machinery shared by the four Spark APSP solvers."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.common.config import EngineConfig, default_config
from repro.common.errors import ConfigurationError, SolverError
from repro.common.timing import Stopwatch
from repro.cluster.costmodel import predicted_task_seconds
from repro.graph import sparse as sparse_mod
from repro.graph.adjacency import is_symmetric_adjacency, validate_adjacency
from repro.linalg import witness as witness_mod
from repro.linalg.algebra import ABSORPTIVE_ALGEBRAS, Semiring, get_algebra
from repro.linalg.blocks import (BlockGrid, blocks_to_matrix, matrix_to_blocks,
                                 num_blocks)
from repro.spark.context import SparkContext
from repro.spark.metrics import metrics_delta
from repro.spark.partitioner import Partitioner, partitioner_by_name
from repro.spark.rdd import RDD


@dataclass
class SolverOptions:
    """User-facing solver knobs (Section 5.2/5.3 tuning parameters).

    Parameters
    ----------
    block_size:
        The decomposition parameter ``b``; ``None`` selects it automatically
        with :func:`auto_block_size`.
    partitioner:
        ``"MD"`` (the paper's multi-diagonal partitioner), ``"PH"``
        (pySpark's default portable hash) or ``"GRID"``.
    partitions_per_core:
        The over-decomposition factor ``B``; the paper recommends 2-4 and uses
        2 in most experiments.
    num_partitions:
        Explicit partition count override (takes precedence over ``B``).
    algebra:
        Path algebra (semiring) the solve closes the matrix under; name or
        alias resolved against :mod:`repro.linalg.algebra`.
    dtype:
        Element dtype for the solve (``None`` = the algebra's default).
    storage:
        Block storage layout: ``"dense"`` (plain ndarray blocks),
        ``"packed"`` (uint64 packed-bitset blocks, boolean algebras only), or
        ``None``/``"auto"`` for the algebra's default (packed for
        ``reachability``).
    layout:
        Block *grid* layout: ``"triangular"`` (upper block triangle with
        mirror-transpose lookups — symmetric inputs only), ``"full"`` (all
        q² blocks, required for directed inputs), or ``None``/``"auto"``
        to pick from the input's symmetry at ``prepare`` time.
    directed:
        Treat the input as a directed graph: skips the symmetry check
        during adjacency validation and forces the full grid layout.
    paths:
        When true every block carries witness (parent-pointer) planes
        through the whole solve and the result exposes a predecessor matrix
        plus :meth:`APSPResult.reconstruct_path` — at roughly double the
        data traffic.  Requires an algebra with a witness policy and dense
        block storage.
    validate:
        When true the result is sanity-checked (identity diagonal, symmetry,
        closure stability on a sample).
    """

    block_size: int | None = None
    partitioner: str = "MD"
    partitions_per_core: int = 2
    num_partitions: int | None = None
    algebra: str = "shortest-path"
    dtype: str | None = None
    storage: str | None = None
    layout: str | None = None
    directed: bool = False
    paths: bool = False
    validate: bool = False


@dataclass
class APSPResult:
    """Result of an APSP solve: the distance matrix plus execution metadata.

    Under ``paths=True`` the result additionally carries :attr:`parents`,
    the full ``n x n`` predecessor matrix (``parents[i, j]`` is the global
    predecessor of ``j`` on an optimal ``i -> j`` path, ``-1`` for
    unreachable pairs and the diagonal), walkable via
    :meth:`reconstruct_path`.
    """

    distances: np.ndarray
    solver: str
    n: int
    block_size: int
    q: int
    iterations: int
    num_partitions: int
    partitioner: str
    pure: bool
    elapsed_seconds: float
    algebra: str = "shortest-path"
    dtype: str = "float64"
    storage: str = "dense"
    layout: str = "triangular"
    directed: bool = False
    parents: np.ndarray | None = None
    phase_seconds: dict[str, float] = field(default_factory=dict)
    metrics: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Preserve the solve dtype (float32 results stay float32, boolean
        # closures stay bool); only non-native dtypes are normalized.
        arr = np.asarray(self.distances)
        if arr.dtype.kind not in ("f", "b"):
            arr = np.asarray(arr, dtype=np.float64)
        self.distances = arr
        if self.parents is not None:
            self.parents = np.asarray(self.parents, dtype=np.int32)

    @property
    def has_paths(self) -> bool:
        """True when this result carries a predecessor matrix."""
        return self.parents is not None

    def reconstruct_path(self, src: int, dst: int) -> list[int]:
        """Walk the predecessor matrix into the vertex list ``[src, ..., dst]``.

        Only available for ``paths=True`` solves; raises
        :class:`~repro.common.errors.SolverError` when the result has no
        parent matrix or no path exists between the endpoints.
        """
        if self.parents is None:
            raise SolverError(
                "this result has no predecessor matrix; solve with "
                "SolveRequest(paths=True) to enable path reconstruction")
        return witness_mod.reconstruct_path(self.parents, src, dst)

    @property
    def gops(self) -> float:
        """Throughput proxy used in the paper's weak-scaling study: ``n^3 / T`` in Gop/s."""
        if self.elapsed_seconds <= 0:
            return float("inf")
        return (float(self.n) ** 3) / self.elapsed_seconds / 1e9

    def summary(self) -> str:
        """One-line human-readable summary."""
        algebra_bit = ""
        if self.algebra != "shortest-path" or self.dtype != "float64":
            algebra_bit = f" {self.algebra}[{self.dtype}]"
        if self.storage != "dense":
            algebra_bit += f" {self.storage}"
        if self.layout != "triangular":
            algebra_bit += f" {self.layout}-grid"
        if self.directed:
            algebra_bit += " directed"
        if self.has_paths:
            algebra_bit += " +paths"
        return (f"{self.solver}: n={self.n} b={self.block_size} q={self.q} "
                f"iters={self.iterations} partitions={self.num_partitions} "
                f"({self.partitioner}){algebra_bit} time={self.elapsed_seconds:.3f}s "
                f"{'pure' if self.pure else 'impure'}")


@dataclass(frozen=True)
class SolvePlan:
    """Resolved geometry of one solve, inspectable before anything runs.

    Produced by :meth:`SparkAPSPSolver.prepare`: the adjacency matrix has been
    validated, the block size / block-grid side / partition count resolved, and
    the partitioner instantiated.  Feeding the plan to
    :meth:`SparkAPSPSolver.execute` (optionally with a shared
    :class:`~repro.spark.context.SparkContext`) performs the actual solve.
    """

    solver: str
    pure: bool
    #: Validated input: a prepared dense ndarray, or a canonical CSR matrix
    #: when the caller handed in a SciPy sparse adjacency (kept sparse so the
    #: block cutter never materializes an ``n x n`` array).
    adjacency: Any
    n: int
    block_size: int
    q: int
    num_partitions: int
    partitioner_name: str
    partitioner: Partitioner
    algebra: str = "shortest-path"
    dtype: str = "float64"
    storage: str = "dense"
    layout: str = "triangular"
    directed: bool = False
    paths: bool = False

    @property
    def sparse_input(self) -> bool:
        """True when the plan carries a CSR adjacency (sparse ingestion path)."""
        return sparse_mod.is_sparse(self.adjacency)

    @property
    def grid(self) -> BlockGrid:
        """The block grid of the solve: which keys are stored, how mirrors are read."""
        return BlockGrid(self.q, self.layout)

    @property
    def num_blocks_stored(self) -> int:
        """Block records the plan's grid stores."""
        return self.grid.count

    def block_records(self):
        """Cut the plan's adjacency into ``((I, J), block)`` records.

        Dense inputs go through
        :func:`~repro.linalg.blocks.matrix_to_blocks`; CSR inputs are sliced
        straight from the sparse buffers
        (:func:`~repro.graph.sparse.sparse_to_blocks`), so block construction
        allocates O(nnz + b²), never a dense ``n x n`` array.  Either path
        emits packed-bitset blocks under the ``"packed"`` storage policy and
        witnessed blocks (value + parent planes, global ids stamped) under
        ``paths=True``.  One record per key the plan's :attr:`grid` stores.
        """
        if self.sparse_input:
            return sparse_mod.sparse_to_blocks(
                self.adjacency, self.block_size, algebra=self.algebra,
                dtype=self.dtype, storage=self.storage, layout=self.layout,
                witness=self.paths)
        return matrix_to_blocks(self.adjacency, self.block_size,
                                layout=self.layout, storage=self.storage,
                                witness=self.paths, algebra=self.algebra)

    def describe(self) -> dict:
        """Geometry summary as a plain dict (for logs, the CLI, and tests)."""
        return {
            "solver": self.solver,
            "pure": self.pure,
            "n": self.n,
            "block_size": self.block_size,
            "q": self.q,
            "num_blocks_upper": self.q * (self.q + 1) // 2,
            "num_blocks_stored": self.num_blocks_stored,
            "num_partitions": self.num_partitions,
            "partitioner": self.partitioner_name,
            "algebra": self.algebra,
            "dtype": self.dtype,
            "storage": self.storage,
            "layout": self.layout,
            "directed": self.directed,
            "paths": self.paths,
            "sparse_input": self.sparse_input,
        }


def auto_block_size(n: int, total_cores: int, partitions_per_core: int = 2,
                    *, layout: str = "triangular") -> int:
    """Pick a block size so that the stored block count ≈ 2x the partition count.

    The paper tunes ``b`` by hand (Table 2/3); this heuristic reproduces its
    guidance that there should be at least a couple of blocks per partition
    while keeping blocks as large as possible.  The full grid stores ~2x the
    blocks of the upper triangle at the same ``b``, so it reaches the same
    blocks-per-partition target with a coarser grid.
    """
    if n <= 0:
        raise ConfigurationError("n must be positive")
    target_partitions = max(1, total_cores * max(1, partitions_per_core))
    q = max(1, BlockGrid.side_for(2 * target_partitions, layout))
    q = min(q, n)
    return max(1, int(math.ceil(n / q)))


class SparkAPSPSolver:
    """Base class: block decomposition, RDD construction, result assembly.

    Subclasses implement :meth:`_run`, which receives the context, the block
    RDD, and the problem geometry, and must return the final block records
    (or an RDD of them) together with the number of outer iterations executed.
    """

    #: Short machine-readable solver name (overridden by subclasses).
    name = "abstract"
    #: Whether the implementation relies only on fault-tolerant Spark API.
    pure = True
    #: Path algebras this solver supports.  The absorptive algebras are safe
    #: on arbitrary graphs in either layout; the non-absorptive DAG-only
    #: ``longest-path`` algebra is defined only on (inherently asymmetric)
    #: DAGs and therefore only runs on solvers that implement the full grid
    #: layout — its algebra-level ``layouts=("full",)`` policy enforces that.
    #: Subclasses may narrow or widen the set.
    algebras: tuple[str, ...] = ABSORPTIVE_ALGEBRAS
    #: Block grid layouts this solver's ``_run`` understands.  ``"triangular"``
    #: is the paper's mirrored upper-triangle storage; solvers that also
    #: handle all q² blocks of an asymmetric matrix declare ``"full"``.
    layouts: tuple[str, ...] = ("triangular",)

    def __init__(self, config: EngineConfig | None = None,
                 options: SolverOptions | None = None) -> None:
        self.config = config or default_config()
        self.options = options or SolverOptions()

    @property
    def algebra(self) -> Semiring:
        """The resolved :class:`~repro.linalg.algebra.Semiring` for this solve."""
        return get_algebra(self.options.algebra)

    # ------------------------------------------------------------------
    def _run(self, sc: SparkContext, rdd: RDD, n: int, block_size: int,
             grid: BlockGrid, partitioner: Partitioner, stopwatch: Stopwatch):
        raise NotImplementedError

    # ------------------------------------------------------------------
    def _resolve_geometry(self, n: int,
                          layout: str = "triangular") -> tuple[int, int, int]:
        block_size = self.options.block_size or auto_block_size(
            n, self.config.total_cores, self.options.partitions_per_core,
            layout=layout)
        if block_size > n:
            block_size = n
        q = num_blocks(n, block_size)
        num_partitions = self.options.num_partitions or max(
            1, self.config.total_cores * max(1, self.options.partitions_per_core))
        return block_size, q, num_partitions

    def _build_partitioner(self, q: int, num_partitions: int) -> Partitioner:
        return partitioner_by_name(self.options.partitioner, num_partitions, q)

    # ------------------------------------------------------------------
    def prepare(self, adjacency: np.ndarray) -> SolvePlan:
        """Validate the input and resolve the solve geometry without running.

        Returns a :class:`SolvePlan` describing block size, block-grid side,
        partition count and partitioner — everything
        :meth:`execute` needs, and everything a caller might want to inspect
        or log before committing cluster time.
        """
        algebra = self.algebra
        if algebra.name not in type(self).algebras:
            raise ConfigurationError(
                f"solver {self.name!r} does not support algebra {algebra.name!r} "
                f"(supported: {', '.join(type(self).algebras)})")
        dtype = algebra.resolve_dtype(self.options.dtype)
        paths = bool(self.options.paths)
        storage = algebra.resolve_storage(self.options.storage, paths=paths)
        directed = bool(self.options.directed)
        layout = algebra.resolve_layout(self.options.layout, directed=directed)
        if layout == "auto":
            # Inspect the input exactly once: symmetric inputs keep the
            # mirrored triangular storage (bit-identical to the historical
            # behaviour), asymmetric inputs get the full grid.
            layout = ("triangular" if is_symmetric_adjacency(adjacency)
                      else "full")
        if layout not in type(self).layouts:
            raise ConfigurationError(
                f"solver {self.name!r} does not support block layout "
                f"{layout!r} (supported: {', '.join(type(self).layouts)})")
        # The full grid carries asymmetric matrices natively, so only the
        # triangular layout demands (and checks) symmetry.
        adj = validate_adjacency(adjacency,
                                 require_symmetric=(layout == "triangular"),
                                 algebra=algebra, dtype=dtype, allow_sparse=True)
        n = adj.shape[0]
        block_size, q, num_partitions = self._resolve_geometry(n, layout)
        partitioner = self._build_partitioner(q, num_partitions)
        return SolvePlan(
            solver=self.name,
            pure=self.pure,
            adjacency=adj,
            n=n,
            block_size=block_size,
            q=q,
            num_partitions=num_partitions,
            partitioner_name=self.options.partitioner.upper(),
            partitioner=partitioner,
            algebra=algebra.name,
            dtype=dtype.name,
            storage=storage,
            layout=layout,
            directed=directed,
            paths=paths,
        )

    def execute(self, plan: SolvePlan, context: SparkContext | None = None) -> APSPResult:
        """Run a prepared :class:`SolvePlan`.

        When ``context`` is given it is reused and left running (the
        :class:`~repro.core.engine.APSPEngine` path: one context, many
        solves); otherwise an ephemeral context is created and stopped.
        The result's ``metrics`` are the engine counters attributable to
        *this* solve (a delta against the context's counters at entry), so
        they are meaningful under context reuse too.
        """
        stopwatch = Stopwatch()
        owns_context = context is None
        sc = context or SparkContext(self.config)
        start = time.perf_counter()
        try:
            metrics_before = sc.metrics.as_dict()
            with stopwatch.section("setup"):
                records = list(plan.block_records())
                rdd = sc.parallelize(records, partitioner=plan.partitioner).cache()
            # Publish the cost model's predicted per-task wall for the solve:
            # the scheduler derives its soft (speculation) timeout from it.
            wall_hint = predicted_task_seconds(
                plan.n, plan.block_size,
                num_partitions=plan.partitioner.num_partitions,
                algebra=plan.algebra, dtype=plan.dtype, storage=plan.storage)
            with sc.scheduler.task_wall_hint(wall_hint):
                result_blocks, iterations = self._run(
                    sc, rdd, plan.n, plan.block_size, plan.grid,
                    plan.partitioner, stopwatch)
            with stopwatch.section("gather"):
                if isinstance(result_blocks, RDD):
                    result_blocks = result_blocks.collect()
                algebra = get_algebra(plan.algebra)
                parents = None
                paths_repaired = 0
                if plan.paths:
                    distances, parents = witness_mod.witness_blocks_to_matrices(
                        result_blocks, plan.n, plan.block_size,
                        layout=plan.layout,
                        fill=algebra.zero_like(plan.dtype), dtype=plan.dtype)
                    # Per-cell witnesses are locally valid but can disagree
                    # across cells on equal-value plateaus; rebuild exactly
                    # the source rows whose pointer chains do not walk back
                    # to the source (see repro.linalg.witness).
                    parents, paths_repaired = witness_mod.repair_parents(
                        distances, parents, plan.adjacency, algebra)
                else:
                    distances = blocks_to_matrix(result_blocks, plan.n,
                                                 plan.block_size,
                                                 layout=plan.layout,
                                                 fill=algebra.zero_like(plan.dtype),
                                                 dtype=plan.dtype)
            elapsed = time.perf_counter() - start
            metrics = metrics_delta(metrics_before, sc.metrics.as_dict())
            if plan.paths:
                metrics["path_rows_repaired"] = paths_repaired
        finally:
            if owns_context:
                sc.stop()

        result = APSPResult(
            distances=distances,
            solver=self.name,
            n=plan.n,
            block_size=plan.block_size,
            q=plan.q,
            iterations=iterations,
            num_partitions=plan.num_partitions,
            partitioner=plan.partitioner_name,
            pure=self.pure,
            elapsed_seconds=elapsed,
            algebra=plan.algebra,
            dtype=plan.dtype,
            storage=plan.storage,
            layout=plan.layout,
            directed=plan.directed,
            parents=parents,
            phase_seconds=stopwatch.as_dict(),
            metrics=metrics,
        )
        if self.options.validate:
            self.validate_result(result)
        return result

    def solve(self, adjacency: np.ndarray, *, context: SparkContext | None = None) -> APSPResult:
        """Solve APSP for the given adjacency matrix.

        Equivalent to ``execute(prepare(adjacency), context)``.  Directed
        (asymmetric) inputs need the full grid layout — pass
        ``SolverOptions(directed=True)`` or ``layout="full"``/``"auto"``.
        """
        return self.execute(self.prepare(adjacency), context)

    # ------------------------------------------------------------------
    @staticmethod
    def validate_result(result: APSPResult, *, sample: int = 64, seed: int = 0) -> None:
        """Cheap structural checks on a closure matrix, generic over the algebra.

        Checks the diagonal equals the algebra's ``one``, the matrix is
        symmetric (triangular-layout solves only — directed/full-grid
        closures are legitimately asymmetric), and the closure is *stable*:
        relaxing through any pivot ``k`` changes nothing, i.e.
        ``d ⊕ (d[:, k] ⊗ d[k, :]) == d`` (under (min, +) this is exactly the
        triangle inequality).  The stability triples sample ordered ``(i, j,
        k)``, so they are direction-correct on asymmetric closures too.
        Exhaustive for small matrices, sampled for large ones.  Raises
        :class:`~repro.common.errors.SolverError` on violation.
        """
        algebra = get_algebra(result.algebra)
        d = result.distances
        n = d.shape[0]
        is_bool = d.dtype == np.bool_
        one = algebra.one_like(d.dtype if not is_bool else None)
        diag = np.diag(d)
        diag_ok = bool(np.array_equal(diag, np.full(n, True))) if is_bool \
            else bool(np.all(diag == one))
        if not diag_ok:
            raise SolverError(
                f"closure diagonal is not the algebra identity ({algebra.name})")
        if BlockGrid(result.q, result.layout).mirrored:
            # A mirrored grid answered every lower block with a transpose.
            if is_bool:
                if not np.array_equal(d, d.T):
                    raise SolverError("closure matrix is not symmetric")
            else:
                finite_mask = np.isfinite(d) & np.isfinite(d.T)
                if not np.allclose(d[finite_mask], d.T[finite_mask]):
                    raise SolverError("closure matrix is not symmetric")

        # Float32 closures accumulate rounding in a solver-dependent order, so
        # the stability check needs a dtype-matched tolerance.
        rtol, atol = (1e-7, 1e-9) if d.dtype.itemsize >= 8 else (1e-4, 1e-6)

        def _check_pivot(k: int) -> None:
            candidate = algebra.mul(d[:, k, None], d[None, k, :])
            relaxed = algebra.add(d, candidate)
            if is_bool:
                bad = relaxed != d
            else:
                bad = ~np.isclose(relaxed, d, rtol=rtol, atol=atol) \
                    & ~(np.isinf(relaxed) & np.isinf(d) & (np.sign(relaxed) == np.sign(d)))
            if bad.any():
                i, j = map(int, np.argwhere(bad)[0])
                raise SolverError(
                    f"closure not stable under pivot {k} at ({i}, {j}): "
                    f"{d[i, j]} vs relaxed {relaxed[i, j]} ({algebra.name})")

        if n <= 128:
            # Small matrices: check closure stability exhaustively.
            for k in range(n):
                _check_pivot(k)
            return
        rng = np.random.default_rng(seed)
        # At most ``sample`` triples regardless of n, so validation stays
        # O(sample) on large matrices instead of growing with the problem size.
        idx = rng.integers(0, n, size=(max(1, int(sample)), 3))
        for i, j, k in idx:
            dij = d[i, j]
            relaxed = algebra.add(dij, algebra.mul(d[i, k], d[k, j]))
            if is_bool:
                stable = bool(relaxed == dij)
            else:
                stable = bool(np.isclose(relaxed, dij, rtol=rtol, atol=atol)) \
                    or bool(np.isinf(relaxed) and np.isinf(dij)
                            and np.sign(relaxed) == np.sign(dij))
            if not stable:
                raise SolverError(
                    f"closure not stable at ({i}, {j}, {k}): "
                    f"{dij} vs relaxed {relaxed} ({algebra.name})")
