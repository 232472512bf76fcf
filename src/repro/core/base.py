"""Common machinery shared by the four Spark APSP solvers."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Any

import numpy as np

from repro.common.config import EngineConfig, default_config
from repro.common.errors import ConfigurationError, SolverError
from repro.common.timing import Stopwatch
from repro.cluster.costmodel import predicted_task_seconds
from repro.core.request import SolveRequest, _RequestView
from repro.graph import sparse as sparse_mod
from repro.graph.adjacency import is_symmetric_adjacency, validate_adjacency
from repro.linalg import native
from repro.linalg import witness as witness_mod
from repro.linalg.algebra import ABSORPTIVE_ALGEBRAS, Semiring, get_algebra
from repro.linalg.blocks import BlockGrid, blocks_to_matrix, matrix_to_blocks
from repro.spark.context import SparkContext
from repro.spark.metrics import metrics_delta
from repro.spark.partitioner import Partitioner, partitioner_by_name
from repro.spark.rdd import RDD


@dataclass
class APSPResult(_RequestView):
    """Result of an APSP solve: the distance matrix plus execution metadata.

    ``request`` is the *concrete* request that ran (solver, storage and
    layout resolved); its fields read through — ``result.solver``,
    ``result.algebra``, ``result.layout`` — next to the resolved geometry
    integers.  Under ``paths=True`` the result additionally carries
    :attr:`parents`, the full ``n x n`` predecessor matrix (``parents[i, j]``
    is the global predecessor of ``j`` on an optimal ``i -> j`` path, ``-1``
    for unreachable pairs and the diagonal), walkable via
    :meth:`reconstruct_path`.
    """

    distances: np.ndarray
    request: SolveRequest
    n: int
    block_size: int
    num_partitions: int
    iterations: int
    elapsed_seconds: float
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
class SolvePlan(_RequestView):
    """One resolved solve, inspectable before anything runs.

    Produced by :func:`resolve_plan` — the one place a request becomes
    concrete: ``request`` no longer says ``"auto"`` for storage or layout
    (its fields read through: ``plan.algebra``, ``plan.layout``, ...) and
    the block size and partition count are resolved integers.
    :meth:`SparkAPSPSolver.prepare` attaches the validated adjacency;
    feeding the plan to :meth:`SparkAPSPSolver.execute` (optionally with a
    shared :class:`~repro.spark.context.SparkContext`) performs the solve.
    """

    request: SolveRequest
    n: int
    block_size: int
    num_partitions: int
    #: Validated input: a prepared dense ndarray, or a canonical CSR matrix
    #: when the caller handed in a SciPy sparse adjacency (kept sparse so the
    #: block cutter never materializes an ``n x n`` array).  ``None`` on a
    #: geometry-only plan (the tuner's candidates, the fit's archived rows).
    adjacency: Any = None

    @property
    def sparse_input(self) -> bool:
        """True when the plan carries a CSR adjacency (sparse ingestion path)."""
        return sparse_mod.is_sparse(self.adjacency)

    @property
    def grid(self) -> BlockGrid:
        """The block grid of the solve: which keys are stored, how mirrors are read."""
        return BlockGrid(self.q, self.request.layout)

    @cached_property
    def partitioner(self) -> Partitioner:
        """The partitioner instance, built once per plan on first use."""
        return partitioner_by_name(self.request.partitioner,
                                   self.num_partitions, self.q)

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
        policy = dict(algebra=self.algebra, storage=self.storage,
                      layout=self.layout, witness=self.paths)
        if self.sparse_input:
            return sparse_mod.sparse_to_blocks(self.adjacency, self.block_size,
                                               dtype=self.dtype, **policy)
        return matrix_to_blocks(self.adjacency, self.block_size, **policy)

    def describe(self) -> dict:
        """Geometry summary as a plain dict (for logs, the CLI, and tests)."""
        request = self.request
        return {
            "solver": request.solver,
            "pure": self.pure,
            "n": self.n,
            "block_size": self.block_size,
            "q": self.q,
            "num_blocks_upper": BlockGrid(self.q).count,
            "num_blocks_stored": self.grid.count,
            "num_partitions": self.num_partitions,
            "partitioner": request.partitioner,
            **{name: getattr(request, name) for name in (
                "algebra", "dtype", "storage", "layout", "directed", "paths")},
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


def input_symmetry(request: SolveRequest, adjacency) -> bool:
    """The ``symmetric`` argument of :func:`resolve_plan` for a real input.

    The matrix is inspected (once, never densifying CSR) only when the
    request still says ``layout="auto"`` — the one case the answer is read.
    """
    return request.layout != "auto" or is_symmetric_adjacency(adjacency)


def resolve_plan(request: SolveRequest, n: int, *, symmetric: bool,
                 total_cores: int) -> SolvePlan:
    """Resolve a request against a problem: the only request → plan path.

    Pure in its arguments.  ``symmetric`` settles ``layout="auto"``
    (symmetric → mirrored triangular storage, asymmetric → the full grid);
    the concrete layout goes back through ``dataclasses.replace`` so
    :class:`SolveRequest` stays the single validator of solver × algebra ×
    dtype × storage × layout × paths.  An unset block size takes the
    :func:`auto_block_size` heuristic, ``b`` is clamped to ``n``, and the
    partition count defaults to ``total_cores`` × the over-decomposition
    factor ``B``.  The planner, the auto-tuner's candidate pricing and the
    cost-model fit all come through here, so they cannot disagree.  A
    ``solver="auto"`` request resolves too (the tuner prices the candidates
    it derives from that plan's request).
    """
    if n < 1:
        raise ConfigurationError(f"cannot plan a solve of size n={n}")
    if request.layout == "auto":
        request = replace(request,
                          layout="triangular" if symmetric else "full")
    block_size = request.block_size or auto_block_size(
        n, total_cores, request.partitions_per_core, layout=request.layout)
    return SolvePlan(
        request=request, n=n, block_size=min(block_size, n),
        num_partitions=(request.num_partitions
                        or total_cores * request.partitions_per_core))


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
                 request: SolveRequest | None = None) -> None:
        self.config = config or default_config()
        if request is None or request.solver != self.name:
            # Default, or re-target a request written for another solver (or
            # "auto") at this class — re-running the solver's support checks.
            request = SolveRequest.coerce(request, solver=self.name)
        self.request = request

    @property
    def algebra(self) -> Semiring:
        """The resolved :class:`~repro.linalg.algebra.Semiring` for this solve."""
        return get_algebra(self.request.algebra)

    # ------------------------------------------------------------------
    def _run(self, sc: SparkContext, rdd: RDD, n: int, block_size: int,
             grid: BlockGrid, partitioner: Partitioner, stopwatch: Stopwatch):
        raise NotImplementedError

    # ------------------------------------------------------------------
    def prepare(self, adjacency: np.ndarray) -> SolvePlan:
        """Validate the input and resolve the solve geometry without running.

        Returns the :class:`SolvePlan` of :func:`resolve_plan` with the
        validated adjacency attached — everything :meth:`execute` needs, and
        everything a caller might want to inspect or log before committing
        cluster time.
        """
        request = self.request
        symmetric = input_symmetry(request, adjacency)
        # The full grid carries asymmetric matrices natively, and an "auto"
        # layout only becomes triangular when the sniff found the input
        # symmetric, so only an explicit triangular request needs the check.
        adj = validate_adjacency(
            adjacency, require_symmetric=request.layout == "triangular",
            algebra=request.algebra, dtype=request.dtype, allow_sparse=True)
        plan = resolve_plan(request, adj.shape[0], symmetric=symmetric,
                            total_cores=self.config.total_cores)
        return replace(plan, adjacency=adj)

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
            request, partitioner = plan.request, plan.partitioner
            with stopwatch.section("setup"):
                records = list(plan.block_records())
                rdd = sc.parallelize(records, partitioner=partitioner).cache()
            # Publish the cost model's predicted per-task wall for the solve:
            # the scheduler derives its soft (speculation) timeout from it.
            wall_hint = predicted_task_seconds(
                plan.n, plan.block_size,
                num_partitions=partitioner.num_partitions,
                algebra=request.algebra, dtype=request.dtype,
                storage=request.storage)
            with sc.scheduler.task_wall_hint(wall_hint):
                result_blocks, iterations = self._run(
                    sc, rdd, plan.n, plan.block_size, plan.grid,
                    partitioner, stopwatch)
            with stopwatch.section("gather"):
                if isinstance(result_blocks, RDD):
                    result_blocks = result_blocks.collect()
                algebra = get_algebra(request.algebra)
                assemble = dict(layout=request.layout, dtype=request.dtype,
                                fill=algebra.zero_like(request.dtype))
                parents = None
                paths_repaired = 0
                if request.paths:
                    distances, parents = witness_mod.witness_blocks_to_matrices(
                        result_blocks, plan.n, plan.block_size, **assemble)
                    # Per-cell witnesses are locally valid but can disagree
                    # across cells on equal-value plateaus; rebuild exactly
                    # the source rows whose pointer chains do not walk back
                    # to the source (see repro.linalg.witness).
                    parents, paths_repaired = witness_mod.repair_parents(
                        distances, parents, plan.adjacency, algebra)
                else:
                    distances = blocks_to_matrix(result_blocks, plan.n,
                                                 plan.block_size, **assemble)
            elapsed = time.perf_counter() - start
            metrics = metrics_delta(metrics_before, sc.metrics.as_dict())
            metrics.update(native.describe())
            if request.paths:
                metrics["path_rows_repaired"] = paths_repaired
        finally:
            if owns_context:
                sc.stop()

        # The result keeps the concrete request and the geometry integers —
        # not the plan, which would pin the input adjacency in memory.
        result = APSPResult(
            distances=distances, request=request, n=plan.n,
            block_size=plan.block_size, num_partitions=plan.num_partitions,
            iterations=iterations, elapsed_seconds=elapsed, parents=parents,
            phase_seconds=stopwatch.as_dict(), metrics=metrics)
        if request.validate:
            self.validate_result(result)
        return result

    def solve(self, adjacency: np.ndarray, *, context: SparkContext | None = None) -> APSPResult:
        """Solve APSP for the given adjacency matrix.

        Equivalent to ``execute(prepare(adjacency), context)``.  Directed
        (asymmetric) inputs need the full grid layout — pass
        ``SolveRequest(directed=True)`` or ``layout="full"``/``"auto"``.
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
