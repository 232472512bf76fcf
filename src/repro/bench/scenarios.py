"""Benchmark scenario grids: the single source of truth for what gets measured.

A :class:`BenchScenario` pins every knob of one measured solve — solver,
problem size, block size, partitioner, engine backend and shape — and a
:class:`BenchSuite` is an ordered grid of scenarios.  Both the JSON harness
(``apspark bench run``) and the pytest-benchmark modules under
``benchmarks/`` parametrize over these definitions, so a workload is defined
exactly once.

Scales are environment-tunable: set ``APSPARK_BENCH_N`` to shrink or grow
every suite's problem size (the CI smoke run uses a tiny value; local deep
runs can crank it up) without editing code.
"""

from __future__ import annotations

import os
from dataclasses import asdict, dataclass, field, replace
from typing import Callable

# Importing the API populates the solver registry, which SolveRequest
# validation (and therefore scenario construction) depends on.
import repro.core.api  # noqa: F401
from repro.common.config import EngineConfig
from repro.common.errors import ConfigurationError
from repro.core.request import SolveRequest

#: Environment variable overriding every suite's problem size ``n``.
BENCH_N_ENV = "APSPARK_BENCH_N"

#: Default slowdown gate: fail a comparison when a scenario runs this many
#: times slower than its baseline.
DEFAULT_SLOWDOWN_THRESHOLD = 1.5


def bench_scale_n(default: int) -> int:
    """Problem size for a suite: ``APSPARK_BENCH_N`` when set, else ``default``."""
    raw = os.environ.get(BENCH_N_ENV)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError as exc:
        raise ConfigurationError(
            f"{BENCH_N_ENV} must be an integer, got {raw!r}") from exc
    if value < 8:
        raise ConfigurationError(f"{BENCH_N_ENV} must be >= 8, got {value}")
    return value


@dataclass(frozen=True)
class BenchScenario:
    """One benchmarked workload: a point in the solver × n × b × backend grid.

    ``workload`` selects what gets measured: ``"solve"`` (the default) is one
    closure solve; ``"serve"`` solves the closure once and then replays a
    deterministic random query stream against the serving layer —
    ``queries`` route lookups drawn from ``query_sources`` distinct sources
    (0 = all of them) under a parent-row cache capped at ``cache_rows``;
    ``"update"`` solves the closure once with ``keep_closure=True`` and then
    applies a deterministic batch of ``update_batch`` improving edge updates
    through ``engine.update`` under ``update_mode`` (``"auto"`` lets the
    cost model pick, ``"incremental"``/``"resolve"`` force the path — the
    forced pair is the incremental-vs-resolve twin whose ``update_seconds``
    ratio is the dynamic-maintenance win).
    """

    name: str
    solver: str = "blocked-cb"
    n: int = 128
    block_size: int | None = 32
    partitioner: str = "MD"
    partitions_per_core: int = 2
    algebra: str = "shortest-path"
    dtype: str | None = None
    storage: str | None = None
    layout: str | None = None
    directed: bool = False
    paths: bool = False
    backend: str = "serial"
    num_executors: int = 4
    cores_per_executor: int = 2
    seed: int = 1234
    repeats: int = 1
    slowdown_threshold: float = DEFAULT_SLOWDOWN_THRESHOLD
    workload: str = "solve"
    queries: int = 0
    query_sources: int = 0
    cache_rows: int | None = None
    update_batch: int = 0
    update_mode: str = "auto"
    failure_rate: float = 0.0
    crash_rate: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("scenario name must be non-empty")
        if self.n < 2:
            raise ConfigurationError("scenario n must be >= 2")
        if self.repeats < 1:
            raise ConfigurationError("scenario repeats must be >= 1")
        if self.slowdown_threshold <= 1.0:
            raise ConfigurationError("slowdown_threshold must be > 1.0")
        if self.workload not in ("solve", "serve", "update"):
            raise ConfigurationError(
                f"scenario workload must be 'solve', 'serve' or 'update', "
                f"got {self.workload!r}")
        if self.workload == "serve":
            if self.queries < 1:
                raise ConfigurationError(
                    "a serve scenario needs queries >= 1")
            if self.paths:
                raise ConfigurationError(
                    "serve scenarios solve parent rows lazily; paths=True "
                    "would materialize the full predecessor matrix")
        if self.workload == "update":
            if self.update_batch < 1:
                raise ConfigurationError(
                    "an update scenario needs update_batch >= 1")
            if self.update_mode not in ("auto", "incremental", "resolve"):
                raise ConfigurationError(
                    f"update_mode must be 'auto', 'incremental' or "
                    f"'resolve', got {self.update_mode!r}")
        if self.query_sources < 0:
            raise ConfigurationError("query_sources must be >= 0")
        if self.cache_rows is not None and self.cache_rows < 1:
            raise ConfigurationError("cache_rows must be >= 1 or None")
        for rate_name in ("failure_rate", "crash_rate"):
            rate = getattr(self, rate_name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"{rate_name} must be in [0, 1], got {rate}")
        # Validate eagerly: a bad grid should fail at definition time, long
        # before any engine spins up.
        self.engine_config()
        self.request()

    # ------------------------------------------------------------------
    def engine_config(self) -> EngineConfig:
        """The engine configuration this scenario runs under."""
        return EngineConfig(backend=self.backend, num_executors=self.num_executors,
                            cores_per_executor=self.cores_per_executor)

    def fault_plan(self):
        """The scenario's :class:`~repro.spark.faults.FaultPlan`, or None.

        None (the common case) keeps the engine on the fault-free fast path;
        a nonzero ``failure_rate`` / ``crash_rate`` builds a seeded
        rate-based plan, so faulted runs are deterministic per scenario seed
        (the baseline compare depends on it).
        """
        if self.failure_rate <= 0.0 and self.crash_rate <= 0.0:
            return None
        from repro.spark.faults import FaultPlan
        return FaultPlan(failure_rate=self.failure_rate,
                         crash_rate=self.crash_rate, seed=self.seed)

    def request(self) -> SolveRequest:
        """The typed solve request this scenario submits."""
        shared = SolveRequest.__dataclass_fields__.keys() & self.__dataclass_fields__
        return SolveRequest(tag=self.name,
                            **{name: getattr(self, name) for name in shared})

    def params(self) -> dict:
        """Scenario parameters as a plain dict (for reports)."""
        params = asdict(self)
        del params["name"], params["slowdown_threshold"]
        return params

    def with_n(self, n: int) -> "BenchScenario":
        """Variant of this scenario at a different problem size.

        Serve workloads scale with the graph: the query count, source pool
        and cache cap grow proportionally with ``n`` so the hit/eviction
        profile (the thing the scenario exists to measure) is preserved.
        """
        block = self.block_size
        if block is not None:
            block = max(4, min(block, n))
        changes: dict = {"n": n, "block_size": block}
        if self.workload == "serve" and n != self.n:
            scale = n / self.n
            changes["queries"] = max(1, round(self.queries * scale))
            if self.query_sources:
                changes["query_sources"] = max(1, round(self.query_sources * scale))
            if self.cache_rows is not None:
                changes["cache_rows"] = max(1, round(self.cache_rows * scale))
        if self.workload == "update" and n != self.n and self.update_batch > 1:
            # Batches sized relative to n (break-even probes) scale with the
            # graph; single-edge scenarios stay single-edge at every scale.
            changes["update_batch"] = max(2, round(self.update_batch * n / self.n))
        return replace(self, **changes)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return (f"{self.name}: {self.solver} n={self.n} b={self.block_size} "
                f"{self.partitioner} backend={self.backend}")


@dataclass(frozen=True)
class BenchSuite:
    """An ordered grid of scenarios measured and gated together."""

    name: str
    description: str
    scenarios: tuple[BenchScenario, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        names = [s.name for s in self.scenarios]
        if len(names) != len(set(names)):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ConfigurationError(
                f"suite {self.name!r} has duplicate scenario names: {dupes}")

    def scenario(self, name: str) -> BenchScenario:
        """Look up one scenario by name; unknown names raise."""
        for s in self.scenarios:
            if s.name == name:
                return s
        raise ConfigurationError(f"suite {self.name!r} has no scenario {name!r}")

    def with_n(self, n: int) -> "BenchSuite":
        """The whole suite re-scaled to problem size ``n``."""
        return replace(self, scenarios=tuple(s.with_n(n) for s in self.scenarios))


# ---------------------------------------------------------------------------
# Suite definitions
# ---------------------------------------------------------------------------
def _smoke_suite() -> BenchSuite:
    """Tiny cross-section of the grid: every solver, every backend axis.

    Small enough for a CI job (seconds, not minutes) while still touching the
    min-plus/Floyd-Warshall hot paths of all four solvers and all three
    scheduler backends.  The ``blocked-cb-serial`` / ``blocked-cb-paths``
    pair is the witness-tracking twin: identical workload with and without
    parent-pointer planes, so the diff quantifies the ~2x traffic (and
    paired-kernel compute) overhead of ``SolveRequest(paths=True)``.
    """
    n = bench_scale_n(48)
    shape = dict(n=n, block_size=16, num_executors=2, cores_per_executor=2)
    return BenchSuite(
        name="smoke",
        description="tiny grid: all solvers serial, blocked-cb across "
                    "backends, plus the paths=True twin",
        scenarios=(
            BenchScenario(name="blocked-cb-serial", solver="blocked-cb",
                          backend="serial", **shape),
            BenchScenario(name="blocked-cb-paths", solver="blocked-cb",
                          backend="serial", paths=True, **shape),
            BenchScenario(name="blocked-cb-threads", solver="blocked-cb",
                          backend="threads", **shape),
            BenchScenario(name="blocked-cb-processes", solver="blocked-cb",
                          backend="processes", **shape),
            BenchScenario(name="blocked-im-serial", solver="blocked-im",
                          backend="serial", **shape),
            BenchScenario(name="repeated-squaring-serial", solver="repeated-squaring",
                          backend="serial", **shape),
            BenchScenario(name="fw2d-serial", solver="fw-2d",
                          backend="serial", **shape),
        ),
    )


def _backends_suite() -> BenchSuite:
    """Scheduler backend ablation (the old ``test_bench_backend`` workload)."""
    n = bench_scale_n(128)
    scenarios = tuple(
        BenchScenario(name=f"blocked-cb-{backend}", solver="blocked-cb", n=n,
                      block_size=32, backend=backend,
                      num_executors=2, cores_per_executor=2)
        for backend in ("serial", "threads", "processes")
    )
    return BenchSuite(
        name="backends",
        description="blocked-cb across serial / threads / processes execution",
        scenarios=scenarios,
    )


def _blocksize_suite() -> BenchSuite:
    """Table 2 workload: every solver swept over block size."""
    n = bench_scale_n(128)
    solvers = ("repeated-squaring", "fw-2d", "blocked-im", "blocked-cb")
    block_sizes = (16, 32, 64)
    scenarios = tuple(
        BenchScenario(name=f"{solver}-b{block_size}", solver=solver, n=n,
                      block_size=min(block_size, n))
        for solver in solvers for block_size in block_sizes
    )
    return BenchSuite(
        name="blocksize",
        description="Table 2: effect of block size on each solver",
        scenarios=scenarios,
    )


def _partitioner_suite() -> BenchSuite:
    """Figure 3 workload: blocked solvers × partitioner × over-decomposition."""
    n = bench_scale_n(128)
    scenarios = tuple(
        BenchScenario(name=f"{solver}-{partitioner}-B{b_factor}", solver=solver,
                      n=n, block_size=min(32, n), partitioner=partitioner,
                      partitions_per_core=b_factor)
        for solver in ("blocked-im", "blocked-cb")
        for partitioner in ("MD", "PH")
        for b_factor in (1, 2)
    )
    return BenchSuite(
        name="partitioner",
        description="Figure 3: partitioner and over-decomposition sweep",
        scenarios=scenarios,
    )


def _algebras_suite() -> BenchSuite:
    """Algebra × dtype sweep on the best solver (blocked-cb).

    The ``shortest-path-f64`` / ``shortest-path-f32`` pair is the dtype-policy
    twin: identical workload, halved element size, so the comparison exposes
    the memory-traffic win of ``float32`` in the hot product kernel.  The
    remaining scenarios track the per-algebra cost of the generalized
    kernels (the boolean closure should be by far the cheapest).

    Like the ``reachability`` suite, the block size scales with ``n``
    (``n / 4`` clamped to [32, 256]; 32 at the CI scale, unchanged) so
    reference-machine runs at ``APSPARK_BENCH_N>=1024`` measure the kernels
    rather than per-task scheduler overhead — the regime where the float32
    and boolean wins are actually visible and therefore gateable.
    """
    n = bench_scale_n(96)
    shape = dict(solver="blocked-cb", n=n,
                 block_size=max(32, min(256, n // 4)) if n >= 32 else n,
                 num_executors=2, cores_per_executor=2)
    return BenchSuite(
        name="algebras",
        description="algebra x dtype sweep on blocked-cb "
                    "(incl. the float32-vs-float64 twin)",
        scenarios=(
            BenchScenario(name="shortest-path-f64", algebra="shortest-path",
                          dtype="float64", **shape),
            BenchScenario(name="shortest-path-f32", algebra="shortest-path",
                          dtype="float32", **shape),
            BenchScenario(name="widest-path-f64", algebra="widest-path",
                          dtype="float64", **shape),
            BenchScenario(name="widest-path-f32", algebra="widest-path",
                          dtype="float32", **shape),
            BenchScenario(name="most-reliable-f64", algebra="most-reliable",
                          dtype="float64", **shape),
            BenchScenario(name="reachability-bool", algebra="reachability",
                          dtype="bool", **shape),
        ),
    )


def _reachability_suite() -> BenchSuite:
    """Packed-bitset vs dense-bool ablation for the boolean closure.

    Each pair runs the identical transitive-closure workload under the two
    block-storage policies, so the comparison isolates the packed-bitset
    win: 64x denser blocks, word-parallel ⊕/⊗, 1/8th the pickled bytes
    through the shuffle, the driver, and the shared file system.  The
    ``processes`` scenario additionally measures the smaller IPC payloads.
    Record reference baselines at ``APSPARK_BENCH_N=1024`` or larger — at
    toy sizes the scheduler overhead hides the kernel difference.  Unlike
    the CI-oriented suites, the block size scales with ``n`` (``n / 4``,
    clamped to [32, 512]) so large runs stay kernel-dominated rather than
    scheduler-dominated.
    """
    n = bench_scale_n(96)
    block = max(32, min(512, n // 4))
    shape = dict(n=n, block_size=min(block, n), algebra="reachability",
                 dtype="bool", num_executors=2, cores_per_executor=2)
    return BenchSuite(
        name="reachability",
        description="boolean closure: packed bitset vs dense bool blocks "
                    "(blocked solvers + processes backend)",
        scenarios=(
            BenchScenario(name="blocked-cb-bool-dense", solver="blocked-cb",
                          storage="dense", **shape),
            BenchScenario(name="blocked-cb-bool-packed", solver="blocked-cb",
                          storage="packed", **shape),
            BenchScenario(name="blocked-im-bool-dense", solver="blocked-im",
                          storage="dense", **shape),
            BenchScenario(name="blocked-im-bool-packed", solver="blocked-im",
                          storage="packed", **shape),
            BenchScenario(name="blocked-cb-bool-dense-processes",
                          solver="blocked-cb", storage="dense",
                          backend="processes", **shape),
            BenchScenario(name="blocked-cb-bool-packed-processes",
                          solver="blocked-cb", storage="packed",
                          backend="processes", **shape),
        ),
    )


def _serve_suite() -> BenchSuite:
    """Serving-layer workloads: query count × cache budget × source locality.

    Every scenario solves the closure once and replays ``4 n`` route queries
    against the lazy parent-row cache; what varies is the cache pressure:

    * ``serve-warm`` — queries concentrated on few sources, unbounded cache:
      the steady-state hit-rate regime (row solves amortized away);
    * ``serve-tight-cache`` — more sources than cached rows, so the LRU
      churns: measures eviction + re-solve overhead under memory pressure;
    * ``serve-cold-scan`` — sources drawn from the whole vertex set: the
      miss-dominated regime, effectively benchmarking ``solve_parent_row``;
    * ``serve-reachability`` — the boolean closure's plateau-heavy rows push
      queries through the BFS repair stage (packed-storage solve included).

    Reported wall time covers the closure solve plus the replay; the serve
    stats (hit rate, stage seconds) land in each scenario's ``metrics`` under
    ``serve_*`` keys, so baselines also gate on cache behaviour drift.
    """
    n = bench_scale_n(64)
    shape = dict(solver="blocked-cb", n=n,
                 block_size=max(16, min(128, n // 4)),
                 num_executors=2, cores_per_executor=2,
                 workload="serve", queries=4 * n)
    return BenchSuite(
        name="serve",
        description="route-serving layer: query replay under varying "
                    "cache pressure (hit-heavy, evicting, cold, repair-heavy)",
        scenarios=(
            BenchScenario(name="serve-warm",
                          query_sources=max(2, n // 16), **shape),
            BenchScenario(name="serve-tight-cache",
                          query_sources=max(4, n // 4),
                          cache_rows=max(2, n // 32), **shape),
            BenchScenario(name="serve-cold-scan", **shape),
            BenchScenario(name="serve-reachability", algebra="reachability",
                          dtype="bool", query_sources=max(2, n // 16), **shape),
        ),
    )


def _directed_suite() -> BenchSuite:
    """Full-grid vs triangular storage, and genuinely directed inputs.

    The ``*-tri`` / ``*-full`` pairs run the *same symmetric* graph under
    the two block layouts, so the diff isolates the cost of storing (and
    updating) all ``q²`` blocks instead of the upper block triangle — the
    price an undirected workload would pay for choosing ``layout="full"``.
    The ``*-directed`` scenarios measure the layout on the inputs it exists
    for: asymmetric Erdős–Rényi graphs (every ordered pair sampled
    independently), including a witness-tracking twin and the DAG
    longest-path workload the full grid unlocks.
    """
    n = bench_scale_n(48)
    shape = dict(n=n, block_size=16, num_executors=2, cores_per_executor=2)
    return BenchSuite(
        name="directed",
        description="triangular-vs-full layout twins on symmetric input, "
                    "plus asymmetric (directed) workloads",
        scenarios=(
            BenchScenario(name="blocked-cb-tri", solver="blocked-cb",
                          layout="triangular", **shape),
            BenchScenario(name="blocked-cb-full", solver="blocked-cb",
                          layout="full", **shape),
            BenchScenario(name="blocked-im-tri", solver="blocked-im",
                          layout="triangular", **shape),
            BenchScenario(name="blocked-im-full", solver="blocked-im",
                          layout="full", **shape),
            BenchScenario(name="blocked-cb-directed", solver="blocked-cb",
                          directed=True, **shape),
            BenchScenario(name="blocked-cb-directed-paths", solver="blocked-cb",
                          directed=True, paths=True, **shape),
            BenchScenario(name="fw2d-directed", solver="fw-2d",
                          directed=True, **shape),
            BenchScenario(name="longest-path-dag", solver="blocked-cb",
                          algebra="longest-path", **shape),
        ),
    )


def _dynamic_suite() -> BenchSuite:
    """Dynamic closure maintenance: incremental updates vs full re-closure.

    Every scenario solves the closure once (``keep_closure=True``) and then
    applies a deterministic batch of improving edge updates through
    ``engine.update``; the update cost lands in ``phase_seconds["update"]``
    and the ``update_*`` metrics.  The grid probes the three claims of the
    dynamic-update layer:

    * ``update-single-incremental`` / ``update-single-resolve`` — the
      incremental-vs-resolve twin: the identical single-edge update forced
      down both paths.  The ratio of their ``update_seconds`` is the O(n²)
      rank-1 sweep vs O(n³) re-closure win (≥ 5x at n=1024 for the dense
      float64 shortest-path closure);
    * ``update-batch8-incremental`` — per-edge amortization of a small batch
      (sequential sweeps share no work, so this should scale ~linearly);
    * ``update-batch-auto-large`` — a batch of ``n`` edges, mode ``auto``:
      past the cost model's break-even (~0.46 n) the engine must *choose*
      the re-solve, so this scenario measurably exercises the fallback;
    * algebra/storage variants — the rank-1 sweep through the widest-path
      and most-reliable kernels, and the packed-bitset word-parallel sweep
      with its dense-mirror writeback.

    Updates mutate the cached closure in place, so each repeat re-solves
    first; ``repeats=1`` keeps the suite cheap.
    """
    n = bench_scale_n(48)
    shape = dict(solver="blocked-cb", n=n,
                 block_size=max(16, min(128, n // 4)),
                 num_executors=2, cores_per_executor=2,
                 workload="update", repeats=1)
    return BenchSuite(
        name="dynamic",
        description="dynamic edge updates: rank-1 incremental maintenance "
                    "vs full re-closure (twins, batch sweep, auto fallback)",
        scenarios=(
            BenchScenario(name="update-single-incremental",
                          update_batch=1, update_mode="incremental", **shape),
            BenchScenario(name="update-single-resolve",
                          update_batch=1, update_mode="resolve", **shape),
            BenchScenario(name="update-batch8-incremental",
                          update_batch=8, update_mode="incremental", **shape),
            BenchScenario(name="update-batch-auto-large",
                          update_batch=n, update_mode="auto", **shape),
            BenchScenario(name="update-widest-single", algebra="widest-path",
                          update_batch=1, update_mode="incremental", **shape),
            BenchScenario(name="update-reliable-single",
                          algebra="most-reliable",
                          update_batch=1, update_mode="incremental", **shape),
            BenchScenario(name="update-reachability-packed",
                          algebra="reachability", dtype="bool",
                          storage="packed",
                          update_batch=4, update_mode="incremental", **shape),
        ),
    )


def _faults_suite() -> BenchSuite:
    """Fault-tolerance overhead and recovery cost.

    Two questions, two scenario groups:

    * ``faultfree-*`` — the identical blocked-cb workload as the backend
      suite, run through the full fault-tolerance machinery with *no* plan:
      retries armed, timeouts derived, integrity footers written and
      verified.  Gated against baseline, this is the "fault-free overhead
      stays within noise" acceptance knob;
    * ``kill1pct-*`` — the same workload with a seeded 1% task-kill
      schedule: each affected first attempt dies as a worker crash (a real
      process kill on the ``processes`` backend, rebuilding the pool) and is
      recovered through lineage retry.  Wall time measures recovery cost;
      the folded ``worker_restarts`` / ``tasks_recomputed`` metrics land in
      the report so baselines also pin how much recovery actually happened.
      A loose gate (3x): recovery cost is pool-rebuild dominated and noisy.
    """
    n = bench_scale_n(96)
    shape = dict(solver="blocked-cb", n=n, block_size=max(16, min(64, n // 4)),
                 num_executors=2, cores_per_executor=2)
    return BenchSuite(
        name="faults",
        description="fault-tolerance: fault-free machinery overhead and "
                    "1% task-kill recovery on threads/processes",
        scenarios=(
            BenchScenario(name="faultfree-threads", backend="threads", **shape),
            BenchScenario(name="faultfree-processes", backend="processes",
                          **shape),
            # Seed chosen so the 1% schedule deterministically kills tasks
            # early in the solve (ids 11 and 20) at every bench scale —
            # with the default seed the first hit lands past the ~64 tasks
            # a CI-sized solve launches and the scenario would measure
            # nothing.
            BenchScenario(name="kill1pct-threads", backend="threads",
                          crash_rate=0.01, seed=1242,
                          slowdown_threshold=3.0, **shape),
            BenchScenario(name="kill1pct-processes", backend="processes",
                          crash_rate=0.01, seed=1242,
                          slowdown_threshold=3.0, **shape),
            BenchScenario(name="failrate5pct-threads", backend="threads",
                          failure_rate=0.05, slowdown_threshold=3.0, **shape),
        ),
    )


def _scaling_suite() -> BenchSuite:
    """Table 3 workload: weak scaling of the blocked solvers (n/p fixed)."""
    points = ((4, 64), (8, 128), (16, 256))
    scenarios = tuple(
        BenchScenario(name=f"{solver}-p{p}-n{n}", solver=solver, n=n,
                      block_size=max(8, n // 8),
                      num_executors=max(1, p // 4), cores_per_executor=min(4, p))
        for p, n in points
        for solver in ("blocked-im", "blocked-cb")
    )
    return BenchSuite(
        name="scaling",
        description="Table 3: weak scaling of the blocked solvers",
        scenarios=scenarios,
    )


#: Suite registry: name -> builder (called fresh so env scaling applies).
_SUITE_BUILDERS: dict[str, Callable[[], BenchSuite]] = {
    "smoke": _smoke_suite,
    "backends": _backends_suite,
    "blocksize": _blocksize_suite,
    "partitioner": _partitioner_suite,
    "algebras": _algebras_suite,
    "reachability": _reachability_suite,
    "directed": _directed_suite,
    "dynamic": _dynamic_suite,
    "faults": _faults_suite,
    "scaling": _scaling_suite,
    "serve": _serve_suite,
}


def available_suites() -> tuple[str, ...]:
    """Names of the registered benchmark suites."""
    return tuple(sorted(_SUITE_BUILDERS))


def get_suite(name: str) -> BenchSuite:
    """Build a suite by name (re-reading ``APSPARK_BENCH_N`` each call)."""
    try:
        builder = _SUITE_BUILDERS[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown benchmark suite {name!r}; expected one of "
            f"{', '.join(available_suites())}") from None
    return builder()
