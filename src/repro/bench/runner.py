"""Benchmark runner: execute a scenario grid through :class:`APSPEngine`.

The runner mirrors the paper's experimental shape: scenarios sharing an
engine configuration run on one persistent engine session (one Spark context,
many solves), and each scenario records wall time, per-stage timings and the
engine metric *delta* attributable to that solve alone.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.common.errors import ConfigurationError
from repro.core.engine import APSPEngine
from repro.core.request import EdgeUpdate
from repro.graph.generators import (directed_erdos_renyi_adjacency,
                                    erdos_renyi_adjacency)
from repro.graph.sparse import is_sparse, sparse_to_dense
from repro.linalg.algebra import get_algebra
from repro.linalg.kernels import semiring_closure
from repro.sequential.floyd_warshall import floyd_warshall_reference

from repro.bench.scenarios import BenchScenario, BenchSuite


@dataclass
class ScenarioResult:
    """Everything measured for one scenario."""

    scenario: BenchScenario
    wall_seconds: float                 # best (minimum) over repeats
    all_seconds: list[float] = field(default_factory=list)
    phase_seconds: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    solve: dict = field(default_factory=dict)   # geometry of the last solve
    verified: bool | None = None        # None when verification was skipped

    @property
    def mean_seconds(self) -> float:
        """Arithmetic mean wall time across repeats."""
        return sum(self.all_seconds) / len(self.all_seconds)

    def as_dict(self) -> dict:
        """JSON-ready record (the per-scenario unit of the ``BENCH_*`` schema)."""
        metrics = dict(self.metrics)
        spills = metrics.get("spilled_bytes_per_executor")
        if isinstance(spills, dict):
            # JSON object keys must be strings; executor ids are ints.
            metrics["spilled_bytes_per_executor"] = {
                str(k): v for k, v in spills.items()}
        return {
            "id": self.scenario.name,
            "params": self.scenario.params(),
            "wall_seconds": self.wall_seconds,
            "mean_seconds": self.mean_seconds,
            "all_seconds": list(self.all_seconds),
            "phase_seconds": dict(self.phase_seconds),
            "metrics": metrics,
            "solve": dict(self.solve),
            "verified": self.verified,
            "slowdown_threshold": self.scenario.slowdown_threshold,
        }


def graph_domain(algebra, *, directed: bool = False) -> str:
    """The input-graph domain an algebra (and orientation) requires.

    Single source of truth for graph generation *and* the run_suite graph
    cache key, so the two can never disagree.  The longest-path algebra
    always needs a DAG; other algebras get a symmetric or directed variant
    of their weight domain.
    """
    name = get_algebra(algebra).name
    if name == "longest-path":
        return "dag"
    domain = "unit-interval" if name == "most-reliable" else "weighted"
    return f"{domain}-directed" if directed else domain


def graph_for_algebra(n: int, seed: int, algebra="shortest-path", *,
                      directed: bool = False) -> np.ndarray:
    """Generate an Erdős–Rényi input graph respecting the algebra's domain.

    Most algebras accept the standard weighted input; the (max, ×)
    ``most-reliable`` algebra needs edge weights in ``[0, 1]``; the
    longest-path algebra needs a DAG (always directed).  ``directed=True``
    samples each ordered pair independently, giving the asymmetric inputs
    the ``layout="full"`` grid stores.
    """
    domain = graph_domain(algebra, directed=directed)
    if domain == "dag":
        return directed_erdos_renyi_adjacency(n, seed=seed, acyclic=True)
    weights = ({"weight_low": 0.05, "weight_high": 0.95}
               if domain.startswith("unit-interval") else {})
    if domain.endswith("-directed"):
        return directed_erdos_renyi_adjacency(n, seed=seed, **weights)
    return erdos_renyi_adjacency(n, seed=seed, **weights)


def reference_closure(adjacency: np.ndarray, algebra="shortest-path",
                      dtype: str | None = None) -> np.ndarray:
    """The sequential ground-truth closure for an (algebra, dtype) pair.

    The (min, +)/float64 case uses the fast SciPy reference; everything else
    goes through the dense generic closure.  Both are dense oracles: a CSR
    (what a CSR-ingested ``engine.closure.adjacency`` stays) is expanded here.
    """
    if is_sparse(adjacency):
        adjacency = sparse_to_dense(adjacency, algebra=algebra)
    if get_algebra(algebra).name == "shortest-path" and dtype in (None, "float64"):
        return floyd_warshall_reference(adjacency)
    return semiring_closure(adjacency, algebra, dtype=dtype)


def verify_tolerances(dtype: str | None) -> dict:
    """Keyword tolerances for comparing a result of ``dtype`` to its reference.

    float32 accumulates rounding in a solver-dependent order and needs a
    loose gate; float64 (and bool) keep the strict ``np.allclose`` defaults.
    """
    return {"rtol": 1e-4, "atol": 1e-6} if dtype == "float32" else {}


def update_batch_for_algebra(n: int, seed: int, algebra="shortest-path",
                             count: int = 1) -> list[EdgeUpdate]:
    """A deterministic batch of *improving* edge updates for an algebra.

    Weights are drawn to dominate the generators' edge-weight ranges under
    the algebra's ⊕ — shorter than any existing shortest-path edge, wider
    than any widest-path edge, more reliable than any probability edge —
    so against a :func:`graph_for_algebra` graph every update classifies as
    an improvement and takes the rank-1 sweep (the path the dynamic suite
    measures).  Longest-path draws ordered ``u < v`` pairs so insertions
    keep the DAG acyclic.  Seeded, so benchmark replays and CLI batches are
    identical across runs and machines.
    """
    name = get_algebra(algebra).name
    rng = np.random.default_rng(seed)
    edges: list[EdgeUpdate] = []
    while len(edges) < count:
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u == v:
            continue
        if name == "longest-path" and u > v:
            u, v = v, u
        if name == "reachability":
            weight: float | bool = True
        elif name == "most-reliable":
            weight = float(rng.uniform(0.96, 0.999))
        elif name == "widest-path":
            weight = float(rng.uniform(50.0, 100.0))
        elif name == "longest-path":
            weight = float(rng.uniform(20.0, 30.0))
        else:
            weight = float(rng.uniform(0.01, 0.5))
        edges.append(EdgeUpdate(u, v, weight))
    return edges


def scenario_graph(scenario: BenchScenario) -> np.ndarray:
    """Generate the input graph for a scenario, respecting its algebra's domain."""
    return graph_for_algebra(scenario.n, scenario.seed, scenario.algebra,
                             directed=scenario.directed)


def scenario_reference(scenario: BenchScenario, adjacency: np.ndarray) -> np.ndarray:
    """The sequential ground-truth closure a scenario's result must match."""
    return reference_closure(adjacency, scenario.algebra, dtype=scenario.dtype)


def scenario_queries(scenario: BenchScenario, n: int) -> list[tuple[int, int]]:
    """The deterministic query stream a serve scenario replays.

    Seeded by the scenario, so identical across runs and machines (the
    baseline compare depends on it).  ``query_sources`` narrows the source
    pool — smaller pools mean more cache hits, which is the axis the serve
    suite sweeps.
    """
    rng = np.random.default_rng(scenario.seed)
    if scenario.query_sources > 0:
        pool = rng.choice(n, size=min(scenario.query_sources, n), replace=False)
    else:
        pool = np.arange(n)
    return [(int(rng.choice(pool)), int(rng.integers(n)))
            for _ in range(scenario.queries)]


def solve_scenario(scenario: BenchScenario, engine: APSPEngine,
                   adjacency: np.ndarray | None = None):
    """Run one scenario once on an existing engine session, returning the result.

    This is the exact workload the pytest-benchmark modules measure, so the
    JSON harness and pytest-benchmark share one definition of "one run".

    A ``workload="serve"`` scenario solves the closure, opens a serving
    session with the scenario's cache cap, and replays its query stream.
    The returned result is the closure's :class:`APSPResult` with the
    serving layer folded in: a ``"serve"`` entry in ``phase_seconds`` (the
    replay wall time) and flat ``serve_*`` keys in ``metrics`` (hit rate,
    evictions, latency percentiles, per-stage seconds).

    A ``workload="update"`` scenario solves with ``keep_closure=True`` and
    applies its deterministic improving batch through ``engine.update``
    under the scenario's mode; the update cost lands in
    ``phase_seconds["update"]`` and flat ``update_*`` metrics (edge counts,
    changed rows, the cost model's break-even, and whether the incremental
    path actually ran).  The returned distances are the *updated* closure —
    verification must compare against the mutated graph's reference.
    """
    if adjacency is None:
        adjacency = scenario_graph(scenario)
    if scenario.workload == "update":
        result = engine.solve(adjacency, scenario.request(), keep_closure=True)
        batch = update_batch_for_algebra(adjacency.shape[0],
                                         scenario.seed + 7919,
                                         scenario.algebra,
                                         scenario.update_batch)
        force = None if scenario.update_mode == "auto" else scenario.update_mode
        report = engine.update(batch, force=force)
        result.phase_seconds["update"] = report.seconds
        result.metrics.update({
            "update_edges": report.edges,
            "update_improvements": report.improvements,
            "update_worsenings": report.worsenings,
            "update_noops": report.noops,
            "update_changed_rows": report.changed_rows,
            "update_seconds": report.seconds,
            "update_break_even_edges": report.break_even_edges,
            "update_incremental": 1 if report.mode == "incremental" else 0,
        })
        return result
    if scenario.workload != "serve":
        return engine.solve(adjacency, scenario.request())
    service = engine.serve(adjacency, scenario.request(),
                           max_rows=scenario.cache_rows, keep_result=True)
    pairs = scenario_queries(scenario, adjacency.shape[0])
    start = time.perf_counter()
    service.routes(pairs)
    serve_seconds = time.perf_counter() - start
    result = service.closure_result
    result.phase_seconds["serve"] = serve_seconds
    stats = service.stats()
    serve_metrics = {f"serve_{key}": value for key, value in stats.items()
                     if not isinstance(value, dict) and key != "algebra"}
    for stage, seconds in stats["stage_seconds"].items():
        serve_metrics[f"serve_stage_{stage}_s"] = seconds
        serve_metrics[f"serve_stage_{stage}_count"] = stats["stage_counts"][stage]
    result.metrics.update(serve_metrics)
    return result


def run_suite(suite: BenchSuite, *, repeats: int | None = None,
              verify: bool = False,
              progress: Callable[[str], None] | None = None) -> list[ScenarioResult]:
    """Run every scenario of ``suite`` and return the measurements in order.

    Parameters
    ----------
    repeats:
        Override each scenario's own repeat count (the reported wall time is
        the best of the repeats — the usual benchmarking convention).
    verify:
        Additionally check each result against the sequential Floyd-Warshall
        reference (cached per graph, so the reference is computed once per
        problem size).
    progress:
        Optional sink for one human-readable line per scenario.
    """
    if repeats is not None and repeats < 1:
        raise ConfigurationError(f"repeats must be >= 1, got {repeats}")
    results: list[ScenarioResult] = []
    engines: dict[tuple, APSPEngine] = {}
    graphs: dict[tuple, np.ndarray] = {}
    references: dict[tuple, np.ndarray] = {}
    try:
        for scenario in suite.scenarios:
            config = scenario.engine_config()
            # Fault parameters are part of the pool key: a faulted scenario
            # must not inherit (or pollute) a fault-free scenario's context.
            config_key = (config.backend, config.num_executors,
                          config.cores_per_executor,
                          scenario.failure_rate, scenario.crash_rate,
                          scenario.seed if scenario.fault_plan() else None)
            engine = engines.get(config_key)
            if engine is None:
                engine = APSPEngine(config,
                                    fault_plan=scenario.fault_plan()).start()
                engines[config_key] = engine

            graph_key = (scenario.n, scenario.seed,
                         graph_domain(scenario.algebra,
                                      directed=scenario.directed))
            adjacency = graphs.get(graph_key)
            if adjacency is None:
                adjacency = scenario_graph(scenario)
                graphs[graph_key] = adjacency

            times: list[float] = []
            solve_result = None
            for _ in range(repeats if repeats is not None else scenario.repeats):
                start = time.perf_counter()
                solve_result = solve_scenario(scenario, engine, adjacency)
                times.append(time.perf_counter() - start)

            verified: bool | None = None
            if verify:
                if scenario.workload == "update":
                    # The update mutated the cached closure; the ground
                    # truth is the re-closure of the *mutated* adjacency
                    # (engine.closure holds it in the algebra's domain,
                    # which the reference solvers accept).  Uncached — the
                    # batch differs per scenario.
                    reference = reference_closure(engine.closure.adjacency,
                                                  scenario.algebra,
                                                  dtype=scenario.dtype)
                else:
                    ref_key = (*graph_key, scenario.algebra, scenario.dtype)
                    reference = references.get(ref_key)
                    if reference is None:
                        reference = scenario_reference(scenario, adjacency)
                        references[ref_key] = reference
                verified = get_algebra(scenario.algebra).allclose(
                    solve_result.distances, reference,
                    **verify_tolerances(scenario.dtype))

            solve_summary = {
                "q": solve_result.q,
                "block_size": solve_result.block_size,
                "iterations": solve_result.iterations,
                "num_partitions": solve_result.num_partitions,
                "gops": solve_result.gops,
            }
            tuner = solve_result.metrics.get("tuner")
            if tuner:
                # An auto scenario's params say "auto"; the archive must also
                # record what the tuner actually resolved it to, or the fit
                # and any later re-run of the scenario are incomparable.
                solve_summary["tuned_solver"] = tuner.get("solver")
                solve_summary["predicted_seconds"] = tuner.get(
                    "predicted_seconds")
            result = ScenarioResult(
                scenario=scenario,
                wall_seconds=min(times),
                all_seconds=times,
                phase_seconds=dict(solve_result.phase_seconds),
                metrics=dict(solve_result.metrics),
                solve=solve_summary,
                verified=verified,
            )
            results.append(result)
            if progress is not None:
                check = {True: " [verified]", False: " [MISMATCH]"}.get(verified, "")
                progress(f"{scenario.name}: {result.wall_seconds:.3f}s "
                         f"({len(times)} run(s)){check}")
    finally:
        for engine in engines.values():
            engine.stop()
    return results
