"""Chaos harness: solve + update + query under a seeded fault schedule.

The fault-tolerance acceptance driver behind ``apspark chaos``.  It runs the
same workload twice on identical engine configurations — once fault-free,
once under a :class:`~repro.spark.faults.FaultPlan` built from the command
line — and verifies that the faulted run is **bit-identical** to the clean
one: recovery (task retries, worker-pool rebuilds, staged-block re-stages,
speculative copies) must never change answers, only counters.

Reproducibility contract: every fault decision is a pure function of
``(seed, task/write index)`` (see :mod:`repro.spark.faults`), so
``apspark chaos --seed S`` injects the same schedule on every invocation
regardless of thread interleaving.  The workload itself (graph, update
batches, query pairs) is generated from the same seed through the shared
graph and update-batch generators.

Exit is nonzero on any exactness violation — a distance mismatch after the
solve, after any update batch, or on any served query.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.common.config import EngineConfig
from repro.common.rng import derive_seed, make_rng
from repro.core.dynamic import update_batch_for_algebra
from repro.core.engine import APSPEngine
from repro.core.request import SolveRequest
from repro.graph.generators import graph_for_algebra
from repro.spark.faults import FaultPlan

#: Fault-plan counters that say "a fault actually happened" — the run report
#: prints these next to the scheduler's recovery counters so they reconcile.
RECOVERY_COUNTERS = ("tasks_retried", "tasks_recomputed", "worker_restarts",
                     "speculative_launched", "speculative_wins",
                     "task_timeouts", "sharedfs_restages",
                     "sharedfs_integrity_failures")


@dataclass
class ChaosReport:
    """Outcome of one chaos run: verdict, counters, and what was compared."""

    n: int
    solver: str
    backend: str
    seed: int
    exact: bool
    solve_exact: bool
    updates_exact: bool
    queries_exact: bool
    update_batches: int
    queries: int
    failed_queries: int = 0
    injected: dict = field(default_factory=dict)
    recovered: dict = field(default_factory=dict)
    degraded: bool = False

    def lines(self) -> list[str]:
        """Human-readable report, one line per fact."""
        out = [f"chaos: n={self.n} solver={self.solver} "
               f"backend={self.backend} seed={self.seed}",
               "  injected: " + ", ".join(f"{k}={v}" for k, v
                                          in sorted(self.injected.items())),
               "  recovered: " + ", ".join(f"{k}={v}" for k, v
                                           in sorted(self.recovered.items())),
               f"  solve: {'bit-identical' if self.solve_exact else 'MISMATCH'}",
               f"  updates ({self.update_batches} batch(es)): "
               f"{'bit-identical' if self.updates_exact else 'MISMATCH'}",
               f"  queries ({self.queries}): "
               f"{'all match' if self.queries_exact else f'{self.failed_queries} MISMATCH(ES)'}"]
        if self.degraded:
            out.append("  serving went degraded during the run")
        out.append(f"exactness under faults: {'OK' if self.exact else 'VIOLATED'}")
        return out


def build_fault_plan(seed: int, *, failure_rate: float = 0.0,
                     crash_rate: float = 0.0, crashes: int = 0,
                     failures: int = 0, delays: int = 0,
                     corrupt_writes: int = 0, drop_writes: int = 0,
                     delay_seconds: float = 0.05,
                     index_pool: int = 64) -> FaultPlan:
    """Turn chaos-CLI knobs into a concrete :class:`FaultPlan`.

    Count-style knobs (``crashes``, ``failures``, ``delays``,
    ``corrupt_writes``, ``drop_writes``) pick that many *small* indices from
    ``[0, index_pool)`` with a seeded rng — small indices are guaranteed to
    occur early in any non-trivial run, so a requested fault actually fires.
    Rate-style knobs pass through and hit tasks by per-index draw.
    """
    rng = make_rng(derive_seed(seed, 0xC4A05))

    def pick(count: int) -> frozenset[int]:
        if count <= 0:
            return frozenset()
        count = min(int(count), index_pool)
        return frozenset(int(i) for i in
                         rng.choice(index_pool, size=count, replace=False))

    return FaultPlan(fail_task_indices=pick(failures),
                     crash_task_indices=pick(crashes),
                     delay_task_indices=pick(delays),
                     delay_seconds=delay_seconds,
                     corrupt_write_indices=pick(corrupt_writes),
                     drop_write_indices=pick(drop_writes),
                     failure_rate=failure_rate, crash_rate=crash_rate,
                     seed=seed)


def _query_pairs(n: int, seed: int, queries: int) -> list[tuple[int, int]]:
    rng = make_rng(derive_seed(seed, 0x9E37))
    return [(int(rng.integers(n)), int(rng.integers(n)))
            for _ in range(max(0, queries))]


def _run_workload(adjacency, request: SolveRequest, config: EngineConfig,
                  *, fault_plan: FaultPlan | None, update_edge_batches,
                  pairs) -> tuple[np.ndarray, list[np.ndarray], list, dict, dict, bool]:
    """Solve, apply every update batch, answer every query on one engine.

    Returns ``(closure after solve, closures after each batch, query
    distances, engine metrics, injector counters, degraded?)``.  The same
    function runs both the clean and the faulted leg so the two are
    comparable stage by stage.
    """
    with APSPEngine(config, fault_plan=fault_plan) as engine:
        service = engine.serve(adjacency, request)
        solve_distances = np.array(engine.closure.distances, copy=True)
        batch_distances = []
        for batch in update_edge_batches:
            engine.update(batch)
            batch_distances.append(np.array(engine.closure.distances, copy=True))
        answers = []
        for src, dst in pairs:
            answers.append(service.route(src, dst).distance)
        degraded = bool(service.stats().get("degraded", False))
        metrics = engine.metrics
        injected = engine.context.fault_injector.counters()
    return solve_distances, batch_distances, answers, metrics, injected, degraded


def run_chaos(*, n: int = 96, seed: int = 0, solver: str = "blocked-cb",
              backend: str = "threads", algebra: str = "shortest-path",
              block_size: int | None = None, executors: int = 2, cores: int = 2,
              fault_plan: FaultPlan | None = None, update_batches: int = 2,
              edges_per_batch: int = 4, queries: int = 32,
              progress=None) -> ChaosReport:
    """Run the two-leg chaos workload and return the verdict + counters."""
    say = progress or (lambda line: None)
    request = SolveRequest(solver=solver, block_size=block_size,
                           algebra=algebra)
    adjacency = graph_for_algebra(n, seed, request.algebra)
    edges = update_batch_for_algebra(
        n, seed + 7919, request.algebra,
        max(0, update_batches) * max(1, edges_per_batch))
    batches = [edges[i * edges_per_batch:(i + 1) * edges_per_batch]
               for i in range(max(0, update_batches))]
    batches = [b for b in batches if b]
    pairs = _query_pairs(n, seed, queries)
    config = EngineConfig(backend=backend, num_executors=executors,
                          cores_per_executor=cores, seed=seed)

    say(f"clean leg: solve n={n} + {len(batches)} update batch(es) "
        f"+ {len(pairs)} queries on {backend}")
    ref_solve, ref_batches, ref_answers, _, _, _ = _run_workload(
        adjacency, request, config, fault_plan=None,
        update_edge_batches=batches, pairs=pairs)

    plan = fault_plan or FaultPlan()
    say(f"faulted leg: same workload under seeded fault plan (seed={plan.seed})")
    got_solve, got_batches, got_answers, metrics, injected, degraded = _run_workload(
        adjacency, request, config, fault_plan=plan,
        update_edge_batches=batches, pairs=pairs)

    solve_exact = bool(np.array_equal(ref_solve, got_solve))
    updates_exact = (len(ref_batches) == len(got_batches)
                     and all(np.array_equal(a, b) for a, b
                             in zip(ref_batches, got_batches)))
    failed_queries = sum(1 for a, b in zip(ref_answers, got_answers)
                         if not (a == b or (a != a and b != b)))
    queries_exact = failed_queries == 0 and len(ref_answers) == len(got_answers)
    recovered = {key: metrics.get(key, 0) for key in RECOVERY_COUNTERS}
    return ChaosReport(n=n, solver=solver, backend=backend, seed=seed,
                       exact=solve_exact and updates_exact and queries_exact,
                       solve_exact=solve_exact, updates_exact=updates_exact,
                       queries_exact=queries_exact, update_batches=len(batches),
                       queries=len(pairs), failed_queries=failed_queries,
                       injected=injected, recovered=recovered,
                       degraded=degraded)
