"""`APSPEngine`: a persistent session that runs many solves on one context.

The paper's experiments (Tables 2/3, Figures 2/3/5) all run dozens of solves
against a single long-lived Spark cluster.  :class:`APSPEngine` models that
shape: it owns one :class:`~repro.spark.context.SparkContext` for its whole
lifetime, accepts typed :class:`~repro.core.request.SolveRequest` objects,
and offers both a synchronous :meth:`solve` and a batch interface
(:meth:`submit` / :meth:`solve_many`) that hands back :class:`APSPJob`
records with stable job ids, per-job timings, and per-job engine metrics.

Example
-------
>>> from repro.graph import erdos_renyi_adjacency
>>> from repro.core.engine import APSPEngine
>>> from repro.core.request import SolveRequest
>>> adj = erdos_renyi_adjacency(48, seed=7)
>>> with APSPEngine() as engine:
...     a = engine.solve(adj, SolveRequest(solver="blocked-cb", block_size=16))
...     b = engine.solve(adj, solver="blocked-im", block_size=12)
...     engine.stats()["jobs_completed"]
2
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Iterable

import numpy as np

from repro.common.config import EngineConfig, default_config
from repro.common.errors import ConfigurationError, SolverError
from repro.core import dynamic
from repro.core.base import APSPResult, SolvePlan, SparkAPSPSolver
from repro.core.dynamic import ClosureState
from repro.core.registry import get_solver_class
from repro.core.request import SolveRequest, UpdateReport
from repro.core.tuner import TunerDecision, resolve_auto
from repro.linalg import native
from repro.serve.service import RouteAnswer, RouteService
from repro.spark.context import SparkContext

#: Job lifecycle states.
JOB_PENDING = "pending"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"


@dataclass
class APSPJob:
    """One unit of engine work: a request plus its lifecycle and outcome.

    Jobs are created by :meth:`APSPEngine.submit` in the ``pending`` state;
    :meth:`result` (or the engine's :meth:`APSPEngine.run_pending` /
    :meth:`APSPEngine.solve_many`) drives them to ``done`` or ``failed``.
    ``job_id`` values are stable and ordered (``job-0001``, ``job-0002``, …)
    within one engine session.
    """

    job_id: str
    request: SolveRequest
    adjacency: np.ndarray | None  # released once the job has executed
    status: str = JOB_PENDING
    elapsed_seconds: float | None = None
    error: Exception | None = None
    _result: APSPResult | None = field(default=None, repr=False)
    _engine: "APSPEngine | None" = field(default=None, repr=False)
    capture_plan: bool = field(default=False, repr=False)
    _plan: SolvePlan | None = field(default=None, repr=False)
    #: Set when the request arrived as ``solver="auto"``: the calibrated
    #: tuner's choice, echoed into the result's metrics after execution.
    tuner_decision: TunerDecision | None = field(default=None, repr=False)

    @property
    def done(self) -> bool:
        """True once the job has a result (or failed)."""
        return self.status in (JOB_DONE, JOB_FAILED)

    def result(self) -> APSPResult:
        """Return the solve result, executing the job now if still pending.

        Raises the job's original error if execution failed.
        """
        if self.status == JOB_PENDING:
            if self._engine is None:
                raise SolverError(f"{self.job_id} is detached from its engine")
            self._engine._execute_job(self)
        if self.error is not None:
            raise self.error
        assert self._result is not None
        return self._result

    def summary(self) -> str:
        """One-line status summary."""
        timing = f" {self.elapsed_seconds:.3f}s" if self.elapsed_seconds is not None else ""
        return f"{self.job_id} [{self.status}]{timing} {self.request.describe()}"


class APSPEngine:
    """A reusable APSP solving session backed by a single Spark context.

    Parameters
    ----------
    config:
        Engine configuration shared by every solve of the session.  The
        config object is never mutated: temporary shared-filesystem
        directories are owned (and cleaned up) by the underlying context,
        not written back into the config.
    fault_plan:
        Optional :class:`~repro.spark.faults.FaultPlan` injected into the
        session's context — the chaos driver and the fault-tolerance tests
        use this to schedule crashes/timeouts/corruptions deterministically.

    Use as a context manager (``with APSPEngine(cfg) as engine: ...``) or
    call :meth:`start` / :meth:`stop` explicitly.  All solves of a session
    share one :class:`SparkContext`, so per-session engine metrics
    (:attr:`metrics`) accumulate across solves while each
    :class:`~repro.core.base.APSPResult` still reports its own delta.
    """

    def __init__(self, config: EngineConfig | None = None,
                 fault_plan=None) -> None:
        self.config = config or default_config()
        self._fault_plan = fault_plan
        self._context: SparkContext | None = None
        self._closed = False
        self._job_counter = itertools.count(1)
        self.jobs: list[APSPJob] = []
        self._jobs_submitted = 0
        self._solves_completed = 0
        self._solves_failed = 0
        self._total_solve_seconds = 0.0
        self._started_at: float | None = None
        self._service: RouteService | None = None
        self._closure: ClosureState | None = None
        #: The closure ``_service`` was opened on: update() publishes to the
        #: service only while that is still the session's closure.
        self._served_closure: ClosureState | None = None
        self._update_batches = 0
        self._update_edges = 0
        self._updates_incremental = 0
        self._updates_resolved = 0
        self._updates_failed = 0
        self._update_seconds = 0.0
        self._tuner_decision_count = 0
        self._last_tuner_decision: TunerDecision | None = None

    # ------------------------------------------------------------------ lifecycle
    def __enter__(self) -> "APSPEngine":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def running(self) -> bool:
        """True while the session owns a live Spark context."""
        return self._context is not None

    @property
    def context(self) -> SparkContext:
        """The session's Spark context (started lazily on first access).

        Once :meth:`stop` has been called the session is closed and this
        raises instead of silently spinning up a context nothing would ever
        stop; call :meth:`start` (or enter a new ``with`` block) to reopen.
        """
        if self._context is None:
            if self._closed:
                raise SolverError(
                    "engine session is stopped; call start() (or use a new "
                    "'with' block) before solving again")
            self.start()
        assert self._context is not None
        return self._context

    def start(self) -> "APSPEngine":
        """Create the session's Spark context (idempotent; reopens after stop())."""
        self._closed = False
        if self._context is None:
            self._context = SparkContext(self.config, self._fault_plan)
            self._started_at = time.perf_counter()
        return self

    def stop(self) -> None:
        """Stop the context, releasing scheduler threads and any owned temp storage."""
        self._closed = True
        if self._context is not None:
            self._context.stop()
            self._context = None

    # ------------------------------------------------------------------ submission
    def _resolve_auto(self, request: SolveRequest, adjacency
                      ) -> tuple[SolveRequest, TunerDecision | None]:
        """Run a ``solver="auto"`` request through the tuner (else pass through).

        Only a counter and the latest decision are kept: planning and
        submitting must not grow session memory without bound.
        """
        if request.solver != "auto":
            return request, None
        request, decision = resolve_auto(request, adjacency, config=self.config)
        self._tuner_decision_count += 1
        self._last_tuner_decision = decision
        return request, decision

    def submit(self, adjacency: np.ndarray, request: SolveRequest | None = None,
               **kwargs: Any) -> APSPJob:
        """Enqueue one solve and return its :class:`APSPJob` (not yet executed).

        Accepts a prebuilt :class:`SolveRequest`, loose keyword options
        (``solver=..., block_size=...``), or both (keywords override).
        """
        # An auto request resolves now, while the adjacency is in hand (its
        # size and symmetry shape the candidate space).
        req, decision = self._resolve_auto(
            SolveRequest.coerce(request, **kwargs), adjacency)
        job = APSPJob(job_id=f"job-{next(self._job_counter):04d}", request=req,
                      adjacency=adjacency, _engine=self,
                      tuner_decision=decision)
        self.jobs.append(job)
        self._jobs_submitted += 1
        return job

    def solve(self, adjacency: np.ndarray, request: SolveRequest | None = None,
              *, keep_closure: bool = False, **kwargs: Any) -> APSPResult:
        """Solve one instance synchronously on the session context.

        The transient job is dropped from :attr:`jobs` once the result is
        returned (the caller holds the result; keeping a second reference
        per solve would grow session memory without bound), while the
        session counters in :meth:`stats` still record it.

        ``keep_closure=True`` additionally caches the solved closure — the
        distance matrix, the prepared adjacency, and the predecessor matrix
        for ``paths=True`` requests — as the session's
        :class:`~repro.core.dynamic.ClosureState`, enabling subsequent
        :meth:`update` calls to maintain it incrementally instead of
        re-solving from scratch.
        """
        job = self.submit(adjacency, request, **kwargs)
        job.capture_plan = keep_closure
        try:
            result = job.result()
        finally:
            self.jobs.remove(job)
        if keep_closure:
            assert job._plan is not None
            self._closure = ClosureState(result, job._plan.adjacency)
        return result

    def solve_many(self, items: Iterable[np.ndarray | tuple[np.ndarray, SolveRequest]],
                   request: SolveRequest | None = None, **kwargs: Any) -> list[APSPJob]:
        """Submit and run a batch, returning the finished jobs in order.

        ``items`` is a sequence of adjacency matrices — or of
        ``(adjacency, request)`` pairs for per-item requests.  A shared
        ``request`` (or loose keywords) applies to the bare matrices.
        Failed jobs are returned with ``status == "failed"`` and the error
        attached rather than aborting the rest of the batch.
        """
        jobs: list[APSPJob] = []
        for item in items:
            if isinstance(item, tuple):
                adjacency, item_request = item
                jobs.append(self.submit(adjacency, item_request))
            else:
                jobs.append(self.submit(item, request, **kwargs))
        for job in jobs:
            try:
                job.result()
            except Exception:  # noqa: BLE001 — recorded on the job
                pass
        return jobs

    def clear_jobs(self) -> list[APSPJob]:
        """Drop finished jobs from the session history and return them.

        Pending jobs are kept.  Session counters (``jobs_completed`` etc.)
        are unaffected, so :meth:`stats` still reflects the whole session;
        this only releases the per-job objects (and the results they hold)
        for long-running sessions.
        """
        finished = [job for job in self.jobs if job.done]
        self.jobs = [job for job in self.jobs if not job.done]
        return finished

    def run_pending(self) -> list[APSPJob]:
        """Execute every still-pending job; returns the jobs that were run."""
        pending = [job for job in self.jobs if job.status == JOB_PENDING]
        for job in pending:
            try:
                job.result()
            except Exception:  # noqa: BLE001 — recorded on the job
                pass
        return pending

    # ------------------------------------------------------------------ serving
    @property
    def service(self) -> RouteService | None:
        """The session's open :class:`RouteService`, or None before serve()."""
        return self._service

    def serve(self, adjacency: np.ndarray, request: SolveRequest | None = None,
              *, budget_bytes: int | None = None, max_rows: int | None = None,
              keep_result: bool = False, **kwargs: Any) -> RouteService:
        """Solve the closure once, then open a route-serving session over it.

        Runs one ``paths=False`` solve (distances only — parent rows are
        solved *lazily* per queried source, which is the whole point: the
        full ``n x n`` predecessor matrix is never materialized) and returns
        a :class:`~repro.serve.service.RouteService` bound to the cached
        closure.  The service is also reachable through :attr:`service` /
        :meth:`route` / :meth:`routes`, and its analytics ride along in
        :meth:`stats` under the ``"serve"`` key.

        ``budget_bytes`` / ``max_rows`` bound the parent-row cache;
        ``keep_result`` retains the full :class:`APSPResult` on the service
        (``service.closure_result``) for callers that also want the solve's
        metrics.  A ``paths=True`` request is rejected: eagerly solving the
        predecessor matrix would defeat the lazy row cache.
        """
        req = SolveRequest.coerce(request, **kwargs)
        if req.paths:
            raise ConfigurationError(
                "serve() computes parent rows lazily per queried source; "
                "request paths=False (the default) instead of paths=True")
        result = self.solve(adjacency, req, keep_closure=True)
        # Row solves read edges from the same domain the solver saw: prepared
        # dense (missing = algebra zero) or canonical CSR — never densified.
        # The service starts on the closure's first version; update()
        # publishes each later one to it.
        assert self._closure is not None
        service = RouteService(result.distances, self._closure.adjacency,
                               req.algebra, budget_bytes=budget_bytes,
                               max_rows=max_rows,
                               result=result if keep_result else None)
        self._service = service
        self._served_closure = self._closure
        return service

    def route(self, src: int, dst: int) -> RouteAnswer:
        """Answer one route query on the session's open serving session."""
        return self._require_service().route(src, dst)

    def routes(self, pairs) -> list[RouteAnswer]:
        """Answer a batch of ``(src, dst)`` queries on the open serving session."""
        return self._require_service().routes(pairs)

    def _require_service(self) -> RouteService:
        if self._service is None:
            raise SolverError(
                "no serving session is open; call engine.serve(adjacency, ...) "
                "to solve a closure and start answering route queries")
        return self._service

    # ------------------------------------------------------------------ updates
    @property
    def closure(self) -> ClosureState | None:
        """The cached closure from the last ``keep_closure`` solve / serve()."""
        return self._closure

    def update(self, edges, *, force: str | None = None) -> UpdateReport:
        """Apply a batch of edge updates to the session's cached closure.

        ``edges`` is an iterable of :class:`~repro.core.request.EdgeUpdate`
        objects or ``(u, v, weight)`` tuples (``weight=None`` or a bare
        ``(u, v)`` pair deletes the edge).  Requires a cached closure from
        ``solve(..., keep_closure=True)`` or :meth:`serve`.

        Mode selection is cost-model driven: a batch of k improvements costs
        ``O(k n²)`` rank-1 sweeps against the cached closure versus ``O(n³)``
        for a re-solve, so batches below the estimated break-even size
        (:func:`~repro.cluster.costmodel.update_break_even`, roughly
        ``0.46 n`` edges for an undirected dense float64 closure) run
        incrementally and larger ones fall back to a full re-closure.
        Worsenings (weight increases / deletions) use the restricted path —
        only rows whose optimal routes crossed the old edge are recomputed —
        and escalate to a re-solve when that set grows past a quarter of all
        rows.  ``force="incremental"`` / ``force="resolve"`` overrides the
        model (a non-absorptive algebra such as longest-path still refuses
        ``"incremental"``: rank-1 sweeps are unsound there).

        The batch runs on a private draft of the closure
        (:meth:`~repro.core.dynamic.ClosureState.fork`) and is published only
        once it has fully succeeded: the cached closure is rebound to the
        draft, and a serving session opened on this closure receives the new
        version plus exactly the changed rows to drop from its parent-row
        cache.  On any failure — mid-sweep or in the re-solve fallback —
        nothing is published: closure and service keep the last good
        version, the service is marked degraded, and the error is re-raised.
        Returns an :class:`~repro.core.request.UpdateReport` with the
        decision, per-kind edge counts, and the cost-model estimates.
        """
        state = self._closure
        if state is None:
            raise SolverError(
                "no cached closure to update; run solve(..., keep_closure="
                "True) or serve(...) first")
        if force not in (None, "incremental", "resolve"):
            raise ConfigurationError(
                f"force must be None, 'incremental' or 'resolve', got {force!r}")
        batch = dynamic.coerce_edges(edges)
        estimates = dynamic.update_estimates(state, len(batch))
        if not batch:
            return UpdateReport(
                mode="noop", reason="empty batch", edges=0,
                improvements=0, worsenings=0, noops=0, changed_rows=0,
                estimated_incremental_seconds=0.0,
                estimated_resolve_seconds=estimates["resolve_seconds"],
                break_even_edges=estimates["break_even_edges"])
        if force == "incremental" and not state.algebra.absorptive:
            raise ConfigurationError(
                f"algebra {state.algebra.name!r} is not absorptive: a rank-1 "
                f"sweep may route a path through a vertex twice, which only "
                f"absorptive semirings ignore; use force='resolve' or "
                f"automatic mode")
        if force is not None:
            mode, reason = force, f"forced {force}"
        elif not state.algebra.absorptive:
            mode = "resolve"
            reason = (f"algebra {state.algebra.name} is not absorptive; "
                      f"rank-1 sweeps are unsound")
        elif len(batch) >= estimates["break_even_edges"]:
            mode = "resolve"
            reason = (f"batch of {len(batch)} edges >= break-even "
                      f"{estimates['break_even_edges']}")
        else:
            mode = "incremental"
            reason = (f"batch of {len(batch)} edges < break-even "
                      f"{estimates['break_even_edges']}")
        start = time.perf_counter()
        changed_rows: np.ndarray | None = None  # None = every row changed
        bound_service = (self._service if self._served_closure is state
                         else None)
        draft = state.fork()
        try:
            if mode == "incremental":
                outcome = dynamic.apply_incremental(
                    draft, batch, allow_fallback=force != "incremental")
                if outcome.fallback_reason is not None:
                    mode, reason = "resolve", outcome.fallback_reason
                    self._resolve_closure(draft)
                else:
                    changed_rows = np.flatnonzero(outcome.changed)
            else:
                outcome = dynamic.fold_edges(
                    draft, batch,
                    dynamic.UpdateOutcome(changed=np.ones(state.n, dtype=bool)))
                self._resolve_closure(draft)
        except Exception as exc:  # noqa: BLE001 — draft dropped, re-raised
            self._updates_failed += 1
            if bound_service is not None:
                bound_service.mark_degraded(exc)
            raise
        elapsed = time.perf_counter() - start
        draft.updates_applied += 1
        draft.edges_applied += len(batch)
        state.commit(draft)
        self._update_batches += 1
        self._update_edges += len(batch)
        self._update_seconds += elapsed
        if mode == "incremental":
            self._updates_incremental += 1
        else:
            self._updates_resolved += 1
        if bound_service is not None:
            bound_service.publish(state.distances, state.adjacency,
                                  changed_rows)
            bound_service.mark_healthy()
        return UpdateReport(
            mode=mode, reason=reason, edges=len(batch),
            improvements=outcome.improvements,
            worsenings=outcome.worsenings, noops=outcome.noops,
            changed_rows=(state.n if changed_rows is None
                          else int(changed_rows.size)),
            affected_rows=outcome.affected_rows,
            repaired_parent_rows=outcome.repaired_parent_rows,
            seconds=elapsed,
            estimated_incremental_seconds=estimates["incremental_seconds"],
            estimated_resolve_seconds=estimates["resolve_seconds"],
            break_even_edges=estimates["break_even_edges"])

    def _resolve_closure(self, draft: ClosureState) -> None:
        """Full re-closure of a draft's (already edited) adjacency.

        The adjacency round-trips through the normal solve path in the form
        it is held — a prepared domain matrix (zero-valued cells are absorbed
        by ⊕, the diagonal is re-pinned to ``one``) or a canonical CSR,
        ingested without densifying as on a first solve — and the draft
        adopts the fresh arrays; nothing is copied.
        """
        draft.adopt(self.solve(draft.adjacency, draft.request))

    # ------------------------------------------------------------------ planning
    def plan(self, adjacency: np.ndarray, request: SolveRequest | None = None,
             **kwargs: Any) -> SolvePlan:
        """Resolve geometry for a would-be solve without running it."""
        req, _ = self._resolve_auto(SolveRequest.coerce(request, **kwargs),
                                    adjacency)
        return self._solver_for(req).prepare(adjacency)

    def _solver_for(self, request: SolveRequest) -> SparkAPSPSolver:
        solver_cls = get_solver_class(request.solver)
        return solver_cls(config=self.config, request=request)

    # ------------------------------------------------------------------ execution
    def _execute_job(self, job: APSPJob) -> None:
        solver = self._solver_for(job.request)
        job.status = JOB_RUNNING
        start = time.perf_counter()
        try:
            plan = solver.prepare(job.adjacency)
            result = solver.execute(plan, self.context)
            if job.capture_plan:
                # The plan carries the *prepared* adjacency (algebra domain /
                # canonical CSR) — exactly what dynamic updates classify
                # against, so keep_closure solves retain it.
                job._plan = plan
        except Exception as exc:  # noqa: BLE001 — surfaced via job.result()
            job.elapsed_seconds = time.perf_counter() - start
            job.status = JOB_FAILED
            job.error = exc
            self._solves_failed += 1
            return
        finally:
            # Release the input and any staged shared-fs blocks so a
            # long-lived session's memory/disk footprint stays bounded by
            # one solve, not the whole job history.
            job.adjacency = None
            if self._context is not None:
                self._context.clear_shared_fs()
        job.elapsed_seconds = time.perf_counter() - start
        job.status = JOB_DONE
        if job.tuner_decision is not None:
            # Make the auto-tuner's choice (and its predicted wall)
            # observable next to the measured one on the result itself.
            result.metrics["tuner"] = job.tuner_decision.as_dict()
        job._result = result
        self._solves_completed += 1
        self._total_solve_seconds += job.elapsed_seconds

    # ------------------------------------------------------------------ metrics
    @property
    def metrics(self) -> dict:
        """Engine data-movement counters accumulated across the whole session."""
        if self._context is None:
            return {}
        return self._context.metrics.as_dict()

    def stats(self) -> dict:
        """Aggregated session statistics (jobs, timings, data movement)."""
        stats = {
            "jobs_submitted": self._jobs_submitted,
            "jobs_completed": self._solves_completed,
            "jobs_failed": self._solves_failed,
            "jobs_pending": sum(1 for j in self.jobs if j.status == JOB_PENDING),
            "total_solve_seconds": self._total_solve_seconds,
            "session_seconds": (time.perf_counter() - self._started_at
                                if self._started_at is not None else 0.0),
        }
        stats.update(self.metrics)
        stats.update(native.describe())
        if self._service is not None:
            stats["serve"] = self._service.stats()
        if self._last_tuner_decision is not None:
            stats["tuner"] = {
                "decisions": self._tuner_decision_count,
                "last": self._last_tuner_decision.as_dict(),
            }
        if self._update_batches or self._updates_failed:
            stats["updates"] = {
                "batches": self._update_batches,
                "edges": self._update_edges,
                "incremental": self._updates_incremental,
                "resolves": self._updates_resolved,
                "failed": self._updates_failed,
                "update_seconds": self._update_seconds,
            }
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "running" if self.running else "stopped"
        return (f"APSPEngine({state}, jobs={len(self.jobs)}, "
                f"completed={self._solves_completed}, failed={self._solves_failed})")
