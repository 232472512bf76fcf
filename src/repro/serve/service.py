"""`RouteService`: online ``route(src, dst)`` queries over a cached closure.

The batch solvers answer "how far is everything from everything?" once; a
serving workload asks "how do I get from A to B?" millions of times.  The
closure matrix is the index — every distance is already there — but paths
are not: materializing the full ``n x n`` predecessor matrix per query (or
even once, for large ``n``) is exactly the memory wall the serving layer
exists to avoid.  :class:`RouteService` instead solves **per-source parent
rows lazily** from the cached closure:

1. *row_solve* — on a cache miss, a single vectorized tight-predecessor
   sweep (:func:`~repro.linalg.witness.solve_parent_row`, O(n²) dense /
   O(nnz) CSR) builds the ``4 n``-byte parent row for the query's source;
2. *repair* — when equal-value plateaus made the fast row cyclic
   (:func:`~repro.linalg.witness.consistent_parent_row` fails), the row is
   rebuilt by tight-edge BFS layering
   (:func:`~repro.linalg.witness.rebuild_parent_row`) — the per-row analogue
   of the solver-side ``repair_parents`` pass;
3. *path_walk* — the pointer chase that actually answers the query.

Rows live in an LRU :class:`~repro.serve.cache.ParentRowCache` under a
byte/row budget, and every query feeds the
:class:`~repro.serve.analytics.ServeAnalytics` stream (latency percentiles,
per-stage attribution), so ``stats()`` can say not just *how slow* but
*which stage* and *whose cache miss*.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.common.errors import SolverError, ValidationError
from repro.graph.sparse import is_sparse
from repro.linalg import witness
from repro.linalg.algebra import Semiring, get_algebra
from repro.serve.analytics import ServeAnalytics
from repro.serve.cache import ParentRowCache


@dataclass(frozen=True)
class RouteAnswer:
    """One answered route query.

    ``path`` is the vertex list ``(src, ..., dst)`` — or ``None`` for an
    unreachable pair (a valid answer, not an error).  ``distance`` is the
    closure entry under the service's algebra (``inf``/``False``/... for
    unreachable pairs, whatever the algebra's ``zero`` is).  ``cached`` says
    whether the parent row came from the cache (``None`` when no row was
    needed: trivial ``src == dst`` and unreachable queries are answered from
    the closure alone).  ``repaired`` flags that this query paid the
    plateau-repair stage.
    """

    src: int
    dst: int
    distance: object
    path: tuple[int, ...] | None
    cached: bool | None
    repaired: bool
    seconds: float

    @property
    def reachable(self) -> bool:
        """True when a path exists (including the trivial one-vertex path)."""
        return self.path is not None

    @property
    def num_edges(self) -> int:
        """Edge count of the path (0 for trivial or unreachable answers)."""
        return 0 if self.path is None else len(self.path) - 1

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        route = "unreachable" if self.path is None else " -> ".join(map(str, self.path))
        return f"{self.src} -> {self.dst}: {route} ({self.distance})"


class RouteService:
    """Answer distance + path queries from a solved closure, one row at a time.

    Parameters
    ----------
    distances:
        The solved ``n x n`` closure matrix (any witness-capable algebra).
    adjacency:
        The *prepared* adjacency the closure was solved from — dense in the
        algebra's domain (missing edges = ``zero``, diagonal = ``one``) or
        canonical CSR (stored entries = edges).  Row solves and repairs read
        edges from here; it is never densified for CSR inputs.
    algebra:
        Name or :class:`~repro.linalg.algebra.Semiring`; must support
        witnesses (otherwise there is no notion of a parent row).
    budget_bytes / max_rows:
        Parent-row cache budgets (see :class:`ParentRowCache`); both
        ``None`` = cache every row ever solved.
    result:
        Optional :class:`~repro.core.base.APSPResult` the closure came from,
        kept for provenance (``service.closure_result``).
    """

    def __init__(self, distances: np.ndarray, adjacency, algebra,
                 *, budget_bytes: int | None = None, max_rows: int | None = None,
                 result=None) -> None:
        self.algebra: Semiring = witness.require_witness(
            get_algebra(algebra), "RouteService")
        dist = np.asarray(distances)
        if dist.ndim != 2 or dist.shape[0] != dist.shape[1]:
            raise ValidationError(
                f"closure matrix must be square, got shape {dist.shape}")
        if adjacency.shape != dist.shape:
            raise ValidationError(
                f"adjacency shape {adjacency.shape} does not match the "
                f"closure shape {dist.shape}")
        self.distances = dist
        self._bind_adjacency(adjacency)
        self.n = dist.shape[0]
        self._zero = self.algebra.zero_like(dist.dtype)
        self.cache = ParentRowCache(budget_bytes=budget_bytes, max_rows=max_rows)
        self.analytics = ServeAnalytics()
        self.closure_result = result
        # One lock serializes cache/analytics/degradation mutations (queries
        # under the threads backend arrive concurrently); per-source locks
        # dedup row solves so N simultaneous misses for one source pay one
        # O(n²) solve, while misses for different sources still parallelize.
        self._lock = threading.RLock()
        self._row_locks: dict[int, threading.Lock] = {}
        self._degraded = False
        self._last_error: str | None = None
        self._failed_update_batches = 0
        self._degraded_since: float | None = None

    def _bind_adjacency(self, adjacency) -> None:
        """Bind one adjacency version; a CSR's edge arrays are derived here,
        once per version, instead of on every cache miss."""
        self.adjacency = adjacency
        self._row_edges = (witness.CsrEdges.of(adjacency, self.distances.dtype)
                           if is_sparse(adjacency) else adjacency)

    # ------------------------------------------------------------------ rows
    def parent_row(self, source: int, *,
                   stages: dict[str, float] | None = None) -> np.ndarray:
        """The parent row for ``source``: cached, or lazily solved + cached.

        A miss runs the vectorized row solve, validates the row's pointer
        chains, repairs it by BFS layering if a plateau made them cyclic,
        and stores the result.  ``stages`` (when given) receives the
        per-stage seconds of whatever work this call actually did.

        Concurrent misses for the same source are deduplicated: the first
        caller solves under that source's lock, everyone else waits and then
        finds the row cached (their second lookup counts as the hit it is).
        """
        source = self._check_vertex(source, "source")
        with self._lock:
            if self.cache.peek(source) is not None:
                return self.cache.lookup(source)
            row_lock = self._row_locks.setdefault(source, threading.Lock())
        with row_lock:
            with self._lock:
                if self.cache.peek(source) is not None:
                    # A concurrent solver beat us to the store while we
                    # waited on the row lock; count the hit it is.
                    return self.cache.lookup(source)
                # We are the solver for this source: count this call's one
                # miss now (every parent_row call is exactly one hit or one
                # miss, no matter how many threads pile onto a cold source).
                self.cache.lookup(source)
                # One adjacency version per row: an update may rebind it
                # between the solve and the repair below.
                adjacency, row_edges = self.adjacency, self._row_edges
            start = time.perf_counter()
            row = witness.solve_parent_row(source, self.distances,
                                           row_edges, self.algebra)
            reachable = self.distances[source] != self._zero
            consistent = witness.consistent_parent_row(row, source,
                                                       reachable=reachable)
            solve_seconds = time.perf_counter() - start
            if stages is not None:
                stages["row_solve"] = stages.get("row_solve", 0.0) + solve_seconds
            if not consistent:
                start = time.perf_counter()
                row = witness.rebuild_parent_row(source, self.distances,
                                                 adjacency, self.algebra)
                if stages is not None:
                    stages["repair"] = (stages.get("repair", 0.0)
                                        + time.perf_counter() - start)
            with self._lock:
                self.cache.store(source, row)
                self._row_locks.pop(source, None)
        return row

    def notify_update(self, changed_rows=None, *, adjacency=None) -> int:
        """Drop parent rows whose sources a dynamic closure update changed.

        The engine calls this after :meth:`~repro.core.engine.APSPEngine.update`
        mutated the closure in place: the distances array the service reads
        is already current (same ndarray), but cached parent rows for the
        changed sources describe paths that may no longer be optimal — or,
        after a deletion, no longer exist.  ``changed_rows`` is an iterable
        of source indices (``None`` = drop every cached row, the re-solve
        fallback).  ``adjacency`` rebinds the edge source when the update
        replaced it: a dense plane is edited in place and arrives as the
        object already bound, while every edit of a CSR-ingested closure
        yields a new CSR that row solves must follow.  Returns the number of
        rows dropped.
        """
        with self._lock:
            if adjacency is not None and adjacency is not self.adjacency:
                if adjacency.shape != self.distances.shape:
                    raise ValidationError(
                        f"updated adjacency shape {adjacency.shape} does not "
                        f"match the closure shape {self.distances.shape}")
                self._bind_adjacency(adjacency)
            if changed_rows is None:
                return self.cache.invalidate()
            dropped = 0
            for source in np.asarray(changed_rows).reshape(-1).tolist():
                dropped += self.cache.invalidate(int(source))
            return dropped

    # ------------------------------------------------------------------ degradation
    def mark_degraded(self, error: BaseException) -> None:
        """Enter degraded mode: a closure update failed and was rolled back.

        The service keeps answering every query from the last good closure
        (the rollback restored it in place); this only records *that* the
        closure is stale and why, for :meth:`stats` to surface.
        """
        with self._lock:
            self._degraded = True
            self._last_error = f"{type(error).__name__}: {error}"
            self._failed_update_batches += 1
            if self._degraded_since is None:
                self._degraded_since = time.perf_counter()

    def mark_healthy(self) -> None:
        """Leave degraded mode: an update committed, the closure is fresh again."""
        with self._lock:
            self._degraded = False
            self._last_error = None
            self._failed_update_batches = 0
            self._degraded_since = None

    @property
    def degraded(self) -> bool:
        """True while the service answers from a stale (but consistent) closure."""
        with self._lock:
            return self._degraded

    def _check_vertex(self, vertex: int, name: str) -> int:
        vertex = int(vertex)
        if not 0 <= vertex < self.n:
            raise ValidationError(
                f"route {name} {vertex} out of range for n={self.n}")
        return vertex

    # ------------------------------------------------------------------ queries
    def distance(self, src: int, dst: int):
        """The closure entry for ``(src, dst)`` — no row solve, no analytics."""
        src = self._check_vertex(src, "source")
        dst = self._check_vertex(dst, "destination")
        return self.distances[src, dst]

    def route(self, src: int, dst: int) -> RouteAnswer:
        """Answer one query: distance plus the optimal path's vertex list.

        Unreachable pairs return ``path=None`` (valid answer; no parent row
        is ever solved for them).  Endpoint validation errors raise before
        anything is recorded; a genuinely inconsistent closure raises
        :class:`~repro.common.errors.SolverError` *after* being counted in
        ``analytics.errors``.
        """
        src = self._check_vertex(src, "source")
        dst = self._check_vertex(dst, "destination")
        start = time.perf_counter()
        stages: dict[str, float] = {}
        distance = self.distances[src, dst]
        if src == dst:
            elapsed = time.perf_counter() - start
            with self._lock:
                self.analytics.record_query(elapsed, stages=stages)
            return RouteAnswer(src, dst, distance, (src,), None, False, elapsed)
        if distance == self._zero:
            elapsed = time.perf_counter() - start
            with self._lock:
                self.analytics.record_query(elapsed, stages=stages,
                                            unreachable=True)
            return RouteAnswer(src, dst, distance, None, None, False, elapsed)
        with self._lock:
            hit = src in self.cache
        try:
            row = self.parent_row(src, stages=stages)
            walk_start = time.perf_counter()
            try:
                path = witness.walk_parent_row(row, src, dst)
            except SolverError:
                # Defensive second chance: a cached row can only be walked
                # into a dead end if it predates a repair; rebuild and retry.
                stages["path_walk"] = (stages.get("path_walk", 0.0)
                                       + time.perf_counter() - walk_start)
                repair_start = time.perf_counter()
                row = witness.rebuild_parent_row(src, self.distances,
                                                 self.adjacency, self.algebra)
                with self._lock:
                    self.cache.store(src, row)
                stages["repair"] = (stages.get("repair", 0.0)
                                    + time.perf_counter() - repair_start)
                walk_start = time.perf_counter()
                path = witness.walk_parent_row(row, src, dst)
            stages["path_walk"] = (stages.get("path_walk", 0.0)
                                   + time.perf_counter() - walk_start)
        except SolverError:
            with self._lock:
                self.analytics.record_query(time.perf_counter() - start,
                                            stages=stages, error=True)
            raise
        elapsed = time.perf_counter() - start
        with self._lock:
            self.analytics.record_query(elapsed, stages=stages)
        return RouteAnswer(src, dst, distance, tuple(path), hit,
                           "repair" in stages, elapsed)

    def routes(self, pairs) -> list[RouteAnswer]:
        """Answer a batch of queries in order.

        ``pairs`` is an iterable of ``(src, dst)`` pairs — plain tuples or
        :class:`~repro.core.request.RouteQuery` objects (anything with
        ``src``/``dst`` attributes works).
        """
        answers = []
        for pair in pairs:
            if hasattr(pair, "src") and hasattr(pair, "dst"):
                src, dst = pair.src, pair.dst
            else:
                src, dst = pair
            answers.append(self.route(src, dst))
        return answers

    # ------------------------------------------------------------------ stats
    def stats(self) -> dict:
        """One merged report: analytics stream + cache counters + geometry.

        The acceptance surface of the serving layer: latency percentiles,
        hit rate, eviction counts, and per-stage cost attribution, plus the
        current cache occupancy against its budget and the degradation state
        (``degraded``/``last_error``/``staleness``) maintained by the
        engine's transactional update path.
        """
        with self._lock:
            stats = {"n": self.n, "algebra": self.algebra.name}
            stats.update(self.analytics.as_dict())
            stats.update(self.cache.stats())
            stats["degraded"] = self._degraded
            stats["last_error"] = self._last_error
            stats["staleness"] = {
                "missed_update_batches": self._failed_update_batches,
                "degraded_seconds": (time.perf_counter() - self._degraded_since
                                     if self._degraded_since is not None else 0.0),
            }
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"RouteService(n={self.n}, algebra={self.algebra.name!r}, "
                f"queries={self.analytics.queries}, cached_rows={len(self.cache)})")
