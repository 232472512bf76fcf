"""`RouteService`: online ``route(src, dst)`` queries over a cached closure.

The batch solvers answer "how far is everything from everything?" once; a
serving workload asks "how do I get from A to B?" millions of times.  The
closure matrix is the index — every distance is already there — but paths
are not: materializing the full ``n x n`` predecessor matrix per query (or
even once, for large ``n``) is exactly the memory wall the serving layer
exists to avoid.  :class:`RouteService` instead solves **per-source parent
rows lazily** from the cached closure:

1. *row_solve* — on a cache miss,
   :func:`~repro.linalg.witness.derive_parents` (one breadth-first search
   over the tight edges, O(nnz)) builds the ``4 n``-byte parent row for the
   query's source;
2. *path_walk* — the pointer chase that actually answers the query.

Rows live in an LRU :class:`~repro.serve.cache.ParentRowCache` under a
byte/row budget, and every query feeds the
:class:`~repro.serve.analytics.ServeAnalytics` stream (latency percentiles,
per-stage attribution), so ``stats()`` can say not just *how slow* but
*which stage* and *whose cache miss*.

The closure itself is served as immutable *versions*: each committed
:meth:`~repro.core.engine.APSPEngine.update` batch is handed over by
:meth:`RouteService.publish`, every query reads one version from start to
finish, and the cache only ever holds rows of the newest one.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from repro.common.errors import SolverError, ValidationError
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
    the closure alone).
    """

    src: int
    dst: int
    distance: object
    path: tuple[int, ...] | None
    cached: bool | None
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


class _Version(NamedTuple):
    """One published closure, its adjacency and the edges row solves read."""

    distances: np.ndarray
    adjacency: object
    row_edges: object


class RouteService:
    """Answer distance + path queries from a solved closure, one row at a time.

    Parameters
    ----------
    distances:
        The solved ``n x n`` closure matrix (any witness-capable algebra) —
        the first version served; :meth:`publish` replaces it.
    adjacency:
        The *prepared* adjacency the closure was solved from — dense in the
        algebra's domain (missing edges = ``zero``, diagonal = ``one``) or
        canonical CSR (stored entries = edges).  Row solves read their
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
        self.n = dist.shape[0]
        self._zero = self.algebra.zero_like(dist.dtype)
        self._version = self._bind(dist, adjacency, None)
        self.cache = ParentRowCache(budget_bytes=budget_bytes, max_rows=max_rows)
        self.analytics = ServeAnalytics()
        self.closure_result = result
        # One lock serializes version swaps and cache/analytics/degradation
        # mutations (queries under the threads backend arrive concurrently);
        # per-source locks dedup row solves so N simultaneous misses for one
        # source pay one O(n²) solve, while misses for different sources
        # still parallelize.
        self._lock = threading.RLock()
        self._row_locks: dict[int, threading.Lock] = {}
        self._degraded = False
        self._last_error: str | None = None
        self._failed_update_batches = 0
        self._degraded_since: float | None = None

    def _bind(self, distances, adjacency, current: _Version | None) -> _Version:
        """Validate one closure version; the edge arrays row solves read are
        derived here, once per adjacency version, not on every cache miss."""
        dist = np.asarray(distances)
        if adjacency.shape != dist.shape or dist.shape != (self.n, self.n):
            raise ValidationError(
                f"adjacency shape {adjacency.shape} / closure shape "
                f"{dist.shape} does not match n={self.n}")
        if current is not None and adjacency is current.adjacency:
            row_edges = current.row_edges
        else:
            row_edges = witness.CsrEdges.of(adjacency, self.algebra, dist.dtype)
        return _Version(dist, adjacency, row_edges)

    @property
    def distances(self) -> np.ndarray:
        """The closure matrix of the newest published version."""
        return self._version.distances

    @property
    def adjacency(self):
        """The adjacency of the newest published version."""
        return self._version.adjacency

    def publish(self, distances, adjacency, changed_rows=None) -> int:
        """Serve a new closure version and drop the cached rows it changed.

        Called once per committed :meth:`~repro.core.engine.APSPEngine.update`
        batch with arrays nothing writes afterwards; queries already running
        finish on the version they started with.  ``changed_rows`` lists the
        sources whose parent rows may have changed (``None`` = every row, the
        re-solve fallback).  Returns the number of rows dropped.
        """
        version = self._bind(distances, adjacency, self._version)
        with self._lock:
            self._version = version
            if changed_rows is None:
                return self.cache.invalidate()
            dropped = 0
            for source in np.asarray(changed_rows).reshape(-1).tolist():
                dropped += self.cache.invalidate(int(source))
            return dropped

    # ------------------------------------------------------------------ rows
    def parent_row(self, source: int, *,
                   stages: dict[str, float] | None = None) -> np.ndarray:
        """The parent row for ``source``: cached, or lazily solved + cached.

        A miss derives the row with
        :func:`~repro.linalg.witness.derive_parents` and stores it.
        ``stages`` (when given) receives the per-stage seconds of whatever
        work this call actually did.

        Concurrent misses for the same source are deduplicated: the first
        caller solves under that source's lock, everyone else waits and then
        finds the row cached (their second lookup counts as the hit it is).
        """
        source = self._check_vertex(source, "source")
        return self._parent_row(source, self._version, stages)[0]

    def _parent_row(self, source: int, version: _Version,
                    stages: dict[str, float] | None
                    ) -> tuple[np.ndarray, bool]:
        """``(row, cached)`` for ``source`` under one closure version.

        The cache holds rows of the current version only: a call on a
        superseded version solves its own row and leaves the cache alone.
        """
        with self._lock:
            if version is self._version and self.cache.peek(source) is not None:
                return self.cache.lookup(source), True
            row_lock = self._row_locks.setdefault(source, threading.Lock())
        with row_lock:
            with self._lock:
                current = version is self._version
                if current and self.cache.peek(source) is not None:
                    # A concurrent solver beat us to the store while we
                    # waited on the row lock; count the hit it is.
                    return self.cache.lookup(source), True
                if current:
                    # We are the solver for this source: count this call's
                    # one miss now (every current-version call is exactly one
                    # hit or miss, however many threads pile onto a source).
                    self.cache.lookup(source)
            start = time.perf_counter()
            row = witness.derive_parents(version.distances, version.row_edges,
                                         self.algebra, [source])[0]
            if stages is not None:
                stages["row_solve"] = time.perf_counter() - start
            with self._lock:
                # Cache the row unless a newer version was published since.
                if version is self._version:
                    self.cache.store(source, row)
                self._row_locks.pop(source, None)
        return row, False

    # ------------------------------------------------------------------ degradation
    def mark_degraded(self, error: BaseException) -> None:
        """Enter degraded mode: a closure update failed and published nothing.

        The service keeps answering every query from the last version it
        was published; this only records *that* that version is stale and
        why, for :meth:`stats` to surface.
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

        The distance and the parent row both come from the one closure
        version that was published when the query started, so an
        update committing mid-query never mixes two versions into an answer.
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
        version = self._version
        distance = version.distances[src, dst]
        if src == dst:
            elapsed = time.perf_counter() - start
            with self._lock:
                self.analytics.record_query(elapsed, stages=stages)
            return RouteAnswer(src, dst, distance, (src,), None, elapsed)
        if distance == self._zero:
            elapsed = time.perf_counter() - start
            with self._lock:
                self.analytics.record_query(elapsed, stages=stages,
                                            unreachable=True)
            return RouteAnswer(src, dst, distance, None, None, elapsed)
        try:
            row, hit = self._parent_row(src, version, stages)
            walk_start = time.perf_counter()
            path = witness.walk_parent_row(row, src, dst)
            stages["path_walk"] = time.perf_counter() - walk_start
        except SolverError:
            with self._lock:
                self.analytics.record_query(time.perf_counter() - start,
                                            stages=stages, error=True)
            raise
        elapsed = time.perf_counter() - start
        with self._lock:
            self.analytics.record_query(elapsed, stages=stages)
        return RouteAnswer(src, dst, distance, tuple(path), hit, elapsed)

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
