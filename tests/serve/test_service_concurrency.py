"""Concurrency hammer for the serving layer.

Many threads issue route queries against one :class:`RouteService` (and its
shared :class:`ParentRowCache`) while updates invalidate rows underneath —
answers must stay correct, counters must reconcile, and concurrent misses for
one source must be deduplicated into a single row solve.  Queries racing
``engine.update()`` must each be answered from one published closure version.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.common.config import EngineConfig
from repro.common.errors import SolverError
from repro.core.dynamic import update_batch_for_algebra
from repro.core.engine import APSPEngine
from repro.core.request import SolveRequest
from repro.graph.generators import erdos_renyi_adjacency
from repro.linalg import witness
from repro.sequential.floyd_warshall import floyd_warshall_reference
from repro.graph.adjacency import validate_adjacency
from repro.serve import fold_route
from repro.serve.cache import ParentRowCache
from repro.serve.service import RouteService

N = 48
THREADS = 8
QUERIES_PER_THREAD = 60


@pytest.fixture(scope="module")
def adjacency():
    return erdos_renyi_adjacency(N, seed=21)


@pytest.fixture(scope="module")
def closure(adjacency):
    return floyd_warshall_reference(adjacency)


def _service(closure, adjacency, **kwargs):
    return RouteService(closure, validate_adjacency(adjacency),
                        "shortest-path", **kwargs)


class TestCacheThreadSafety:
    def test_concurrent_store_lookup_invalidate_consistent(self):
        cache = ParentRowCache(max_rows=8)
        rows = {s: np.full(N, s, dtype=np.int32) for s in range(16)}
        stop = threading.Event()
        errors = []

        def worker(base):
            try:
                while not stop.is_set():
                    for s in range(base, 16, 4):
                        cache.store(s, rows[s])
                        got = cache.lookup(s)
                        if got is not None and got[0] != s:
                            errors.append(f"torn row for {s}")
                        cache.invalidate(s if s % 3 == 0 else None)
            except Exception as exc:  # noqa: BLE001 — surfaced in the assert
                errors.append(repr(exc))

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        stop.wait(0.4)
        stop.set()
        for t in threads:
            t.join()
        assert errors == []
        assert cache.hits + cache.misses > 0
        stats = cache.stats()
        assert stats["cache_rows"] == len(cache.sources())
        assert stats["cache_bytes"] >= 0


class TestRouteHammer:
    def test_hammer_queries_match_reference(self, adjacency, closure):
        service = _service(closure, adjacency, max_rows=6)
        rng = np.random.default_rng(7)
        pairs = [(int(rng.integers(N)), int(rng.integers(N)))
                 for _ in range(THREADS * QUERIES_PER_THREAD)]
        chunks = [pairs[i::THREADS] for i in range(THREADS)]
        failures = []

        def worker(chunk):
            for src, dst in chunk:
                answer = service.route(src, dst)
                expected = closure[src, dst]
                if not (answer.distance == expected
                        or (np.isinf(answer.distance) and np.isinf(expected))):
                    failures.append((src, dst, answer.distance, expected))

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            list(pool.map(worker, chunks))
        assert failures == []
        stats = service.stats()
        assert stats["queries"] == len(pairs)
        # Counter reconciliation: every lookup was a hit or a miss, and the
        # cache never holds more rows than its cap.
        assert stats["cache_hits"] + stats["cache_misses"] >= stats["cache_rows"]
        assert stats["cache_rows"] <= 6

    def test_concurrent_misses_for_one_source_solve_once(self, adjacency,
                                                         closure, monkeypatch):
        service = _service(closure, adjacency)
        solves = []
        real = witness.solve_parent_row
        gate = threading.Barrier(THREADS, timeout=5.0)

        def counting_solve(source, *args, **kwargs):
            solves.append(source)
            return real(source, *args, **kwargs)

        monkeypatch.setattr(witness, "solve_parent_row", counting_solve)

        def worker():
            gate.wait()
            return service.parent_row(3)

        with ThreadPoolExecutor(max_workers=THREADS) as pool:
            rows = [f.result() for f in
                    [pool.submit(worker) for _ in range(THREADS)]]
        assert solves == [3]  # deduplicated: exactly one solve
        for row in rows:
            np.testing.assert_array_equal(row, rows[0])
        stats = service.stats()
        assert stats["cache_misses"] == 1
        assert stats["cache_hits"] == THREADS - 1

    def test_hammer_with_concurrent_invalidation(self, adjacency, closure):
        """Queries racing publish: every answer matches the reference."""
        service = _service(closure, adjacency, max_rows=4)
        rng = np.random.default_rng(13)
        stop = threading.Event()
        failures = []

        def invalidator():
            while not stop.is_set():
                service.publish(closure, service.adjacency,
                                [int(rng.integers(N))])

        def querier(seed):
            q_rng = np.random.default_rng(seed)
            for _ in range(QUERIES_PER_THREAD):
                src, dst = int(q_rng.integers(N)), int(q_rng.integers(N))
                got = service.route(src, dst).distance
                want = closure[src, dst]
                if not (got == want or (np.isinf(got) and np.isinf(want))):
                    failures.append((src, dst, got, want))

        inv = threading.Thread(target=invalidator)
        inv.start()
        try:
            with ThreadPoolExecutor(max_workers=THREADS) as pool:
                list(pool.map(querier, range(THREADS)))
        finally:
            stop.set()
            inv.join()
        assert failures == []

    def test_degradation_flips_are_thread_safe(self, adjacency, closure):
        service = _service(closure, adjacency)
        stop = threading.Event()

        def flipper():
            while not stop.is_set():
                service.mark_degraded(RuntimeError("boom"))
                service.mark_healthy()

        flip = threading.Thread(target=flipper)
        flip.start()
        try:
            for _ in range(200):
                stats = service.stats()
                if stats["degraded"]:
                    assert stats["last_error"] is not None
        finally:
            stop.set()
            flip.join()
        service.mark_healthy()
        assert service.stats()["degraded"] is False


def _answered_by(answer, distances, adjacency) -> bool:
    """True when one closure version gives both the answer's distance and a
    path of that weight."""
    if distances[answer.src, answer.dst] != answer.distance:
        return False
    if answer.path is None:
        return bool(np.isinf(answer.distance))
    try:
        weight = fold_route(adjacency, answer.path, "shortest-path")
    except SolverError:  # a step that is not an edge of this version
        return False
    return bool(np.isclose(weight, answer.distance))


class TestPublishedVersions:
    """``engine.update()`` racing queries on the service it publishes to."""

    N = 40
    REQUEST = SolveRequest(solver="blocked-cb", block_size=8)

    @pytest.fixture(params=["dense", "csr"])
    def graph(self, request):
        adjacency = erdos_renyi_adjacency(self.N, seed=9)
        if request.param == "dense":
            return adjacency
        import scipy.sparse as sp
        rows, cols = np.nonzero(np.isfinite(adjacency)
                                & ~np.eye(self.N, dtype=bool))
        return sp.csr_matrix((adjacency[rows, cols], (rows, cols)),
                             shape=adjacency.shape)

    def test_row_solved_before_an_update_is_not_cached(self, graph,
                                                       monkeypatch):
        """A miss solves source 0's row; before it is stored, an update
        commits a shortcut out of source 0.  The stale row must not answer
        any later query."""
        real = witness.solve_parent_row
        solved, release = threading.Event(), threading.Event()

        def solve_then_block(source, *args, **kwargs):
            row = real(source, *args, **kwargs)
            if source == 0 and not solved.is_set():
                solved.set()
                assert release.wait(5.0)
            return row

        with APSPEngine(EngineConfig(backend="serial")) as engine:
            service = engine.serve(graph, self.REQUEST)
            old_adjacency = service.adjacency
            monkeypatch.setattr(witness, "solve_parent_row", solve_then_block)
            with ThreadPoolExecutor(max_workers=1) as pool:
                in_flight = pool.submit(service.route, 0, 32)
                try:
                    assert solved.wait(5.0)
                    engine.update([(0, 32, 1e-3)])
                finally:
                    release.set()
                before = in_flight.result(timeout=5.0)
            answer = service.route(0, 32)
            assert answer.distance == pytest.approx(1e-3)
            assert fold_route(service.adjacency, answer.path,
                              "shortest-path") == pytest.approx(answer.distance)
            # The in-flight query was answered whole from its own version.
            assert fold_route(old_adjacency, before.path,
                              "shortest-path") == pytest.approx(before.distance)

    def test_every_answer_reads_one_committed_version(self, graph):
        n = self.N
        with APSPEngine(EngineConfig(backend="serial")) as engine:
            service = engine.serve(graph, self.REQUEST, max_rows=8)
            versions = [(service.distances, service.adjacency)]
            answers, errors = [], []
            stop = threading.Event()

            def querier(seed):
                rng = np.random.default_rng(seed)
                try:
                    while not stop.is_set():
                        src, dst = rng.integers(n, size=2).tolist()
                        answers.append(service.route(src, dst))
                        time.sleep(1e-4)  # leave the updater the GIL
                except Exception as exc:  # noqa: BLE001 — asserted below
                    errors.append(exc)

            threads = [threading.Thread(target=querier, args=(seed,))
                       for seed in range(4)]
            for thread in threads:
                thread.start()
            try:
                batches = [update_batch_for_algebra(n, seed, count=3)
                           for seed in range(4)]
                first = batches[0][0]
                batches.append([(first.u, first.v)])  # delete an inserted edge
                for batch in batches:
                    time.sleep(0.01)
                    engine.update(batch)
                    state = engine.closure
                    versions.append((state.distances, state.adjacency))
                time.sleep(0.01)
            finally:
                stop.set()
                for thread in threads:
                    thread.join()
        assert errors == []
        assert len(answers) > len(batches)
        distinct = {(a.src, a.dst, a.distance, a.path): a for a in answers}
        for answer in distinct.values():
            assert any(_answered_by(answer, *version)
                       for version in versions), answer
