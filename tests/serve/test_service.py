"""Tests for RouteService and the engine's serving session.

The acceptance surface of the serving layer: lazily solved parent rows give
the *same* routes as a full ``paths=True`` solve, the cache footprint stays
within its budget while doing so, and ``stats()`` reports the latency /
hit-rate / per-stage analytics.
"""

import dataclasses

import numpy as np
import pytest

from repro.common.errors import ConfigurationError, SolverError, ValidationError
from repro.core.engine import APSPEngine
from repro.core.request import RouteQuery, SolveRequest
from repro.graph.adjacency import validate_adjacency
from repro.graph.generators import erdos_renyi_adjacency
from repro.linalg.algebra import get_algebra
from repro.linalg.kernels import semiring_closure
from repro.linalg.witness import reconstruct_path
from repro.sequential.floyd_warshall import floyd_warshall_reference
from repro.serve import RouteService, fold_route

N = 24


def dense_to_csr(adjacency):
    """Canonical CSR of a canonical dense adjacency (finite off-diagonal)."""
    import scipy.sparse as sp
    mask = np.isfinite(adjacency) & ~np.eye(adjacency.shape[0], dtype=bool)
    rows, cols = np.nonzero(mask)
    return sp.csr_matrix((adjacency[rows, cols], (rows, cols)),
                         shape=adjacency.shape)


@pytest.fixture(scope="module")
def adjacency():
    return erdos_renyi_adjacency(N, seed=3)


@pytest.fixture(scope="module")
def service(adjacency):
    closure = floyd_warshall_reference(adjacency)
    edges = validate_adjacency(adjacency, algebra="shortest-path")
    return RouteService(closure, edges, "shortest-path")


@pytest.fixture(scope="module")
def full_parents(adjacency, engine):
    return engine.solve(adjacency, paths=True).parents


@pytest.fixture(scope="module")
def engine(engine_config):
    eng = APSPEngine(engine_config).start()
    yield eng
    eng.stop()


@pytest.fixture(scope="module")
def engine_config():
    from repro.common.config import EngineConfig
    return EngineConfig(backend="serial", num_executors=2, cores_per_executor=2)


class TestRouteCorrectness:
    def test_every_pair_matches_the_full_parents_plane(self, service, adjacency,
                                                       full_parents):
        """Lazy rows answer exactly what a full ``paths=True`` solve answers."""
        closure = service.distances
        for src in range(N):
            for dst in range(N):
                answer = service.route(src, dst)
                assert answer.distance == closure[src, dst]
                if not np.isfinite(closure[src, dst]):
                    assert answer.path is None
                    continue
                reference = tuple(reconstruct_path(full_parents, src, dst))
                assert answer.path[0] == src and answer.path[-1] == dst
                # Both paths must realize the optimal closure weight.
                assert fold_route(service.adjacency, answer.path,
                                  service.algebra) == pytest.approx(
                                      closure[src, dst])
                assert fold_route(service.adjacency, reference,
                                  service.algebra) == pytest.approx(
                                      closure[src, dst])

    def test_trivial_route(self, service):
        answer = service.route(5, 5)
        assert answer.path == (5,)
        assert answer.distance == 0.0
        assert answer.cached is None
        assert answer.num_edges == 0 and answer.reachable

    def test_out_of_range_endpoints_rejected(self, service):
        with pytest.raises(ValidationError, match="out of range"):
            service.route(0, N)
        with pytest.raises(ValidationError, match="out of range"):
            service.route(-1, 0)

    def test_distance_shortcut_matches_closure(self, service):
        assert service.distance(2, 7) == service.distances[2, 7]


class TestUnreachable:
    def test_unreachable_pair_is_an_answer_not_an_error(self):
        adj = np.full((4, 4), np.inf)
        np.fill_diagonal(adj, 0.0)
        adj[0, 1] = 1.0                       # 2, 3 are isolated
        closure = floyd_warshall_reference(adj)
        service = RouteService(closure, validate_adjacency(adj), "shortest-path")
        answer = service.route(0, 3)
        assert answer.path is None and not answer.reachable
        assert np.isinf(answer.distance)
        assert answer.cached is None          # no row solve was paid
        assert service.stats()["unreachable"] == 1
        assert len(service.cache) == 0


class TestPlateauRepair:
    def test_reachability_routes_survive_plateaus(self, adjacency):
        """Boolean closures are all-plateau; repairs must kick in and still
        produce walkable, edge-by-edge-valid routes."""
        algebra = get_algebra("reachability")
        edges = validate_adjacency(adjacency, algebra=algebra, dtype="bool")
        closure = semiring_closure(adjacency, algebra, dtype="bool")
        service = RouteService(closure, edges, algebra)
        answers = service.routes((src, dst)
                                 for src in range(0, N, 3)
                                 for dst in range(N))
        for answer in answers:
            assert answer.reachable == bool(closure[answer.src, answer.dst])
            if answer.path is not None and len(answer.path) > 1:
                assert bool(fold_route(edges, answer.path, algebra)) is True
        repaired = sum(a.repaired for a in answers)
        assert repaired == service.analytics.stage_counts["repair"]
        assert service.stats()["stage_counts"]["row_solve"] >= 1


class TestCacheBehaviour:
    def test_hit_miss_accounting_across_queries(self, adjacency):
        closure = floyd_warshall_reference(adjacency)
        service = RouteService(closure, validate_adjacency(adjacency),
                               "shortest-path")
        reach0 = [d for d in range(1, N) if np.isfinite(closure[0, d])]
        reach1 = [d for d in range(N) if d != 1 and np.isfinite(closure[1, d])]
        first = service.route(0, reach0[0])
        second = service.route(0, reach0[1])
        other = service.route(1, reach1[0])
        assert first.cached is False
        assert second.cached is True          # same source row reused
        assert other.cached is False
        stats = service.stats()
        assert stats["cache_hits"] == 1
        assert stats["cache_misses"] == 2

    def test_byte_budget_holds_at_every_step(self, adjacency):
        """The acceptance bound: peak parents memory never exceeds the budget."""
        closure = floyd_warshall_reference(adjacency)
        row_bytes = 4 * N                     # one int32 parent row
        budget = 3 * row_bytes
        service = RouteService(closure, validate_adjacency(adjacency),
                               "shortest-path", budget_bytes=budget)
        rng = np.random.default_rng(0)
        for _ in range(200):
            service.route(int(rng.integers(N)), int(rng.integers(N)))
            assert service.cache.nbytes <= budget
        stats = service.stats()
        assert stats["cache_evictions"] > 0
        assert stats["cache_rows"] <= 3

    def test_max_rows_budget(self, adjacency):
        closure = floyd_warshall_reference(adjacency)
        service = RouteService(closure, validate_adjacency(adjacency),
                               "shortest-path", max_rows=2)
        for src in range(6):
            service.route(src, (src + 1) % N)
            assert len(service.cache) <= 2


class TestSparseInput:
    def test_csr_adjacency_round_trip(self, adjacency):
        csr = dense_to_csr(adjacency)
        edges = validate_adjacency(csr, allow_sparse=True)
        closure = floyd_warshall_reference(adjacency)
        service = RouteService(closure, edges, "shortest-path")
        dense_service = RouteService(closure, validate_adjacency(adjacency),
                                     "shortest-path")
        for src, dst in ((0, 7), (3, 14), (9, 2), (5, 5)):
            sparse_answer = service.route(src, dst)
            dense_answer = dense_service.route(src, dst)
            assert sparse_answer.path == dense_answer.path
            assert sparse_answer.distance == dense_answer.distance

    def test_edge_arrays_are_derived_once_per_adjacency_version(
            self, adjacency, monkeypatch):
        """Misses read the arrays bound with the CSR; ``tocoo`` runs when an
        adjacency is bound (constructor, ``publish``), not per miss."""
        from repro.linalg import witness
        csr = validate_adjacency(dense_to_csr(adjacency), allow_sparse=True)
        closure = floyd_warshall_reference(adjacency)
        conversions = []
        real = type(csr).tocoo
        monkeypatch.setattr(type(csr), "tocoo", lambda self, *a, **k: (
            conversions.append(self), real(self, *a, **k))[1])
        service = RouteService(closure, csr, "shortest-path")
        rows = {src: service.parent_row(src) for src in range(N)}
        assert len(conversions) == 1 and conversions[0] is csr
        for src, row in rows.items():      # identical to the per-call CSR branch
            assert np.array_equal(
                row, witness.solve_parent_row(src, closure, csr,
                                              service.algebra))
        del conversions[:]
        service.publish(closure, csr, [])             # same adjacency: no-op
        assert conversions == []
        newer = csr.copy()
        service.publish(closure, newer, [])
        service.parent_row(0)
        service.parent_row(1)
        assert len(conversions) == 1 and conversions[0] is newer
        assert service.adjacency is newer

    def test_one_adjacency_version_per_miss(self, adjacency, monkeypatch):
        """An update landing between the row solve and its repair must not
        mix two adjacency versions into one row."""
        from repro.linalg import witness
        csr = validate_adjacency(dense_to_csr(adjacency), allow_sparse=True)
        service = RouteService(floyd_warshall_reference(adjacency), csr,
                               "shortest-path")
        newer = csr.copy()
        seen = []

        def update_lands_then_row_looks_cyclic(row, source, **kwargs):
            service.publish(service.distances, newer, [])
            return False

        monkeypatch.setattr(witness, "consistent_parent_row",
                            update_lands_then_row_looks_cyclic)
        real = witness.rebuild_parent_row
        monkeypatch.setattr(witness, "rebuild_parent_row", lambda src, dist, adj, alg: (
            seen.append(adj), real(src, dist, adj, alg))[1])
        service.parent_row(3)
        assert len(seen) == 1 and seen[0] is csr
        assert service.adjacency is newer



class TestConstruction:
    def test_non_square_closure_rejected(self):
        with pytest.raises(ValidationError, match="square"):
            RouteService(np.zeros((3, 4)), np.zeros((3, 4)), "shortest-path")

    def test_shape_mismatch_rejected(self, adjacency):
        closure = floyd_warshall_reference(adjacency)
        with pytest.raises(ValidationError, match="does not match"):
            RouteService(closure, np.zeros((N + 1, N + 1)), "shortest-path")

    def test_witnessless_algebra_rejected(self, adjacency):
        no_witness = dataclasses.replace(get_algebra("shortest-path"),
                                         name="no-witness", witness_select=None)
        closure = floyd_warshall_reference(adjacency)
        with pytest.raises(ValidationError, match="witness"):
            RouteService(closure, validate_adjacency(adjacency), no_witness)


class TestStats:
    def test_stats_merges_analytics_cache_and_geometry(self, adjacency):
        closure = floyd_warshall_reference(adjacency)
        service = RouteService(closure, validate_adjacency(adjacency),
                               "shortest-path", budget_bytes=1 << 20)
        service.routes([(0, 1), (0, 2), (3, 4)])
        stats = service.stats()
        assert stats["n"] == N
        assert stats["algebra"] == "shortest-path"
        for key in ("queries", "latency_p50_s", "latency_p95_s", "latency_p99_s",
                    "stage_seconds", "stage_counts", "cache_hits",
                    "cache_misses", "cache_hit_rate", "cache_evictions",
                    "cache_bytes", "cache_budget_bytes"):
            assert key in stats
        assert stats["queries"] == 3
        assert stats["cache_budget_bytes"] == 1 << 20


class TestEngineIntegration:
    def test_route_requires_an_open_session(self, engine_config):
        with APSPEngine(engine_config) as engine:
            assert engine.service is None
            with pytest.raises(SolverError, match="no serving session"):
                engine.route(0, 1)
            with pytest.raises(SolverError, match="no serving session"):
                engine.routes([(0, 1)])

    def test_paths_request_rejected(self, engine, adjacency):
        with pytest.raises(ConfigurationError, match="lazily"):
            engine.serve(adjacency, SolveRequest(paths=True))

    def test_serve_route_and_stats(self, engine, adjacency, full_parents):
        service = engine.serve(adjacency, max_rows=4)
        assert engine.service is service
        answer = engine.route(0, 7)
        reference = tuple(reconstruct_path(full_parents, 0, 7))
        assert answer.path[0] == 0 and answer.path[-1] == 7
        assert fold_route(service.adjacency, answer.path,
                          service.algebra) == pytest.approx(
                              fold_route(service.adjacency, reference,
                                         service.algebra))
        assert engine.stats()["serve"]["queries"] == 1

    def test_routes_accepts_route_queries(self, engine, adjacency):
        engine.serve(adjacency)
        answers = engine.routes([RouteQuery(0, 3), (2, 9), RouteQuery(4, 4)])
        assert [(a.src, a.dst) for a in answers] == [(0, 3), (2, 9), (4, 4)]

    def test_keep_result_retains_the_solve(self, engine, adjacency):
        service = engine.serve(adjacency, keep_result=True)
        assert service.closure_result is not None
        assert service.closure_result.distances is service.distances
        assert engine.serve(adjacency).closure_result is None

    def test_serve_on_sparse_input(self, engine, adjacency):
        service = engine.serve(dense_to_csr(adjacency), max_rows=2)
        answer = engine.route(1, 8)
        closure = floyd_warshall_reference(adjacency)
        assert answer.distance == pytest.approx(closure[1, 8])
        assert len(service.cache) <= 2


class TestRouteQuery:
    def test_coercion_and_pair(self):
        query = RouteQuery("3", np.int64(4), tag="replay")
        assert query.src == 3 and isinstance(query.src, int)
        assert query.pair == (3, 4)
        assert "replay" in query.describe()

    @pytest.mark.parametrize("kwargs", [
        {"src": -1, "dst": 0},
        {"src": 0, "dst": -2},
        {"src": "x", "dst": 0},
        {"src": None, "dst": 0},
    ])
    def test_invalid_endpoints_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            RouteQuery(**kwargs)


class TestNotifyUpdate:
    """``publish``: how an update batch notifies the service."""

    def _service(self, adjacency):
        closure = floyd_warshall_reference(adjacency)
        edges = validate_adjacency(adjacency, algebra="shortest-path")
        return RouteService(closure, edges, "shortest-path")

    def test_changed_rows_drop_only_those_sources(self, adjacency):
        service = self._service(adjacency)
        service.route(0, 5)
        service.route(7, 3)
        dropped = service.publish(service.distances, service.adjacency,
                                  [0, 9])
        assert dropped == 1                      # only source 0 was cached
        assert service.stats()["cache_invalidations"] == 1

    def test_none_means_drop_everything(self, adjacency):
        service = self._service(adjacency)
        service.route(0, 5)
        service.route(7, 3)
        assert service.publish(service.distances, service.adjacency) == 2

    def test_adjacency_rebind_shape_checked(self, adjacency):
        service = self._service(adjacency)
        with pytest.raises(ValidationError):
            service.publish(service.distances, np.eye(3), [0])

    def test_rebound_adjacency_serves_new_routes(self, adjacency):
        service = self._service(adjacency)
        new_adjacency = validate_adjacency(adjacency, algebra="shortest-path")
        new_adjacency[0, 5] = new_adjacency[5, 0] = 0.001
        service.publish(floyd_warshall_reference(new_adjacency), new_adjacency)
        answer = service.route(0, 5)
        assert tuple(answer.path) == (0, 5)
        assert np.isclose(answer.distance, 0.001)
