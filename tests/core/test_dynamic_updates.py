"""Dynamic closure maintenance: ``engine.update`` against full re-closures.

The acceptance surface of the update path: a batch of edge insertions,
relaxations, increases and deletions applied incrementally to the cached
closure must land on *exactly* the closure a from-scratch solve of the
mutated adjacency produces — across algebras, storage policies, layouts and
witness tracking — while the report and the cost model tell the truth about
which path ran.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigurationError, SolverError, ValidationError
from repro.core import dynamic
from repro.core.dynamic import update_batch_for_algebra
from repro.core.engine import APSPEngine
from repro.core.request import EdgeUpdate, SolveRequest
from repro.graph.generators import graph_for_algebra
from repro.linalg.algebra import available_algebras, get_algebra
from repro.linalg.bitset import PackedBlock
from repro.linalg.kernels import semiring_closure
from repro.linalg.witness import NO_VERTEX, consistent_parent_rows, path_weight
from repro.sequential.floyd_warshall import reference_closure

#: Algebras whose rank-1 sweeps are exact (absorptive ⊕); longest-path is
#: excluded by construction and covered by its own refusal tests below.
INCREMENTAL_ALGEBRAS = ("shortest-path", "widest-path", "most-reliable",
                        "reachability")


def solve_kept(adjacency, request):
    """Solve with a kept closure and return ``(engine, state)``."""
    engine = APSPEngine()
    engine.solve(adjacency, request, keep_closure=True)
    return engine, engine.closure


def mixed_batch(state, rng, count):
    """Improvements, worsenings and deletions against ``state``'s adjacency."""
    n = state.n
    algebra = get_algebra(state.request.algebra)
    name = algebra.name
    existing = np.argwhere(
        (state.adjacency != algebra.zero_like(state.adjacency.dtype))
        & ~np.eye(n, dtype=bool))
    edges = []
    improving = update_batch_for_algebra(n, int(rng.integers(1 << 30)),
                                         name, count)
    for index in range(count):
        kind = int(rng.integers(3))
        if kind == 0 or existing.shape[0] == 0:
            edges.append(improving[index])
        else:
            u, v = (int(x) for x in existing[int(rng.integers(existing.shape[0]))])
            if kind == 1:
                edges.append(EdgeUpdate(u, v, None))          # delete
            elif name == "reachability":
                edges.append(EdgeUpdate(u, v, True))          # noop re-add
            elif name == "most-reliable":
                edges.append(EdgeUpdate(u, v, 0.05))          # worsen
            elif name == "widest-path":
                edges.append(EdgeUpdate(u, v, 0.5))           # narrower
            else:
                edges.append(EdgeUpdate(u, v, 500.0))         # longer
    return edges


class TestImprovingBatchContract:
    """``update_batch_for_algebra`` against a ``graph_for_algebra`` graph."""

    @pytest.mark.parametrize("algebra", available_algebras())
    def test_batch_only_improves(self, algebra):
        n, count = 32, 6
        directed = algebra == "longest-path"   # a DAG is always directed
        request = SolveRequest(solver="blocked-cb", block_size=8,
                               algebra=algebra, directed=directed)
        engine, state = solve_kept(graph_for_algebra(n, 3, algebra,
                                                     directed=directed), request)
        batch = update_batch_for_algebra(n, 5, algebra, count)
        pairs = {(e.u, e.v) if directed else tuple(sorted((e.u, e.v)))
                 for e in batch}
        assert len(pairs) == count
        if directed:
            assert all(e.u < e.v for e in batch)
        # The one improving edge that cannot improve is a reachability edge
        # already present: True is already ⊕'s top.
        present = sum(bool(state.adjacency[e.u, e.v] == e.weight) for e in batch)
        assert present == 0 or algebra == "reachability"
        with engine:
            report = engine.update(batch)
        assert report.worsenings == 0
        assert (report.improvements, report.noops) == (count - present, present)
        assert get_algebra(algebra).allclose(
            state.distances, reference_closure(state.adjacency, algebra))
        if directed:   # still a DAG: no edge below the diagonal
            assert not np.isfinite(state.adjacency[np.tril_indices(n, k=-1)]).any()


class TestIncrementalEqualsResolve:
    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000),
           algebra=st.sampled_from(INCREMENTAL_ALGEBRAS),
           n=st.integers(8, 28),
           count=st.integers(1, 6))
    def test_mixed_batch_matches_full_reclosure(self, seed, algebra, n, count):
        adjacency = graph_for_algebra(n, seed, algebra)
        request = SolveRequest(solver="blocked-cb",
                               block_size=max(4, n // 3), algebra=algebra)
        engine, state = solve_kept(adjacency, request)
        rng = np.random.default_rng(seed + 1)
        report = engine.update(mixed_batch(state, rng, count),
                               force="incremental")
        assert report.mode == "incremental"
        expected = reference_closure(state.adjacency, algebra)
        if state.distances.dtype == np.bool_:
            assert np.array_equal(state.distances, expected)
        else:
            assert np.allclose(state.distances, expected)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(8, 24))
    def test_directed_full_grid(self, seed, n):
        adjacency = graph_for_algebra(n, seed, directed=True)
        request = SolveRequest(solver="blocked-cb", block_size=max(4, n // 3),
                               layout="full", directed=True)
        engine, state = solve_kept(adjacency, request)
        assert not state.undirected
        rng = np.random.default_rng(seed + 1)
        engine.update(mixed_batch(state, rng, 4), force="incremental")
        assert np.allclose(state.distances,
                           reference_closure(state.adjacency))
        # Directed: only the stored orientation changed.
        assert np.isinf(state.adjacency).any()

    def test_packed_storage_stays_word_consistent(self):
        adjacency = graph_for_algebra(20, 3, "reachability")
        request = SolveRequest(solver="blocked-cb", block_size=8,
                               algebra="reachability", storage="packed")
        engine, state = solve_kept(adjacency, request)
        existing = np.argwhere(state.adjacency & ~np.eye(20, dtype=bool))
        u, v = (int(x) for x in existing[0])
        engine.update([EdgeUpdate(2, 17, True), EdgeUpdate(u, v, None)],
                      force="incremental")
        assert np.array_equal(state.distances,
                              reference_closure(state.adjacency, "reachability"))
        assert np.array_equal(state.packed.words,
                              PackedBlock.from_dense(state.distances).words)

    def test_float32_closure_updates_in_dtype(self):
        adjacency = graph_for_algebra(16, 5)
        request = SolveRequest(solver="blocked-cb", block_size=8,
                               dtype="float32")
        engine, state = solve_kept(adjacency, request)
        engine.update([EdgeUpdate(0, 9, 0.125)], force="incremental")
        assert state.distances.dtype == np.float32
        assert np.allclose(
            state.distances,
            reference_closure(state.adjacency, dtype="float32"), rtol=1e-5)


class TestWitnessedUpdates:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(8, 20),
           count=st.integers(1, 4))
    def test_parents_stay_globally_consistent(self, seed, n, count):
        adjacency = graph_for_algebra(n, seed)
        request = SolveRequest(solver="blocked-cb", block_size=max(4, n // 3),
                               paths=True)
        engine, state = solve_kept(adjacency, request)
        rng = np.random.default_rng(seed + 1)
        engine.update(mixed_batch(state, rng, count), force="incremental")
        expected = reference_closure(state.adjacency)
        assert np.allclose(state.distances, expected)
        assert consistent_parent_rows(state.parents).all()
        # Every parent chain realizes the optimal weight it claims.
        algebra = get_algebra("shortest-path")
        for i in range(n):
            for j in range(n):
                if i == j or np.isinf(state.distances[i, j]):
                    continue
                path = [j]
                while path[-1] != i:
                    path.append(int(state.parents[i, path[-1]]))
                path.reverse()
                assert np.isclose(
                    path_weight(state.adjacency, path, algebra),
                    expected[i, j])

    def test_unreachable_cells_keep_no_vertex(self):
        adjacency = np.full((6, 6), np.inf)
        np.fill_diagonal(adjacency, 0.0)
        adjacency[0, 1] = adjacency[1, 0] = 1.0
        request = SolveRequest(solver="blocked-cb", block_size=3, paths=True)
        engine, state = solve_kept(adjacency, request)
        engine.update([EdgeUpdate(2, 3, 2.0)], force="incremental")
        assert state.parents[0, 4] == NO_VERTEX
        assert state.parents[2, 3] == 2 and state.distances[2, 3] == 2.0


class TestModeSelection:
    def test_requires_cached_closure(self):
        with pytest.raises(SolverError):
            APSPEngine().update([EdgeUpdate(0, 1, 1.0)])

    def test_invalid_force_rejected(self):
        adjacency = graph_for_algebra(12, 0)
        engine, _ = solve_kept(adjacency, SolveRequest(solver="blocked-cb",
                                                       block_size=4))
        with pytest.raises(ConfigurationError):
            engine.update([EdgeUpdate(0, 1, 1.0)], force="eventually")

    def test_out_of_range_endpoint_rejected(self):
        adjacency = graph_for_algebra(12, 0)
        engine, _ = solve_kept(adjacency, SolveRequest(solver="blocked-cb",
                                                       block_size=4))
        with pytest.raises(ValidationError):
            engine.update([EdgeUpdate(0, 12, 1.0)])

    def test_self_loop_rejected_at_construction(self):
        with pytest.raises(ConfigurationError):
            EdgeUpdate(3, 3, 1.0)

    def test_empty_batch_is_a_noop_report(self):
        adjacency = graph_for_algebra(12, 0)
        engine, state = solve_kept(adjacency, SolveRequest(solver="blocked-cb",
                                                           block_size=4))
        before = state.distances.copy()
        report = engine.update([])
        assert report.mode == "noop" and report.edges == 0
        assert np.array_equal(state.distances, before)

    def test_deleting_a_non_edge_is_a_noop(self):
        adjacency = np.full((8, 8), np.inf)
        np.fill_diagonal(adjacency, 0.0)
        adjacency[0, 1] = adjacency[1, 0] = 1.0
        engine, state = solve_kept(adjacency, SolveRequest(solver="blocked-cb",
                                                           block_size=4))
        report = engine.update([(5, 6)])
        assert report.noops == 1 and report.changed_rows == 0

    def test_large_batch_takes_the_resolve_path(self):
        n = 24
        adjacency = graph_for_algebra(n, 2)
        engine, state = solve_kept(adjacency, SolveRequest(solver="blocked-cb",
                                                           block_size=8))
        batch = update_batch_for_algebra(n, 11, count=n * 2)
        report = engine.update(batch)
        assert report.mode == "resolve"
        assert "break-even" in report.reason
        assert np.allclose(state.distances, reference_closure(state.adjacency))

    def test_single_edge_takes_the_incremental_path(self):
        adjacency = graph_for_algebra(32, 2)
        engine, state = solve_kept(adjacency, SolveRequest(solver="blocked-cb",
                                                           block_size=8))
        report = engine.update([EdgeUpdate(1, 30, 0.05)])
        assert report.mode == "incremental"
        assert report.break_even_edges and report.break_even_edges > 1

    def test_longest_path_refuses_incremental(self):
        adjacency = graph_for_algebra(12, 4, "longest-path")
        request = SolveRequest(solver="blocked-cb", block_size=4,
                               algebra="longest-path", directed=True,
                               layout="full")
        engine, state = solve_kept(adjacency, request)
        with pytest.raises(ConfigurationError):
            engine.update([EdgeUpdate(0, 5, 25.0)], force="incremental")
        report = engine.update([EdgeUpdate(0, 5, 25.0)])   # auto: re-solve
        assert report.mode == "resolve"
        assert np.allclose(state.distances,
                           reference_closure(state.adjacency, "longest-path"))

    def test_oversized_affected_set_falls_back_mid_batch(self):
        # A path graph routes every pair through every interior edge, so
        # deleting one affects all rows and trips the affected-set guard.
        n = 16
        adjacency = np.full((n, n), np.inf)
        np.fill_diagonal(adjacency, 0.0)
        for i in range(n - 1):
            adjacency[i, i + 1] = adjacency[i + 1, i] = 1.0
        engine, state = solve_kept(adjacency, SolveRequest(solver="blocked-cb",
                                                           block_size=4))
        report = engine.update([EdgeUpdate(7, 8, None)])
        assert report.mode == "resolve" and "touches" in report.reason
        assert np.isinf(state.distances[0, n - 1])

    def test_update_stats_counters(self):
        adjacency = graph_for_algebra(16, 2)
        engine, _ = solve_kept(adjacency, SolveRequest(solver="blocked-cb",
                                                       block_size=8))
        engine.update([EdgeUpdate(0, 9, 0.05)])
        engine.update(update_batch_for_algebra(16, 3, count=40))
        stats = engine.stats()["updates"]
        assert stats["batches"] == 2 and stats["edges"] == 41
        assert stats["incremental"] == 1 and stats["resolves"] == 1
        assert stats["update_seconds"] > 0


class TestCostModelEstimates:
    def test_break_even_scales_with_n(self):
        small = graph_for_algebra(16, 0)
        large = graph_for_algebra(64, 0)
        _, s_small = solve_kept(small, SolveRequest(solver="blocked-cb",
                                                    block_size=8))
        _, s_large = solve_kept(large, SolveRequest(solver="blocked-cb",
                                                    block_size=16))
        est_small = dynamic.update_estimates(s_small, 1)
        est_large = dynamic.update_estimates(s_large, 1)
        assert est_large["break_even_edges"] > est_small["break_even_edges"]
        assert est_small["incremental_seconds"] < est_small["resolve_seconds"]

    def test_report_carries_estimates(self):
        adjacency = graph_for_algebra(16, 0)
        engine, _ = solve_kept(adjacency, SolveRequest(solver="blocked-cb",
                                                       block_size=8))
        report = engine.update([EdgeUpdate(0, 5, 0.1)])
        assert report.estimated_incremental_seconds is not None
        assert report.estimated_resolve_seconds is not None
        assert report.describe()


class TestServingCoherence:
    def test_served_routes_reflect_updates(self):
        adjacency = graph_for_algebra(24, 6)
        engine = APSPEngine()
        service = engine.serve(adjacency, SolveRequest(solver="blocked-cb",
                                                       block_size=8))
        before = service.route(0, 17)
        report = engine.update([EdgeUpdate(0, 17, 0.01)])
        after = service.route(0, 17)
        assert after.distance <= before.distance
        assert np.isclose(after.distance, 0.01)
        stats = service.stats()
        # Only rows actually sitting in the cache count as invalidations:
        # the `before` query cached exactly source 0's parent row.
        assert stats["cache_invalidations"] == 1
        assert report.changed_rows > 0

    def test_resolve_update_keeps_service_bound(self):
        n = 20
        adjacency = graph_for_algebra(n, 6)
        engine = APSPEngine()
        service = engine.serve(adjacency, SolveRequest(solver="blocked-cb",
                                                       block_size=4))
        engine.update(update_batch_for_algebra(n, 9, count=n * 2))
        # The resolve path rewrote distances in place; routes stay coherent.
        expected = reference_closure(engine.closure.adjacency)
        route = service.route(3, 11)
        assert np.isclose(route.distance, expected[3, 11])


# ---------------------------------------------------------------------------
# CSR-ingested closures: the adjacency stays CSR through update()
# ---------------------------------------------------------------------------
CSR_PAYLOADS = {
    "shortest-f64": dict(algebra="shortest-path"),
    "shortest-f32": dict(algebra="shortest-path", dtype="float32"),
    "widest": dict(algebra="widest-path"),
    "reach-dense": dict(algebra="reachability"),
    "reach-packed": dict(algebra="reachability", storage="packed"),
}
#: A strictly worse weight per algebra (reachability can only delete).
WORSE_WEIGHT = {"shortest-path": 500.0, "widest-path": 0.5,
                "reachability": None}


def dense_to_csr(mirror):
    """Canonical CSR of a canonical dense matrix (finite off-diagonal = edge)."""
    import scipy.sparse as sp
    rows, cols = np.nonzero(edge_mask(mirror))
    return sp.csr_matrix((mirror[rows, cols], (rows, cols)), shape=mirror.shape)


def edge_mask(mirror):
    return np.isfinite(mirror) & ~np.eye(mirror.shape[0], dtype=bool)


def edit_mirror(mirror, batch, undirected):
    """Apply a batch to the canonical dense mirror, edge by edge."""
    for edge in dynamic.coerce_edges(batch):
        weight = np.inf if edge.weight is None else float(edge.weight)
        mirror[edge.u, edge.v] = weight
        if undirected:
            mirror[edge.v, edge.u] = weight


def assert_canonical_csr(adjacency, mirror, undirected):
    """Sparse, strictly increasing indices per row (sorted, no duplicates),
    stored pattern == the mirror's edges (so no explicit "no edge" entries),
    symmetric when undirected."""
    from repro.graph.sparse import is_sparse
    assert is_sparse(adjacency) and adjacency.format == "csr"
    for r in range(adjacency.shape[0]):
        cols = adjacency.indices[adjacency.indptr[r]:adjacency.indptr[r + 1]]
        assert np.all(np.diff(cols) > 0)
    mask = edge_mask(mirror)
    assert adjacency.nnz == int(mask.sum())
    coo = adjacency.tocoo()
    assert mask[coo.row, coo.col].all()
    if adjacency.dtype != np.bool_:
        assert np.allclose(coo.data, mirror[coo.row, coo.col], rtol=1e-6)
    if undirected:
        assert (adjacency != adjacency.T).nnz == 0


def assert_routes_follow_oracle(service, mirror, oracle, rng, count=40):
    """Every answered route is a real path in the mirror of the oracle's weight."""
    algebra = service.algebra
    n = mirror.shape[0]
    prepared = algebra.prepare_adjacency(mirror, oracle.dtype)
    zero = algebra.zero_like(oracle.dtype)
    for src, dst in rng.integers(n, size=(count, 2)).tolist():
        answer = service.route(src, dst)
        if oracle[src, dst] == zero:
            assert answer.path is None
            continue
        assert answer.path[0] == src and answer.path[-1] == dst
        weight = path_weight(prepared, list(answer.path), algebra)
        assert algebra.allclose(np.asarray(weight), np.asarray(oracle[src, dst]),
                                rtol=1e-4, atol=1e-6)


class TestCsrIngestedClosure:
    """No other tier-1 test combines CSR input with ``update()``."""

    N = 24

    @pytest.fixture
    def engine(self):
        with APSPEngine() as engine:
            yield engine

    def open(self, engine, payload, directed, seed=11):
        options = CSR_PAYLOADS[payload]
        mirror = graph_for_algebra(self.N, seed, options["algebra"],
                                   directed=directed)
        request = SolveRequest(solver="blocked-cb", block_size=8,
                               layout="full" if directed else "triangular",
                               directed=directed, **options)
        return engine.serve(dense_to_csr(mirror), request), mirror

    def batches(self, mirror, algebra, rng):
        """The seven batch kinds, each built against the current mirror."""
        n = self.N

        def improving(count):
            return update_batch_for_algebra(n, int(rng.integers(1 << 30)),
                                            algebra, count)

        def existing():
            pairs = np.argwhere(edge_mask(mirror))
            return tuple(int(x) for x in pairs[int(rng.integers(len(pairs)))])

        def missing():
            pairs = np.argwhere(~np.isfinite(mirror))
            return tuple(int(x) for x in pairs[int(rng.integers(len(pairs)))])

        yield "improving", lambda: improving(3), None
        yield "worsening", lambda: [EdgeUpdate(*existing(),
                                               WORSE_WEIGHT[algebra])], None
        yield "deletion", lambda: [EdgeUpdate(*existing(), None)], None
        yield "noop-deletion", lambda: [EdgeUpdate(*missing(), None)], None
        yield "duplicate", lambda: improving(1) * 2, None
        yield "forced-resolve", lambda: improving(2), "resolve"
        yield "past-break-even", None, None

    @pytest.mark.parametrize("directed", [False, True],
                             ids=["undirected", "directed"])
    @pytest.mark.parametrize("payload", sorted(CSR_PAYLOADS))
    def test_every_batch_kind_keeps_one_canonical_csr(self, engine, payload,
                                                      directed):
        service, mirror = self.open(engine, payload, directed)
        state = engine.closure
        algebra = state.algebra
        dtype = CSR_PAYLOADS[payload].get("dtype")
        rng = np.random.default_rng(5)
        assert state.undirected is not directed
        assert state.adjacency is service.adjacency
        report = None
        for kind, build, force in self.batches(mirror, algebra.name, rng):
            batch = (build() if build is not None else
                     update_batch_for_algebra(self.N, 77, algebra.name,
                                              report.break_even_edges))
            before = state.adjacency
            report = engine.update(batch, force=force)
            edit_mirror(mirror, batch, state.undirected)
            if kind == "noop-deletion":
                assert (report.noops, report.changed_rows) == (1, 0), kind
                assert state.adjacency is before
            if kind == "duplicate":
                assert (report.improvements, report.noops) == (1, 1), kind
            if kind in ("forced-resolve", "past-break-even"):
                assert report.mode == "resolve", kind
            oracle = reference_closure(mirror, algebra.name, dtype=dtype)
            assert algebra.allclose(state.distances, oracle,
                                    rtol=1e-4, atol=1e-6), kind
            if state.packed is not None:
                assert np.array_equal(state.packed.to_dense(), state.distances)
            assert state.adjacency is service.adjacency, kind
            assert_canonical_csr(state.adjacency, mirror, state.undirected)
            assert_routes_follow_oracle(service, mirror, oracle, rng)

    def test_witnessed_csr_closure_keeps_walkable_parents(self, engine):
        mirror = graph_for_algebra(self.N, 4)
        engine.solve(dense_to_csr(mirror), SolveRequest(
            solver="blocked-cb", block_size=8, paths=True), keep_closure=True)
        state = engine.closure
        pairs = np.argwhere(edge_mask(mirror))
        batch = [EdgeUpdate(2, 19, 0.02),
                 EdgeUpdate(int(pairs[0][0]), int(pairs[0][1]), None)]
        report = engine.update(batch, force="incremental")
        edit_mirror(mirror, batch, True)
        assert report.mode == "incremental"
        assert np.allclose(state.distances, reference_closure(mirror))
        assert_canonical_csr(state.adjacency, mirror, True)
        assert consistent_parent_rows(state.parents).all()

    def test_update_and_serving_never_expand_the_csr(self, engine, monkeypatch):
        """serve(csr) -> improve -> delete -> routes -> re-solve, with every
        CSR -> dense expansion patched to raise."""
        from repro.graph import sparse as sparse_mod
        mirror = graph_for_algebra(48, 8)
        csr = dense_to_csr(mirror)

        def densified(*args, **kwargs):
            raise AssertionError("a CSR adjacency was densified")
        for name in ("toarray", "todense"):
            monkeypatch.setattr(type(csr), name, densified)
        monkeypatch.setattr(sparse_mod, "sparse_to_dense", densified)
        service = engine.serve(csr, SolveRequest(solver="blocked-cb",
                                                 block_size=16))
        u, v = (int(x) for x in np.argwhere(edge_mask(mirror))[0])
        batches = [([EdgeUpdate(1, 30, 0.05), EdgeUpdate(7, 22, 0.04)], None),
                   ([EdgeUpdate(u, v, None)], None),
                   ([EdgeUpdate(5, 40, 0.03)], "resolve")]
        for index, (batch, force) in enumerate(batches):
            engine.update(batch, force=force)
            edit_mirror(mirror, batch, True)
            if index == 1:
                for src in range(48):
                    service.route(src, (src * 7 + 3) % 48)
        assert engine.closure.adjacency is service.adjacency
        assert_canonical_csr(service.adjacency, mirror, True)
        # The generic dense closure: SciPy's reference converts through CSR.
        assert np.allclose(service.distances,
                           semiring_closure(mirror, "shortest-path"))

    def test_incremental_batch_allocates_no_adjacency_sized_array(self, engine):
        """At n=512 the only n² allocations a batch makes are the draft's
        distance copy — which replaces the published version it was forked
        from — and sweep temporaries: nothing n² *survives* it on net (the
        first batch used to leave a dense n x n adjacency behind).  Tracing
        starts before the solve so the released version is counted too."""
        import tracemalloc
        from repro.graph.sparse import random_geometric_sparse
        n = 512
        csr = random_geometric_sparse(n, seed=3)
        tracemalloc.start()
        try:
            engine.serve(csr, SolveRequest(solver="blocked-cb", block_size=128))
            state = engine.closure
            before = tracemalloc.take_snapshot()
            report = engine.update([EdgeUpdate(3, 400, 0.001),
                                    EdgeUpdate(17, 250, 0.002)])
            after = tracemalloc.take_snapshot()
        finally:
            tracemalloc.stop()
        assert report.mode == "incremental" and report.improvements == 2
        survived = sum(stat.size_diff
                       for stat in after.compare_to(before, "filename"))
        # A float64 n x n plane is 2 MiB; the new CSR and the edge arrays the
        # service derives from it are ~0.5 MiB.
        assert survived < n * n * state.distances.itemsize // 2
        assert state.adjacency is engine.service.adjacency
        assert state.adjacency.nnz == csr.nnz + 4   # two undirected insertions

