"""Property: every parent row walks back to its source and folds to the closure.

A parent row comes from one place, :func:`repro.linalg.witness.parent_row`
(run compiled by :func:`~repro.linalg.witness.derive_parents`), whether a
route query misses the serving cache, a ``paths=True`` solve derives its
parent matrix, or an update batch changes rows.  Each of those
front doors is checked here on small random graphs with *plateau* weights
(0-weight edges and repeated weights, where ties are everywhere), for every
witness algebra x {dense, CSR} x {directed, undirected}, against the dense
:func:`~repro.linalg.kernels.semiring_closure` oracle: every path walks from
its source to its destination and its edge-by-edge fold
(:func:`~repro.serve.fold_route`) equals the oracle's entry.

longest-path is DAG-only: its CSR cells and its undirected cells are refused
at ingestion, and the refusal is what those cells check.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ValidationError
from repro.core.engine import APSPEngine
from repro.core.request import EdgeUpdate, SolveRequest
from repro.graph.adjacency import validate_adjacency
from repro.linalg.algebra import get_algebra
from repro.linalg.kernels import semiring_closure
from repro.linalg.witness import NO_VERTEX, reconstruct_path
from repro.serve import fold_route

#: Edge weights per algebra, drawn with repeats so optimal paths tie.
PLATEAU_WEIGHTS = {
    "shortest-path": (0.0, 1.0, 1.0, 2.0),
    "widest-path": (0.0, 1.0, 2.0, 2.0),
    "most-reliable": (0.0, 0.5, 1.0, 1.0),
    "reachability": (0.0, 1.0),
    "longest-path": (0.0, 1.0, 2.0),
}

CELLS = [(algebra, form, directed)
         for algebra in PLATEAU_WEIGHTS
         for form in ("dense", "csr")
         for directed in (True, False)]

PROPERTY = settings(max_examples=5, deadline=None)
GRAPHS = dict(seed=st.integers(0, 2**16), n=st.integers(4, 10))


def refused(algebra: str, form: str, directed: bool) -> bool:
    """longest-path needs a dense DAG: CSR cells are refused, and so are
    undirected ones (every edge is a 2-cycle)."""
    return algebra == "longest-path" and (form == "csr" or not directed)


def plateau_graph(algebra: str, n: int, seed: int, directed: bool):
    """Canonical dense weights (``inf`` = no edge) with plateau weights."""
    rng = np.random.default_rng(seed)
    weights = np.asarray(PLATEAU_WEIGHTS[algebra])
    mask = rng.random((n, n)) < 0.35
    mask[0, 1] = True                         # never edgeless
    if algebra == "longest-path" and directed:
        mask = np.triu(mask, 1)               # a DAG
    if not directed:
        mask = np.triu(mask, 1)
        mask = mask | mask.T
    drawn = rng.choice(weights, size=(n, n))
    if not directed:
        drawn = np.triu(drawn, 1) + np.triu(drawn, 1).T
    canonical = np.where(mask, drawn, np.inf)
    np.fill_diagonal(canonical, 0.0)
    return canonical


def as_form(canonical: np.ndarray, form: str):
    """The graph in the input form under test; a CSR stores 0-weight edges."""
    if form == "dense":
        return canonical
    import scipy.sparse as sp
    rows, cols = np.nonzero(np.isfinite(canonical)
                            & ~np.eye(canonical.shape[0], dtype=bool))
    return sp.csr_matrix((canonical[rows, cols], (rows, cols)),
                         shape=canonical.shape)


def request_for(algebra: str, directed: bool, **kwargs) -> SolveRequest:
    return SolveRequest(algebra=algebra, directed=directed, block_size=4,
                        **kwargs)


def assert_route(path, src, dst, edges, oracle, algebra):
    """``path`` runs from ``src`` to ``dst`` and folds to ``oracle[src, dst]``."""
    assert path[0] == src and path[-1] == dst
    assert len(set(path)) == len(path)
    fold = fold_route(edges, list(path), algebra)
    if oracle.dtype == np.bool_:
        assert bool(fold) and bool(oracle[src, dst])
    else:
        assert np.isclose(float(fold), float(oracle[src, dst]),
                          rtol=1e-6, atol=1e-9)


def assert_parents(parents, edges, oracle, algebra):
    """Every row of ``parents`` walks back and folds to the oracle's row."""
    zero = algebra.zero_like(oracle.dtype)
    n = oracle.shape[0]
    for src in range(n):
        for dst in range(n):
            if src == dst or oracle[src, dst] == zero:
                assert parents[src, dst] == NO_VERTEX
                continue
            path = reconstruct_path(parents, src, dst)
            assert_route(path, src, dst, edges, oracle, algebra)


@pytest.fixture(scope="module")
def engine():
    with APSPEngine() as eng:
        yield eng


@pytest.mark.parametrize("algebra,form,directed", CELLS)
class TestOneParentRow:
    @PROPERTY
    @given(**GRAPHS)
    def test_every_route_answer(self, engine, algebra, form, directed,
                                seed, n):
        canonical = plateau_graph(algebra, n, seed, directed)
        request = request_for(algebra, directed)
        if refused(algebra, form, directed):
            with pytest.raises(ValidationError):
                engine.serve(as_form(canonical, form), request)
            return
        alg = get_algebra(algebra)
        oracle = semiring_closure(canonical, alg)
        service = engine.serve(as_form(canonical, form), request)
        for src in range(n):
            for dst in range(n):
                answer = service.route(src, dst)
                if oracle[src, dst] == alg.zero_like(oracle.dtype):
                    assert answer.path is None
                    continue
                assert_route(answer.path, src, dst, service.adjacency,
                             oracle, alg)

    @PROPERTY
    @given(**GRAPHS)
    def test_every_row_of_a_paths_solve(self, engine, algebra, form,
                                        directed, seed, n):
        canonical = plateau_graph(algebra, n, seed, directed)
        request = request_for(algebra, directed, paths=True)
        if refused(algebra, form, directed):
            with pytest.raises(ValidationError):
                engine.solve(as_form(canonical, form), request)
            return
        alg = get_algebra(algebra)
        oracle = semiring_closure(canonical, alg)
        result = engine.solve(as_form(canonical, form), request)
        assert alg.allclose(result.distances, oracle)
        edges = validate_adjacency(as_form(canonical, form), algebra=alg,
                                   allow_sparse=True)
        assert_parents(result.parents, edges, oracle, alg)

    @PROPERTY
    @given(**GRAPHS, batches=st.integers(1, 3))
    def test_every_parent_row_after_update_batches(self, engine, algebra,
                                                   form, directed, seed, n,
                                                   batches):
        canonical = plateau_graph(algebra, n, seed, directed)
        request = request_for(algebra, directed, paths=True)
        if refused(algebra, form, directed):
            with pytest.raises(ValidationError):
                engine.solve(as_form(canonical, form), request,
                             keep_closure=True)
            return
        alg = get_algebra(algebra)
        engine.solve(as_form(canonical, form), request, keep_closure=True)
        rng = np.random.default_rng(seed + 1)
        weights = PLATEAU_WEIGHTS[algebra]
        for _ in range(batches):
            batch = []
            while len(batch) < 3:
                u, v = (int(x) for x in rng.integers(n, size=2))
                if u == v:
                    continue
                if algebra == "longest-path":
                    u, v = min(u, v), max(u, v)   # stay a DAG
                weight = (None if rng.random() < 0.25
                          else float(rng.choice(weights)))
                batch.append(EdgeUpdate(u, v, weight))
                pairs = [(u, v)] if directed else [(u, v), (v, u)]
                for a, b in pairs:
                    canonical[a, b] = np.inf if weight is None else weight
            engine.update(batch)
            state = engine.closure
            oracle = semiring_closure(canonical, alg)
            assert alg.allclose(state.distances, oracle)
            assert_parents(state.parents, state.adjacency, oracle, alg)
