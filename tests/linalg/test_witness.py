"""Parent rows: the one definition, its compiled form, reconstruction, and
the witnessed product the benchmark ladder keeps."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from parent_checks import assert_valid_routes
from repro.common.errors import SolverError, ValidationError
from repro.linalg import native
from repro.linalg import witness as W
from repro.linalg.algebra import get_algebra
from repro.linalg.kernels import floyd_warshall_inplace, semiring_closure
from repro.linalg.semiring import elementwise_combine, semiring_product
from repro.sequential.floyd_warshall import (floyd_warshall_blocked,
                                             floyd_warshall_numpy)
from repro.serve import fold_route

WITNESS_ALGEBRAS = ("shortest-path", "widest-path", "most-reliable", "reachability")


def random_adjacency(n, seed, algebra):
    """Canonical symmetric adjacency respecting the algebra's weight domain."""
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < 0.35
    mask = np.triu(mask, 1)
    mask = mask | mask.T
    if get_algebra(algebra).name == "most-reliable":
        weights = rng.uniform(0.05, 0.95, size=(n, n))
    else:
        weights = rng.uniform(0.5, 9.5, size=(n, n))
    weights = np.triu(weights, 1)
    weights = weights + weights.T
    adj = np.where(mask, weights, np.inf)
    np.fill_diagonal(adj, 0.0)
    return adj


# ---------------------------------------------------------------------------
# WitnessBlock basics (the benchmark ladder's witnessed product)
# ---------------------------------------------------------------------------
class TestWitnessBlock:
    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            W.WitnessBlock(np.zeros((2, 2)), np.zeros((2, 3), np.int32),
                           np.zeros((2, 2), np.int32))
        with pytest.raises(ValidationError):
            W.WitnessBlock(np.zeros(3), np.zeros(3, np.int32),
                           np.zeros(3, np.int32))

    def test_initial_stamp_uses_global_ids(self):
        vals = np.array([[np.inf, 5.0], [5.0, np.inf]])
        wb = W.witness_block(vals, 10, 20, "shortest-path")
        # edge (10, 21): pred of 21 is 10; succ of 10 is 21
        assert wb.parents[0, 1] == 10
        assert wb.succs[0, 1] == 21
        # edge (11, 20): the other orientation of the same stored block
        assert wb.parents[1, 0] == 11
        assert wb.succs[1, 0] == 20

    def test_diagonal_block_stamp(self):
        vals = np.array([[0.0, np.inf], [np.inf, 0.0]])
        prepared = get_algebra("shortest-path").prepare_adjacency(vals)
        wb = W.witness_block(prepared, 6, 6, "shortest-path")
        assert wb.parents[0, 0] == W.NO_VERTEX
        assert wb.parents[0, 1] == W.NO_VERTEX  # no edge

    def test_requires_witness_algebra(self):
        no_witness = get_algebra("shortest-path").__class__(
            name="plus-times", add_op=np.add, mul_op=np.multiply,
            zero=0.0, one=1.0)
        with pytest.raises(ValidationError):
            W.witness_block(np.zeros((2, 2)), 0, 0, no_witness)


# ---------------------------------------------------------------------------
# The witnessed product vs the value-only kernel
# ---------------------------------------------------------------------------
class TestWitnessKernels:
    @pytest.mark.parametrize("algebra", WITNESS_ALGEBRAS)
    def test_product_matches_value_kernel(self, algebra):
        alg = get_algebra(algebra)
        adj = random_adjacency(17, 3, algebra)
        prepared = alg.prepare_adjacency(adj)
        wb = W.witness_block(prepared, 0, 0, alg)
        prod = semiring_product(wb, wb, alg)
        dense = semiring_product(prepared, prepared, alg)
        assert alg.allclose(prod.values, dense)

    def test_mixing_witnessed_and_plain_raises(self):
        alg = get_algebra("shortest-path")
        wb = W.witness_block(
            alg.prepare_adjacency(random_adjacency(5, 0, "shortest-path")), 0, 0, alg)
        with pytest.raises(ValidationError):
            elementwise_combine(wb, wb.values, alg)
        with pytest.raises(ValidationError):
            semiring_product(wb, wb.values, alg)

    def test_arg_select_matches_add_reduce(self):
        for algebra in WITNESS_ALGEBRAS:
            alg = get_algebra(algebra)
            arr = alg.prepare_adjacency(random_adjacency(8, 2, algebra))
            ks = alg.arg_select(arr, axis=1)
            reduced = alg.add_reduce(arr, axis=1)
            assert np.array_equal(arr[np.arange(8), ks], reduced)

    def test_arg_select_requires_policy(self):
        from repro.common.errors import ConfigurationError
        from repro.linalg.algebra import Semiring
        counting = Semiring(name="count-paths", add_op=np.add,
                            mul_op=np.multiply, zero=0.0, one=1.0)
        assert not counting.supports_witness
        with pytest.raises(ConfigurationError):
            counting.arg_select(np.zeros((2, 2)), axis=1)


# ---------------------------------------------------------------------------
# Sequential closures: parents derived after the solve (property-based)
# ---------------------------------------------------------------------------
class TestSequentialParents:
    @settings(max_examples=12, deadline=None)
    @given(seed=st.integers(0, 10_000),
           algebra=st.sampled_from(WITNESS_ALGEBRAS),
           n=st.integers(6, 24))
    def test_fw_paths_fold_to_closure(self, seed, algebra, n):
        """Property: every walk ends at its source and folds to the closure."""
        alg = get_algebra(algebra)
        adj = random_adjacency(n, seed, algebra)
        distances, parents = floyd_warshall_numpy(adj, algebra=alg, paths=True)
        assert alg.allclose(distances, semiring_closure(adj, alg))
        assert_valid_routes(parents, distances, alg.prepare_adjacency(adj), alg)

    @pytest.mark.parametrize("algebra", WITNESS_ALGEBRAS)
    def test_blocked_fw_paths(self, algebra):
        alg = get_algebra(algebra)
        adj = random_adjacency(26, 5, algebra)
        distances, parents = floyd_warshall_blocked(adj, 8, algebra=alg,
                                                    paths=True)
        assert alg.allclose(distances, semiring_closure(adj, alg))
        assert_valid_routes(parents, distances, alg.prepare_adjacency(adj), alg)


# ---------------------------------------------------------------------------
# parent_row, the one definition of a parent row
# ---------------------------------------------------------------------------
class TestParentRow:
    def test_parent_row_follows_tight_edges(self):
        alg = get_algebra("widest-path")
        adj = random_adjacency(20, 9, "widest-path")
        prepared = alg.prepare_adjacency(adj)
        closure = semiring_closure(adj, alg)
        edges = W.CsrEdges.of(prepared, alg, closure.dtype)
        row = W.parent_row(0, closure, edges, alg)
        parents = np.full(closure.shape, W.NO_VERTEX, dtype=np.int32)
        parents[0] = row
        zero = alg.zero_like(closure.dtype)
        for j in range(20):
            if j == 0 or closure[0, j] == zero:
                continue
            path = W.reconstruct_path(parents, 0, j)
            fold = fold_route(prepared, path, alg)
            assert np.isclose(float(fold), float(closure[0, j]))

    @pytest.mark.parametrize("algebra,dtype", [
        (algebra, dtype) for algebra in WITNESS_ALGEBRAS
        for dtype in (None, "float32") if dtype in get_algebra(algebra).dtypes
        or dtype is None])
    def test_parent_row_matches_a_python_bfs_over_isclose(self, algebra, dtype):
        """The loop reference: a Python BFS visiting edges in row-major order
        and marking them tight with ``np.isclose`` gives the same row."""
        alg = get_algebra(algebra)
        adj = random_adjacency(16, 7, algebra)
        adj[np.isfinite(adj) & (adj > 5.0)] = 5.0       # plateau weights
        prepared = alg.prepare_adjacency(adj, dtype=dtype)
        closure = semiring_closure(adj, alg, dtype=dtype)
        zero = alg.zero_like(closure.dtype)
        rtol = W._tight_rtol(closure.dtype)
        edges = W.CsrEdges.of(prepared, alg, closure.dtype)
        for source in range(16):
            d = closure[source]
            expected = np.full(16, W.NO_VERTEX, dtype=np.int32)
            seen, queue = {source}, [source]
            for p in queue:
                for j in range(16):
                    weight = prepared[p, j]
                    if j == p or j in seen or weight == zero:
                        continue
                    cand = alg.mul(d[p], weight)
                    if closure.dtype == np.bool_:
                        tight = bool(cand and d[j])
                    else:
                        tight = cand != zero and (
                            np.isclose(cand, d[j], rtol=rtol, atol=rtol)
                            or (np.isinf(cand) and np.isinf(d[j])))
                    if tight:
                        expected[j] = p
                        seen.add(j)
                        queue.append(j)
            assert np.array_equal(W.parent_row(source, closure, edges, alg),
                                  expected)

    def test_parent_row_is_the_same_from_either_adjacency_form(self):
        import scipy.sparse as sp
        alg = get_algebra("reachability")
        adj = random_adjacency(18, 2, "reachability")
        prepared = alg.prepare_adjacency(adj)
        closure = semiring_closure(adj, alg)
        csr = sp.csr_matrix(prepared & ~np.eye(18, dtype=bool))
        dense_edges = W.CsrEdges.of(prepared, alg, closure.dtype)
        csr_edges = W.CsrEdges.of(csr, alg, closure.dtype)
        for field in W.CsrEdges._fields:
            assert np.array_equal(getattr(dense_edges, field),
                                  getattr(csr_edges, field))
        for source in range(18):
            assert np.array_equal(W.parent_row(source, closure, dense_edges, alg),
                                  W.parent_row(source, closure, csr_edges, alg))

    def test_parent_row_rejects_a_closure_its_edges_cannot_realize(self):
        alg = get_algebra("shortest-path")
        prepared = alg.prepare_adjacency(np.array([[0.0, 1.0, np.inf],
                                                   [1.0, 0.0, np.inf],
                                                   [np.inf, np.inf, 0.0]]))
        closure = semiring_closure(prepared, alg)
        closure[0, 2] = 5.0                 # no edge reaches vertex 2
        edges = W.CsrEdges.of(prepared, alg, closure.dtype)
        assert W.parent_row(1, closure, edges, alg).tolist() == [1, -1, -1]
        with pytest.raises(SolverError, match="1 vertices from source 0"):
            W.parent_row(0, closure, edges, alg)

# ---------------------------------------------------------------------------
# derive_parents: every row equals parent_row's, compiled and on NumPy
# ---------------------------------------------------------------------------
#: Every witness algebra in every dtype it has.
WITNESS_CELLS = [(name, dtype) for name in (*WITNESS_ALGEBRAS, "longest-path")
                 for dtype in get_algebra(name).dtypes]


def derive_case(algebra, dtype, n, density, seed, *, weights="random"):
    """A prepared adjacency and its closure: symmetric (a DAG for
    longest-path), with random, plateau ({1, 2}) or 0-weight-laced weights."""
    alg = get_algebra(algebra)
    rng = np.random.default_rng(seed)
    mask = np.triu(rng.random((n, n)) < density, 1)
    if alg.name == "most-reliable":
        w = rng.uniform(0.05, 0.95, (n, n))
    elif weights == "plateau":
        w = rng.integers(1, 3, (n, n)).astype(float)
    else:
        w = rng.uniform(0.5, 9.5, (n, n))
    if weights == "zeros" and alg.name in ("shortest-path", "widest-path"):
        w[rng.random((n, n)) < 0.3] = 0.0
    if alg.name != "longest-path":
        mask, w = mask | mask.T, np.triu(w, 1) + np.triu(w, 1).T
    adj = np.where(mask, w, np.inf)
    np.fill_diagonal(adj, 0.0)
    prepared = alg.prepare_adjacency(adj, dtype=dtype)
    return alg, prepared, floyd_warshall_inplace(prepared.copy(), alg)


def parent_rows(distances, edges, alg, sources):
    """parent_row of each source, stacked; or the message it raises."""
    try:
        return np.array([W.parent_row(s, distances, edges, alg) for s in sources],
                        dtype=np.int32).reshape(len(sources), distances.shape[0])
    except SolverError as exc:
        return str(exc)


def derived(distances, edges, alg, sources):
    try:
        return W.derive_parents(distances, edges, alg, sources)
    except SolverError as exc:
        return str(exc)


def assert_same_rows(got, expected):
    if isinstance(expected, str):
        assert got == expected
    else:
        assert not isinstance(got, str), got
        assert got.dtype == np.int32 and np.array_equal(got, expected)


@pytest.fixture(params=["compiled", "numpy"])
def kernel(request):
    if request.param == "numpy":
        with native._forced("numpy"):
            yield request.param
        return
    if native.kernel() is None:
        pytest.skip(f"the compiled kernel did not load: {native.describe()}")
    yield request.param


class TestDeriveParents:
    #: (n, density, weights).  The compiled search tests eight sources at a
    #: time, so n below, at and above 8 and off its multiples leaves part
    #: groups; rows of more than eight edges, and off multiples of eight,
    #: span several of the words a search reads; plateaus tie.
    GRAPHS = [(0, 0.5, "random"), (1, 0.5, "random"), (2, 1.0, "random"),
              (13, 0.4, "plateau"), (37, 0.08, "random"), (37, 0.6, "plateau"),
              (70, 0.04, "zeros"), (90, 0.02, "random"), (65, 0.5, "zeros"),
              (120, 0.015, "plateau"), (150, 0.01, "zeros")]

    @pytest.mark.parametrize("algebra,dtype", WITNESS_CELLS)
    def test_every_row_equals_parent_row(self, algebra, dtype, kernel):
        for seed, (n, density, weights) in enumerate(self.GRAPHS):
            alg, prepared, closure = derive_case(algebra, dtype, n, density,
                                                 seed, weights=weights)
            edges = W.CsrEdges.of(prepared, alg, closure.dtype)
            everything = list(range(n))
            assert_same_rows(derived(closure, edges, alg, None),
                             parent_rows(closure, edges, alg, everything))
            some = everything[::-3]
            assert_same_rows(derived(closure, edges, alg, some),
                             parent_rows(closure, edges, alg, some))

    @pytest.mark.parametrize("algebra,dtype", WITNESS_CELLS)
    def test_csr_edges_with_stored_zeros_and_unsorted_rows(self, algebra,
                                                           dtype, kernel):
        import scipy.sparse as sp
        alg, prepared, _ = derive_case(algebra, dtype, 40, 0.5, 7,
                                       weights="plateau")
        zero, one = alg.zero_like(prepared.dtype), alg.one_like(prepared.dtype)
        rows, cols = np.nonzero((prepared != zero) & ~np.eye(40, dtype=bool))
        data = prepared[rows, cols]
        if prepared.dtype != np.bool_:
            data[::5] = 0.0                  # stored zeros: 0-weight edges
        dense = np.full((40, 40), zero, dtype=prepared.dtype)
        dense[rows, cols] = data
        np.fill_diagonal(dense, one)
        closure = floyd_warshall_inplace(dense, alg)
        canonical = sp.csr_matrix((data, (rows, cols)), shape=(40, 40))
        # Each row's entries reversed: a CSR whose rows are not sorted.
        order = np.concatenate([np.arange(hi - 1, lo - 1, -1) for lo, hi in
                                zip(canonical.indptr[:-1], canonical.indptr[1:])])
        unsorted = sp.csr_matrix((canonical.data[order],
                                  canonical.indices[order], canonical.indptr),
                                 shape=(40, 40))
        assert canonical.nnz == rows.size
        assert np.any(np.diff(unsorted.indices) > 0)
        assert np.any(np.diff(unsorted.indices[unsorted.indptr[0]:
                                               unsorted.indptr[1]]) < 0)
        for csr in (canonical, unsorted):
            edges = W.CsrEdges.of(csr, alg, closure.dtype)
            assert_same_rows(derived(closure, edges, alg, None),
                             parent_rows(closure, edges, alg, range(40)))

    @staticmethod
    def odd_case(algebra, dtype, n, seed):
        """A closure with values the plain cases lack, by ``seed % 4``: two
        edges of weight +inf, -inf or NaN (infinite entries, and the NaNs of
        inf - inf); a NaN diagonal; weights so small that products
        underflow to 0; or a DAG with negative weights."""
        alg, prepared, _ = derive_case(algebra, dtype, n, (0.1, 0.3)[seed % 2],
                                       seed, weights="plateau")
        zero = alg.zero_like(prepared.dtype)
        edges = (prepared != zero) & ~np.eye(n, dtype=bool)
        if seed % 4 == 0:
            u, v = np.random.default_rng(seed).integers(0, n, (2, 2))
            prepared[u, v] = prepared[v, u] = (np.inf, -np.inf,
                                               np.nan)[seed // 4 % 3]
        elif seed % 4 == 2:
            prepared[edges] *= np.finfo(prepared.dtype).tiny ** 0.3
        elif seed % 4 == 3:
            prepared[np.tri(n, dtype=bool) & edges] = zero
            prepared[np.triu(edges, 1)] *= -1
        closure = floyd_warshall_inplace(prepared.copy(), alg)
        if seed % 4 == 1:
            np.fill_diagonal(closure, np.nan)
        return alg, prepared, closure

    @pytest.mark.parametrize("algebra,dtype", [
        cell for cell in WITNESS_CELLS if cell[1] != "bool"])
    def test_infinite_nan_underflowing_and_negative_entries(self, algebra,
                                                            dtype, kernel):
        # Every source parent_row accepts gets its row, and the first it
        # rejects (an entry other than zero, NaN included, that no tight
        # edge reaches) raises.  Over the 16 cases of each cell parent_row
        # accepts between 189 and 231 rows.
        n = 21
        for seed in range(16):
            with np.errstate(invalid="ignore", under="ignore"):
                alg, prepared, closure = self.odd_case(algebra, dtype, n, seed)
                edges = W.CsrEdges.of(prepared, alg, closure.dtype)
                accepted, rejected = [], []
                for source in range(n):
                    try:
                        accepted.append(W.parent_row(source, closure, edges,
                                                     alg))
                    except SolverError:
                        rejected.append(source)
                assert_same_rows(
                    derived(closure, edges, alg,
                            [s for s in range(n) if s not in rejected]),
                    np.array(accepted, dtype=np.int32).reshape(-1, n))
                if rejected:
                    with pytest.raises(SolverError,
                                       match=f"source {rejected[0]};"):
                        W.derive_parents(closure, edges, alg)

    def test_an_inconsistent_closure_raises_as_parent_row_does(self, kernel):
        alg = get_algebra("shortest-path")
        prepared = alg.prepare_adjacency(np.array([[0.0, 1.0, np.inf],
                                                   [1.0, 0.0, np.inf],
                                                   [np.inf, np.inf, 0.0]]))
        closure = semiring_closure(prepared, alg)
        closure[0, 2] = 5.0                 # no edge reaches vertex 2
        edges = W.CsrEdges.of(prepared, alg, closure.dtype)
        assert W.derive_parents(closure, edges, alg, [1]).tolist() == [[1, -1, -1]]
        with pytest.raises(SolverError, match="1 vertices from source 0"):
            W.derive_parents(closure, edges, alg)

    def test_sources_out_of_range_are_rejected(self):
        alg, prepared, closure = derive_case("shortest-path", "float64", 5,
                                             0.5, 0)
        edges = W.CsrEdges.of(prepared, alg, closure.dtype)
        for sources in ([5], [-1]):
            with pytest.raises(ValidationError):
                W.derive_parents(closure, edges, alg, sources)

    def test_the_compiled_search_runs(self, monkeypatch):
        if native.kernel() is None:
            pytest.skip(f"the compiled kernel did not load: {native.describe()}")
        alg, prepared, closure = derive_case("widest-path", "float32", 30,
                                             0.3, 4)
        edges = W.CsrEdges.of(prepared, alg, closure.dtype)
        expected = parent_rows(closure, edges, alg, range(30))

        def numpy_row(*args):
            raise AssertionError("parent_row ran")
        monkeypatch.setattr(W, "parent_row", numpy_row)
        assert_same_rows(W.derive_parents(closure, edges, alg), expected)


# ---------------------------------------------------------------------------
# Reconstruction + folding edge cases
# ---------------------------------------------------------------------------
class TestReconstruction:
    def test_trivial_and_error_cases(self):
        parents = np.full((3, 3), W.NO_VERTEX, dtype=np.int32)
        assert W.reconstruct_path(parents, 1, 1) == [1]
        with pytest.raises(SolverError):
            W.reconstruct_path(parents, 0, 2)
        with pytest.raises(ValidationError):
            W.reconstruct_path(parents, 0, 9)

    def test_cycle_guard(self):
        parents = np.full((3, 3), W.NO_VERTEX, dtype=np.int32)
        parents[0, 1] = 2
        parents[0, 2] = 1
        with pytest.raises(SolverError):
            W.reconstruct_path(parents, 0, 1)

    def test_fold_route_rejects_non_edges(self):
        alg = get_algebra("shortest-path")
        prepared = alg.prepare_adjacency(
            np.array([[0.0, 1.0, np.inf],
                      [1.0, 0.0, np.inf],
                      [np.inf, np.inf, 0.0]]))
        assert fold_route(prepared, [0, 1], alg) == 1.0
        assert fold_route(prepared, [2], alg) == 0.0
        with pytest.raises(SolverError):
            fold_route(prepared, [0, 2], alg)
