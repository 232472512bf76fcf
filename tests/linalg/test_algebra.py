"""Semiring-law and registry tests for the pluggable path algebras."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ConfigurationError, ValidationError
from repro.linalg.algebra import (
    LONGEST_PATH,
    MOST_RELIABLE,
    REACHABILITY,
    SHORTEST_PATH,
    WIDEST_PATH,
    Semiring,
    algebra_catalog,
    available_algebras,
    get_algebra,
    register_algebra,
    resolve_algebra_name,
)
from repro.linalg.semiring import (
    elementwise_combine,
    semiring_power,
    semiring_product,
    semiring_square,
)

ALL_ALGEBRAS = algebra_catalog()


def algebra_dtype_grid():
    """Every (algebra, dtype) point the policy admits."""
    return [(algebra, dtype) for algebra in ALL_ALGEBRAS for dtype in algebra.dtypes]


def random_domain_matrix(algebra: Semiring, rng: np.random.Generator,
                         rows: int, cols: int, dtype=None,
                         zero_prob: float = 0.3) -> np.ndarray:
    """Random matrix with entries from the algebra's domain (incl. ``zero``)."""
    dtype = np.dtype(dtype or algebra.default_dtype)
    if dtype == np.bool_:
        return rng.random((rows, cols)) < 0.6
    if algebra is MOST_RELIABLE:
        values = rng.uniform(0.05, 1.0, size=(rows, cols))
    elif algebra is LONGEST_PATH:
        values = rng.uniform(-5.0, 10.0, size=(rows, cols))
    else:
        values = rng.uniform(0.5, 10.0, size=(rows, cols))
    mask = rng.random((rows, cols)) < zero_prob
    values[mask] = algebra.zero
    return values.astype(dtype)


def naive_product(a: np.ndarray, b: np.ndarray, algebra: Semiring) -> np.ndarray:
    m, n = a.shape[0], b.shape[1]
    out = np.empty((m, n), dtype=a.dtype)
    for i in range(m):
        for j in range(n):
            out[i, j] = algebra.add_op.reduce(algebra.mul_op(a[i, :], b[:, j]))
    return out


class TestRegistry:
    def test_five_algebras_registered(self):
        names = available_algebras()
        for expected in ("shortest-path", "widest-path", "most-reliable",
                         "longest-path", "reachability"):
            assert expected in names

    @pytest.mark.parametrize("alias,canonical", [
        ("minplus", "shortest-path"),
        ("min_plus", "shortest-path"),
        ("bottleneck", "widest-path"),
        ("viterbi", "most-reliable"),
        ("critical-path", "longest-path"),
        ("transitive-closure", "reachability"),
    ])
    def test_aliases_resolve(self, alias, canonical):
        assert resolve_algebra_name(alias) == canonical
        assert get_algebra(alias).name == canonical

    def test_none_means_minplus(self):
        assert get_algebra(None) is SHORTEST_PATH

    def test_instance_passthrough(self):
        assert get_algebra(WIDEST_PATH) is WIDEST_PATH

    def test_unknown_algebra_raises(self):
        with pytest.raises(ConfigurationError):
            get_algebra("no-such-algebra")

    def test_conflicting_alias_rejected(self):
        clone = Semiring(name="clone", add_op=np.minimum, mul_op=np.add,
                         zero=np.inf, one=0.0)
        with pytest.raises(ConfigurationError):
            register_algebra(clone, aliases=("minplus",))

    @pytest.mark.parametrize("algebra", ALL_ALGEBRAS, ids=lambda a: a.name)
    def test_pickle_round_trip_is_identity(self, algebra):
        assert pickle.loads(pickle.dumps(algebra)) is algebra

    def test_bad_default_dtype_rejected(self):
        with pytest.raises(ConfigurationError):
            Semiring(name="bad", add_op=np.minimum, mul_op=np.add,
                     zero=np.inf, one=0.0, dtypes=("float64",),
                     default_dtype="float32")


class TestDtypePolicy:
    @pytest.mark.parametrize("algebra,dtype", algebra_dtype_grid(),
                             ids=lambda v: getattr(v, "name", v))
    def test_resolve_supported(self, algebra, dtype):
        assert algebra.resolve_dtype(dtype).name == dtype

    def test_resolve_default(self):
        assert SHORTEST_PATH.resolve_dtype(None) == np.float64
        assert REACHABILITY.resolve_dtype(None) == np.bool_

    def test_unsupported_dtype_rejected(self):
        with pytest.raises(ConfigurationError):
            SHORTEST_PATH.resolve_dtype("bool")
        with pytest.raises(ConfigurationError):
            REACHABILITY.resolve_dtype("float64")

    def test_result_dtype_preserves_float32(self):
        a = np.zeros((2, 2), dtype=np.float32)
        assert SHORTEST_PATH.result_dtype(a, a) == np.float32
        # Mixed precision upcasts; unsupported int falls back to the default.
        assert SHORTEST_PATH.result_dtype(a, a.astype(np.float64)) == np.float64
        assert SHORTEST_PATH.result_dtype(np.zeros((2, 2), dtype=np.int64)) == np.float64

    @pytest.mark.parametrize("algebra", ALL_ALGEBRAS, ids=lambda a: a.name)
    def test_result_dtype_is_the_same_pure_function_on_every_call(self, algebra):
        # The (algebra, common dtype) -> compute dtype decision is looked up
        # after its first evaluation; lookups must repeat what the policy says.
        default = np.dtype(algebra.default_dtype)
        assert algebra.result_dtype() is default
        for name in ("float64", "float32", "float16", "int64", "uint8", "bool",
                     "complex128"):
            common = np.dtype(name)
            expected = common if common.name in algebra.dtypes else default
            for _ in range(2):
                assert algebra.result_dtype(np.zeros(2, dtype=common)) is expected
        mixed = algebra.result_dtype(np.zeros(2, dtype=np.float32), np.zeros(2))
        assert mixed is (np.dtype("float64") if "float64" in algebra.dtypes else default)

    def test_product_preserves_float32(self):
        rng = np.random.default_rng(0)
        a = random_domain_matrix(SHORTEST_PATH, rng, 6, 6, dtype=np.float32)
        out = semiring_product(a, a, SHORTEST_PATH)
        assert out.dtype == np.float32


class TestPrepareAdjacency:
    @pytest.mark.parametrize("algebra", ALL_ALGEBRAS, ids=lambda a: a.name)
    def test_diagonal_is_one_and_missing_is_zero(self, algebra):
        weights = np.full((4, 4), np.inf)
        weights[0, 1] = 0.5
        prepared = algebra.prepare_adjacency(weights)
        one = algebra.one_like(prepared.dtype) if prepared.dtype != np.bool_ else True
        zero = algebra.zero_like(prepared.dtype) if prepared.dtype != np.bool_ else False
        assert (np.diag(prepared) == one).all()
        assert prepared[2, 3] == zero

    def test_bool_from_float_weights(self):
        weights = np.array([[0.0, 2.0], [np.inf, 0.0]])
        prepared = REACHABILITY.prepare_adjacency(weights)
        assert prepared.dtype == np.bool_
        assert prepared[0, 1] and not prepared[1, 0]
        assert prepared[0, 0] and prepared[1, 1]

    def test_dtype_cast(self):
        weights = np.zeros((3, 3))
        assert SHORTEST_PATH.prepare_adjacency(weights, dtype="float32").dtype == np.float32

    def test_input_dtype_preserved_without_explicit_dtype(self):
        weights = np.zeros((3, 3), dtype=np.float32)
        assert SHORTEST_PATH.prepare_adjacency(weights).dtype == np.float32

    def test_non_square_rejected(self):
        with pytest.raises(ValidationError):
            SHORTEST_PATH.prepare_adjacency(np.zeros((2, 3)))


class TestInputValidators:
    def test_negative_rejected_for_minplus_and_maxmin(self):
        bad = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValidationError):
            SHORTEST_PATH.validate_input(bad)
        with pytest.raises(ValidationError):
            WIDEST_PATH.validate_input(bad)

    def test_probability_bounds_for_most_reliable(self):
        with pytest.raises(ValidationError):
            MOST_RELIABLE.validate_input(np.array([[0.0, 1.5], [1.5, 0.0]]))
        MOST_RELIABLE.validate_input(np.array([[0.0, 0.5], [0.5, 0.0]]))

    def test_reachability_needs_no_precondition(self):
        REACHABILITY.validate_input(np.array([[0.0, -7.0], [99.0, 0.0]]))

    def test_longest_path_requires_dag(self):
        cyclic = np.full((3, 3), np.inf)
        cyclic[0, 1] = cyclic[1, 2] = cyclic[2, 0] = 1.0
        with pytest.raises(ValidationError):
            LONGEST_PATH.validate_input(cyclic)
        dag = np.full((3, 3), np.inf)
        dag[0, 1] = dag[1, 2] = 1.0
        LONGEST_PATH.validate_input(dag)

    def test_undirected_edge_is_a_cycle_for_longest_path(self):
        sym = np.full((2, 2), np.inf)
        sym[0, 1] = sym[1, 0] = 1.0
        with pytest.raises(ValidationError):
            LONGEST_PATH.validate_input(sym)


class TestSemiringLaws:
    """Property-style algebraic laws on random domain matrices.

    Checked elementwise for every registered algebra and supported dtype:
    ⊕ associativity/commutativity/idempotence, identity and annihilator
    behaviour of ``zero``/``one``, and distributivity of ⊗ over ⊕.
    """

    @pytest.mark.parametrize("algebra,dtype", algebra_dtype_grid(),
                             ids=lambda v: getattr(v, "name", v))
    def test_add_is_associative_commutative_idempotent(self, algebra, dtype):
        rng = np.random.default_rng(7)
        a = random_domain_matrix(algebra, rng, 8, 8, dtype)
        b = random_domain_matrix(algebra, rng, 8, 8, dtype)
        c = random_domain_matrix(algebra, rng, 8, 8, dtype)
        assert algebra.allclose(algebra.add(algebra.add(a, b), c),
                                algebra.add(a, algebra.add(b, c)))
        assert algebra.allclose(algebra.add(a, b), algebra.add(b, a))
        assert algebra.allclose(algebra.add(a, a), a)

    @pytest.mark.parametrize("algebra,dtype", algebra_dtype_grid(),
                             ids=lambda v: getattr(v, "name", v))
    def test_identities_and_annihilator(self, algebra, dtype):
        rng = np.random.default_rng(8)
        a = random_domain_matrix(algebra, rng, 8, 8, dtype)
        zero = np.full_like(a, algebra.zero_like(dtype))
        one = np.full_like(a, algebra.one_like(dtype))
        # zero is the ⊕ identity, one the ⊗ identity, zero the ⊗ annihilator.
        assert algebra.allclose(algebra.add(a, zero), a)
        assert algebra.allclose(algebra.mul(a, one), a)
        assert algebra.allclose(algebra.mul(a, zero), zero)

    @pytest.mark.parametrize("algebra,dtype", algebra_dtype_grid(),
                             ids=lambda v: getattr(v, "name", v))
    def test_mul_distributes_over_add(self, algebra, dtype):
        rng = np.random.default_rng(9)
        a = random_domain_matrix(algebra, rng, 8, 8, dtype)
        b = random_domain_matrix(algebra, rng, 8, 8, dtype)
        c = random_domain_matrix(algebra, rng, 8, 8, dtype)
        left = algebra.mul(a, algebra.add(b, c))
        right = algebra.add(algebra.mul(a, b), algebra.mul(a, c))
        assert algebra.allclose(left, right, rtol=1e-4, atol=1e-6)

    @pytest.mark.parametrize("algebra", ALL_ALGEBRAS, ids=lambda a: a.name)
    def test_matrix_product_matches_naive(self, algebra):
        rng = np.random.default_rng(10)
        a = random_domain_matrix(algebra, rng, 5, 7)
        b = random_domain_matrix(algebra, rng, 7, 4)
        assert algebra.allclose(semiring_product(a, b, algebra),
                                naive_product(a, b, algebra))

    @pytest.mark.parametrize("algebra", ALL_ALGEBRAS, ids=lambda a: a.name)
    def test_identity_matrix_is_product_identity(self, algebra):
        rng = np.random.default_rng(11)
        a = random_domain_matrix(algebra, rng, 6, 6)
        ident = algebra.identity_matrix(6, a.dtype)
        assert algebra.allclose(semiring_product(a, ident, algebra), a)
        assert algebra.allclose(semiring_product(ident, a, algebra), a)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 7), st.integers(0, 10_000),
           st.sampled_from([a.name for a in ALL_ALGEBRAS]))
    def test_property_matrix_product_associativity(self, n, seed, algebra_name):
        algebra = get_algebra(algebra_name)
        rng = np.random.default_rng(seed)
        a = random_domain_matrix(algebra, rng, n, n)
        b = random_domain_matrix(algebra, rng, n, n)
        c = random_domain_matrix(algebra, rng, n, n)
        left = semiring_product(semiring_product(a, b, algebra), c, algebra)
        right = semiring_product(a, semiring_product(b, c, algebra), algebra)
        assert algebra.allclose(left, right, rtol=1e-6, atol=1e-9)

    @pytest.mark.parametrize("algebra", ALL_ALGEBRAS, ids=lambda a: a.name)
    def test_square_absorbs_original(self, algebra):
        rng = np.random.default_rng(12)
        a = random_domain_matrix(algebra, rng, 6, 6)
        squared = semiring_square(a, algebra)
        # A ⊕ A² keeps A: combining back changes nothing.
        assert algebra.allclose(elementwise_combine(squared, a, algebra), squared)

    def test_power_requires_positive_exponent(self):
        with pytest.raises(ValidationError):
            semiring_power(np.zeros((2, 2)), 0, WIDEST_PATH)
