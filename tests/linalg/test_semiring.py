"""Tests for the (min, +) semiring kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.common.errors import ValidationError
from repro.linalg.semiring import (
    closure_iterations,
    elementwise_combine,
    minplus_product,
    semiring_power,
    semiring_square,
)


def naive_minplus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    m, k = a.shape
    n = b.shape[1]
    out = np.full((m, n), np.inf)
    for i in range(m):
        for j in range(n):
            out[i, j] = np.min(a[i, :] + b[:, j])
    return out


def random_weight_matrix(rng, rows, cols, inf_prob=0.3):
    mat = rng.uniform(0.5, 10.0, size=(rows, cols))
    mask = rng.random((rows, cols)) < inf_prob
    mat[mask] = np.inf
    return mat


class TestMinplusProduct:
    def test_matches_naive_small(self):
        rng = np.random.default_rng(0)
        a = random_weight_matrix(rng, 7, 5)
        b = random_weight_matrix(rng, 5, 9)
        assert np.allclose(minplus_product(a, b), naive_minplus(a, b))

    def test_rectangular_shapes(self):
        rng = np.random.default_rng(1)
        a = random_weight_matrix(rng, 3, 8)
        b = random_weight_matrix(rng, 8, 2)
        out = minplus_product(a, b)
        assert out.shape == (3, 2)

    def test_identity_behaviour(self):
        # The min-plus identity has 0 on the diagonal and inf elsewhere.
        rng = np.random.default_rng(2)
        a = random_weight_matrix(rng, 6, 6)
        ident = np.full((6, 6), np.inf)
        np.fill_diagonal(ident, 0.0)
        assert np.allclose(minplus_product(a, ident), a)
        assert np.allclose(minplus_product(ident, a), a)

    def test_inf_propagation(self):
        a = np.array([[np.inf, np.inf], [np.inf, np.inf]])
        b = np.array([[1.0, 2.0], [3.0, 4.0]])
        out = minplus_product(a, b)
        assert np.all(np.isinf(out))

    def test_out_parameter(self):
        rng = np.random.default_rng(4)
        a = random_weight_matrix(rng, 5, 5)
        out = np.empty((5, 5))
        result = minplus_product(a, a, out=out)
        assert result is out

    def test_wrong_out_shape_rejected(self):
        a = np.zeros((3, 3))
        with pytest.raises(ValidationError):
            minplus_product(a, a, out=np.empty((2, 2)))

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            minplus_product(np.zeros((3, 4)), np.zeros((5, 3)))

    def test_non_2d_rejected(self):
        with pytest.raises(ValidationError):
            minplus_product(np.zeros(3), np.zeros((3, 3)))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(2, 8), st.integers(2, 8), st.integers(2, 8), st.integers(0, 10_000))
    def test_property_matches_naive(self, m, k, n, seed):
        rng = np.random.default_rng(seed)
        a = random_weight_matrix(rng, m, k)
        b = random_weight_matrix(rng, k, n)
        assert np.allclose(minplus_product(a, b), naive_minplus(a, b))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(2, 7), st.integers(0, 10_000))
    def test_property_associativity(self, n, seed):
        rng = np.random.default_rng(seed)
        a = random_weight_matrix(rng, n, n)
        b = random_weight_matrix(rng, n, n)
        c = random_weight_matrix(rng, n, n)
        left = minplus_product(minplus_product(a, b), c)
        right = minplus_product(a, minplus_product(b, c))
        assert np.allclose(left, right)


class TestElementwiseMin:
    def test_basic(self):
        a = np.array([[1.0, 5.0]])
        b = np.array([[2.0, 3.0]])
        assert np.array_equal(elementwise_combine(a, b), [[1.0, 3.0]])

    def test_inf_handling(self):
        a = np.array([[np.inf]])
        b = np.array([[4.0]])
        assert elementwise_combine(a, b)[0, 0] == 4.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            elementwise_combine(np.zeros((2, 2)), np.zeros((3, 3)))

    @settings(max_examples=20, deadline=None)
    @given(st.integers(1, 6), st.integers(0, 10_000))
    def test_property_commutative_idempotent(self, n, seed):
        rng = np.random.default_rng(seed)
        a = random_weight_matrix(rng, n, n)
        b = random_weight_matrix(rng, n, n)
        assert np.array_equal(elementwise_combine(a, b), elementwise_combine(b, a))
        assert np.array_equal(elementwise_combine(a, a), a)


class TestMinplusPower:
    def test_power_yields_shortest_paths(self):
        # Path graph 0-1-2-3 with unit weights.
        adj = np.full((4, 4), np.inf)
        np.fill_diagonal(adj, 0.0)
        for i in range(3):
            adj[i, i + 1] = adj[i + 1, i] = 1.0
        closure = semiring_power(adj, 4)
        assert closure[0, 3] == 3.0
        assert closure[3, 0] == 3.0

    def test_square_keeps_existing_paths(self):
        adj = np.full((3, 3), np.inf)
        np.fill_diagonal(adj, 0.0)
        adj[0, 1] = adj[1, 0] = 2.0
        squared = semiring_square(adj)
        assert squared[0, 1] == 2.0

    def test_invalid_exponent(self):
        with pytest.raises(ValidationError):
            semiring_power(np.zeros((2, 2)), 0)


class TestClosureIterations:
    @pytest.mark.parametrize("n,expected", [(1, 0), (2, 1), (3, 1), (4, 2), (5, 2),
                                            (9, 3), (262144, 18)])
    def test_values(self, n, expected):
        assert closure_iterations(n) == expected

    def test_invalid_n(self):
        with pytest.raises(ValidationError):
            closure_iterations(0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(3, 2000))
    def test_property_sufficient_for_paths(self, n):
        # 2^iterations must be at least n - 1 (the longest possible shortest path).
        iterations = closure_iterations(n)
        assert 2 ** iterations >= n - 1
        assert 2 ** (iterations - 1) < n - 1
