"""Tests for repro.common.validation and repro.common.rng."""

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.common.rng import make_rng, derive_seed
from repro.common.validation import (
    check_block_size,
    check_positive_int,
    check_square_matrix,
)
from repro.graph.adjacency import is_symmetric_adjacency
from repro.linalg.algebra import get_algebra


class TestCheckPositiveInt:
    def test_accepts_positive(self):
        assert check_positive_int(5, "x") == 5

    def test_accepts_numpy_int(self):
        assert check_positive_int(np.int64(3), "x") == 3

    @pytest.mark.parametrize("value", [0, -1, 2.5, "3", True])
    def test_rejects_invalid(self, value):
        with pytest.raises(ValidationError):
            check_positive_int(value, "x")


class TestCheckSquareMatrix:
    def test_accepts_square(self):
        out = check_square_matrix(np.eye(3))
        assert out.dtype == np.float64

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            check_square_matrix(np.zeros((2, 3)))

    def test_rejects_1d(self):
        with pytest.raises(ValidationError):
            check_square_matrix(np.zeros(4))

    def test_rejects_empty(self):
        with pytest.raises(ValidationError):
            check_square_matrix(np.zeros((0, 0)))

    def test_check_square_dtype_none_preserves_native(self):
        m32 = np.zeros((2, 2), dtype=np.float32)
        assert check_square_matrix(m32, dtype=None).dtype == np.float32
        mb = np.zeros((2, 2), dtype=bool)
        assert check_square_matrix(mb, dtype=None).dtype == np.bool_
        mi = np.zeros((2, 2), dtype=np.int32)
        assert check_square_matrix(mi, dtype=None).dtype == np.float64


class TestAlgebraWeightPreconditions:
    def test_accepts_inf_entries(self):
        m = np.array([[0.0, np.inf], [np.inf, 0.0]])
        get_algebra(None).validate_input(m)

    def test_rejects_negative(self):
        m = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValidationError):
            get_algebra(None).validate_input(m)

    def test_algebra_conditional(self):
        # Non-negativity is a (min, +) precondition, not a universal one:
        # the check routes through the algebra's input-validator hook.
        m = np.array([[0.0, -1.0], [-1.0, 0.0]])
        get_algebra("reachability").validate_input(m)  # no precondition
        with pytest.raises(ValidationError):
            get_algebra("widest-path").validate_input(m)
        probs = np.array([[0.0, 0.5], [0.5, 0.0]])
        get_algebra("most-reliable").validate_input(probs)
        too_big = np.array([[0.0, 2.0], [2.0, 0.0]])
        with pytest.raises(ValidationError):
            get_algebra("most-reliable").validate_input(too_big)


class TestCheckBlockSize:
    def test_valid(self):
        assert check_block_size(4, 16) == 4

    def test_block_larger_than_n_rejected(self):
        with pytest.raises(ValidationError):
            check_block_size(32, 16)

    def test_zero_rejected(self):
        with pytest.raises(ValidationError):
            check_block_size(0, 16)


class TestIsSymmetricAdjacency:
    def test_symmetric_with_inf_passes(self):
        m = np.array([[0.0, np.inf], [np.inf, 0.0]])
        assert is_symmetric_adjacency(m)

    def test_asymmetric_rejected(self):
        m = np.array([[0.0, 1.0], [2.0, 0.0]])
        assert not is_symmetric_adjacency(m)


class TestRng:
    def test_make_rng_deterministic(self):
        a = make_rng(42).random(5)
        b = make_rng(42).random(5)
        assert np.array_equal(a, b)

    def test_make_rng_passthrough(self):
        gen = np.random.default_rng(0)
        assert make_rng(gen) is gen

    def test_derive_seed_is_stable_and_distinct(self):
        assert derive_seed(1, 2, 3) == derive_seed(1, 2, 3)
        assert derive_seed(1, 2, 3) != derive_seed(1, 3, 2)
        assert 0 <= derive_seed(123, 7) < 2 ** 63
