"""Tests for repro.common.validation and repro.common.rng."""

import numpy as np
import pytest
import scipy.sparse as sp

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


def _tolerance_rule(adjacency) -> bool:
    """The symmetry rule before its exact fast path: ``isclose | both_inf``."""
    if sp.issparse(adjacency):
        return (adjacency != adjacency.T).nnz == 0
    arr = np.asarray(adjacency)
    if arr.dtype == np.bool_:
        return bool(np.array_equal(arr, arr.T))
    both_inf = np.isinf(arr) & np.isinf(arr.T)
    return bool((np.isclose(arr, arr.T) | both_inf).all())


def _symmetric_base(dtype=np.float64) -> np.ndarray:
    rng = np.random.default_rng(5)
    m = rng.uniform(1.0, 10.0, (6, 6))
    m = np.minimum(m, m.T)
    m[0, 3] = m[3, 0] = np.inf
    np.fill_diagonal(m, 0.0)
    return m.astype(dtype)


def _with(m: np.ndarray, cells: dict) -> np.ndarray:
    m = m.copy()
    for (i, j), value in cells.items():
        m[i, j] = value
    return m


def _symmetry_cases():
    base = _symmetric_base()
    x = base[1, 2]
    f32 = _symmetric_base(np.float32)
    y = f32[1, 2]
    bool_sym = np.isfinite(base)
    bool_asym = _with(bool_sym, {(0, 3): True})
    return {
        "exact-f64": base,
        "near-inside-rtol": _with(base, {(2, 1): x * (1 + 0.5e-5)}),
        "near-outside-rtol": _with(base, {(2, 1): x * (1 + 2e-5)}),
        "near-inside-rtol-other-side": _with(base, {(1, 2): x * (1 - 0.5e-5)}),
        "asymmetric": _with(base, {(2, 1): x + 1.0}),
        "nan-mirrored-pair": _with(base, {(1, 2): np.nan, (2, 1): np.nan}),
        "nan-one-side": _with(base, {(1, 2): np.nan}),
        "nan-diagonal": _with(base, {(4, 4): np.nan}),
        "plus-inf-vs-minus-inf": _with(base, {(0, 3): np.inf, (3, 0): -np.inf}),
        "inf-vs-finite": _with(base, {(3, 0): 7.0}),
        "exact-f32": f32,
        "near-inside-rtol-f32": _with(f32, {(2, 1): y * np.float32(1 + 0.5e-5)}),
        "near-outside-rtol-f32": _with(f32, {(2, 1): y * np.float32(1 + 5e-5)}),
        "nan-f32": _with(f32, {(1, 2): np.nan, (2, 1): np.nan}),
        "bool-symmetric": bool_sym,
        "bool-asymmetric": bool_asym,
        "csr-symmetric": sp.csr_matrix(np.where(np.isfinite(base), base, 0.0)),
        "csr-asymmetric": sp.csr_matrix(
            _with(np.where(np.isfinite(base), base, 0.0), {(2, 1): x + 1.0})),
    }


class TestSymmetryRule:
    """``is_symmetric_adjacency`` answers as the tolerance rule does, on every input."""

    @pytest.mark.parametrize("name", sorted(_symmetry_cases()))
    def test_agrees_with_tolerance_rule(self, name):
        adjacency = _symmetry_cases()[name]
        assert is_symmetric_adjacency(adjacency) == _tolerance_rule(adjacency)

    def test_cases_cover_both_answers(self):
        answers = {name: _tolerance_rule(m) for name, m in _symmetry_cases().items()}
        assert answers["near-inside-rtol"] and answers["near-inside-rtol-f32"]
        assert not answers["near-outside-rtol"]
        assert not answers["near-outside-rtol-f32"]
        assert not answers["nan-mirrored-pair"]
        assert answers["plus-inf-vs-minus-inf"]

    def test_exact_input_skips_the_tolerance_pass(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.isclose ran on an exactly symmetric input")
        monkeypatch.setattr(np, "isclose", refuse)
        assert is_symmetric_adjacency(_symmetric_base())


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
