"""The row-panel ``MatProd``: bit-identical to the untiled broadcast cube.

The dense and the witnessed product stream the ``(m, k, n)`` ⊗ cube through
:meth:`repro.linalg.algebra.Semiring.mul_panels` a few rows at a time.  The
reduction axis stays whole, so nothing may depend on the panel height or on
how the operands are laid out in memory: every case below is compared, with
no tolerance, against the cube computed in one piece.
"""

from __future__ import annotations

import zlib

import numpy as np
import pytest

from repro.common.errors import ValidationError
from repro.linalg import algebra as algebra_module
from repro.linalg.algebra import algebra_catalog, get_algebra
from repro.linalg.semiring import semiring_product
from repro.linalg.witness import NO_VERTEX, WitnessBlock, witness_block

# inf ⊗ zero cells (inf + -inf, 0 x inf) are part of the inputs on purpose.
pytestmark = pytest.mark.filterwarnings("ignore:invalid value encountered")

ALGEBRA_DTYPES = [(alg.name, dtype) for alg in algebra_catalog()
                  for dtype in alg.dtypes]

#: (m, k, n): 1x1, ragged, inner dimension 1, and a height the panels of
#: ``RAGGED_BUDGET`` do not divide (3 / 6 / 26 rows for 8 / 4 / 1-byte cells).
SHAPES = [(1, 1, 1), (7, 5, 9), (6, 1, 4), (37, 16, 24)]
RAGGED_BUDGET = 10_000

#: Panel budgets: the shipped constant, one row per panel, the whole matrix
#: in one panel, and a height that leaves a short last panel.
BUDGETS = {"default": None, "one-row": 1, "whole": 1 << 30,
           "ragged": RAGGED_BUDGET}


@pytest.fixture(params=list(BUDGETS))
def panel_budget(request, monkeypatch):
    budget = BUDGETS[request.param]
    if budget is not None:
        monkeypatch.setattr(algebra_module, "_PANEL_BYTES", budget)
    return request.param


def _rng(*case):
    """A generator seeded by the test case (``hash`` of a str is per-process)."""
    return np.random.default_rng(zlib.crc32(repr(case).encode()))


def _mirror(x):
    return np.ascontiguousarray(x.T).T


def _strided(x):
    rows, cols = x.shape
    backing = np.zeros((2 * rows + 1, 3 * cols + 2), dtype=x.dtype)
    view = backing[1::2, 2::3]
    view[...] = x
    return view


def _readonly(x):
    frozen = x.copy()
    frozen.flags.writeable = False
    return frozen


LAYOUTS = {"C": np.ascontiguousarray, "mirror": _mirror, "strided": _strided,
           "readonly": _readonly}


def _operand(rng, shape, algebra, dtype):
    """Random cells with ``inf``, ``NaN`` and the algebra's ``zero`` mixed in."""
    if dtype == "bool":
        return rng.random(shape) < 0.3
    cells = rng.uniform(0.0, 1.0, shape).astype(dtype)
    special = rng.random(shape)
    cells[special < 0.1] = np.inf
    cells[(special >= 0.1) & (special < 0.15)] = np.nan
    cells[(special >= 0.15) & (special < 0.35)] = algebra.zero_like(dtype)
    return cells


def _full_cube_product(a, b, algebra):
    return algebra.add_reduce(algebra.mul(a[:, :, None], b[None]), axis=1)


def _identical(x, y):
    return (x.dtype == y.dtype and x.shape == y.shape
            and np.array_equal(x, y, equal_nan=x.dtype.kind == "f"))


# ---------------------------------------------------------------------------
# Dense kernel
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("layout", list(LAYOUTS))
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("name,dtype", ALGEBRA_DTYPES)
def test_dense_matches_full_cube(name, dtype, shape, layout, panel_budget):
    algebra = get_algebra(name)
    rng = _rng(name, dtype, shape)
    m, k, n = shape
    a = LAYOUTS[layout](_operand(rng, (m, k), algebra, dtype))
    b = LAYOUTS[layout](_operand(rng, (k, n), algebra, dtype))
    expected = _full_cube_product(a, b, algebra)
    assert _identical(semiring_product(a, b, algebra), expected)
    out = np.empty((m, n), dtype=dtype)
    assert semiring_product(a, b, algebra, out=out) is out
    assert _identical(out, expected)


def test_ragged_budget_leaves_a_short_last_panel(monkeypatch):
    """The ``ragged`` budget really cuts 37 rows into unequal panels."""
    monkeypatch.setattr(algebra_module, "_PANEL_BYTES", RAGGED_BUDGET)
    algebra = get_algebra(None)
    a, b = np.zeros((37, 16)), np.zeros((16, 24))
    heights = [rows.stop - rows.start for rows, _ in algebra.mul_panels(a, b)]
    assert heights == [3] * 12 + [1]


def test_reduce_last_changes_memory_order_only():
    algebra = get_algebra(None)
    rng = np.random.default_rng(5)
    a, b = rng.uniform(1, 9, (6, 5)), rng.uniform(1, 9, (5, 7))
    for (rows, cube), (rows_k, cube_k) in zip(
            algebra.mul_panels(a, b), algebra.mul_panels(a, b, reduce_last=True)):
        assert rows == rows_k and cube.shape == cube_k.shape == (6, 5, 7)
        assert cube.strides[2] == cube.itemsize
        assert cube_k.strides[1] == cube_k.itemsize
        assert np.array_equal(cube, cube_k)


# ---------------------------------------------------------------------------
# out= must not overlap an operand
# ---------------------------------------------------------------------------
class TestOutOverlap:
    def _operands(self):
        rng = np.random.default_rng(11)
        return rng.uniform(1, 10, (200, 200)), rng.uniform(1, 10, (200, 200))

    def test_out_is_an_operand(self):
        a, b = self._operands()
        for out in (a, b):
            before = out.copy()
            with pytest.raises(ValidationError, match="overlap"):
                semiring_product(a, b, out=out)
            assert np.array_equal(out, before)
        with pytest.raises(ValidationError, match="overlap"):
            semiring_product(a, a, out=a)

    def test_out_partially_overlaps_a_sliced_view(self):
        backing = np.random.default_rng(12).uniform(1, 10, (200, 400))
        left, out = backing[:, :200], backing[:, 100:300]
        right = self._operands()[1]
        with pytest.raises(ValidationError, match="overlap"):
            semiring_product(left, right, out=out)
        with pytest.raises(ValidationError, match="overlap"):
            semiring_product(right, left.T, out=out)

    def test_disjoint_views_of_one_array_are_fine(self):
        backing = np.random.default_rng(13).uniform(1, 10, (200, 400))
        left, out = backing[:, :200], backing[:, 200:]
        right = self._operands()[1]
        expected = semiring_product(left.copy(), right)
        assert semiring_product(left, right, out=out) is out
        assert np.array_equal(out, expected)


# ---------------------------------------------------------------------------
# Empty dimensions: the empty ⊕-sum is ``zero``
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("name,dtype", ALGEBRA_DTYPES)
class TestEmptyDimensions:
    def test_empty_inner_dimension_is_all_zero(self, name, dtype):
        algebra = get_algebra(name)
        result = semiring_product(np.empty((3, 0), dtype=dtype),
                                  np.empty((0, 4), dtype=dtype), algebra)
        assert _identical(result, np.full((3, 4), algebra.zero_like(dtype)))
        out = np.full((3, 4), algebra.one_like(dtype))
        semiring_product(np.empty((3, 0), dtype=dtype),
                         np.empty((0, 4), dtype=dtype), algebra, out=out)
        assert _identical(out, result)

    @pytest.mark.parametrize("shape", [(0, 5, 4), (3, 5, 0), (0, 0, 0)],
                             ids=["m=0", "n=0", "all=0"])
    def test_empty_outer_dimension(self, name, dtype, shape):
        m, k, n = shape
        result = semiring_product(np.ones((m, k), dtype=dtype),
                                  np.ones((k, n), dtype=dtype), name)
        assert result.shape == (m, n) and result.dtype == np.dtype(dtype)

    def test_one_by_one(self, name, dtype):
        algebra = get_algebra(name)
        a = np.full((1, 1), algebra.one_like(dtype))
        b = np.full((1, 1), 0.5).astype(dtype)
        assert _identical(semiring_product(a, b, algebra), b)

    def test_witnessed_empty_inner_dimension(self, name, dtype):
        algebra = get_algebra(name)
        a = witness_block(np.empty((3, 0), dtype=dtype), 0, 3, algebra)
        b = witness_block(np.empty((0, 4), dtype=dtype), 3, 3, algebra)
        result = semiring_product(a, b, algebra)
        assert _identical(result.values,
                          np.full((3, 4), algebra.zero_like(dtype)))
        assert np.all(result.parents == NO_VERTEX)
        assert result.parents.shape == (3, 4)
        assert np.all(result.succs == NO_VERTEX)


# ---------------------------------------------------------------------------
# Witnessed kernel
# ---------------------------------------------------------------------------
def _plateau_block(rng, shape, row_start, col_start, algebra, dtype):
    """Integer weights from {1, 2, 3}: most inner reductions tie."""
    if dtype == "bool":
        cells = rng.random(shape) < 0.4
    else:
        cells = rng.integers(1, 4, shape).astype(dtype)
        cells[rng.random(shape) < 0.25] = algebra.zero_like(dtype)
    return witness_block(cells, row_start, col_start, algebra)


def _mirrored(block):
    """The block a stored one plays transposed: its planes as ``.T`` views,
    parents and successors swapped."""
    return WitnessBlock(block.values.T, block.succs.T, block.parents.T)


def _full_cube_witness_product(a, b, algebra):
    """The composition rules of ``repro.linalg.witness`` on the untiled cube."""
    cube = algebra.mul(a.values[:, :, None], b.values[None])
    ks = algebra.arg_select(cube, axis=1)
    rows = np.arange(a.shape[0])[:, None]
    cols = np.arange(b.shape[1])[None, :]
    values = cube[rows, ks, cols]
    no_path = values == algebra.zero_like(values.dtype)
    tails = b.parents[ks, cols]
    parents = np.where(tails == NO_VERTEX, a.parents[rows, ks], tails)
    parents[no_path] = NO_VERTEX
    heads = a.succs[rows, ks]
    succs = np.where(heads == NO_VERTEX, b.succs[ks, cols], heads)
    succs[no_path] = NO_VERTEX
    return WitnessBlock(values, parents, succs)


@pytest.mark.parametrize("planes", ["two-plane", "two-plane-mirrored"])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("name,dtype", ALGEBRA_DTYPES)
def test_witnessed_matches_full_cube(name, dtype, shape, planes, panel_budget):
    algebra = get_algebra(name)
    rng = _rng(name, dtype, shape, planes)
    m, k, n = shape
    a = _plateau_block(rng, (m, k), 0, m, algebra, dtype)
    if planes == "two-plane-mirrored":
        # Both operands as transposed views of stored blocks: planes
        # without unit-stride rows.
        a = _mirrored(_plateau_block(rng, (k, m), m, 0, algebra, dtype))
        b = _mirrored(_plateau_block(rng, (n, k), m + k, m, algebra, dtype))
    else:
        b = _plateau_block(rng, (k, n), m, m + k, algebra, dtype)
    expected = _full_cube_witness_product(a, b, algebra)
    result = semiring_product(a, b, algebra)
    assert _identical(result.values, expected.values)
    assert np.array_equal(result.parents, expected.parents)
    assert np.array_equal(result.succs, expected.succs)


def test_plateau_inputs_do_tie():
    """The witnessed cases above exercise the first-winner rule, not luck."""
    algebra = get_algebra(None)
    rng = np.random.default_rng(3)
    a = _plateau_block(rng, (37, 16), 0, 37, algebra, "float64")
    b = _plateau_block(rng, (16, 24), 37, 53, algebra, "float64")
    cube = algebra.mul(a.values[:, :, None], b.values[None])
    best = cube.min(axis=1, keepdims=True)
    tied = ((cube == best) & np.isfinite(best)).sum(axis=1) > 1
    assert tied.mean() > 0.5
