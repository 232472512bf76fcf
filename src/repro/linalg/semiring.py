"""Semiring matrix operations — the public ``MatProd``/``MatMin``/``MinPlus`` entry points.

APSP can be posed as computing the closure of the adjacency matrix under the
(min, +) semiring: ``C[i, j] = min_k (A[i, k] + B[k, j])`` replaces the inner
product of ordinary matrix multiplication (paper Section 2 and the ``MatProd``
/ ``MatMin`` building blocks of Table 1).  The same kernels, parameterized by
a :class:`~repro.linalg.algebra.Semiring`, compute the closure under any
registered path algebra (widest path, most-reliable path, transitive
closure, ...).

Every function here accepts any block payload — dense ``ndarray`` or
:class:`~repro.linalg.bitset.PackedBlock` (and, for the product only,
:class:`~repro.linalg.witness.WitnessBlock`) — and routes it through
:func:`repro.linalg.payload.payload_ops`; the kernels themselves live with
their representation (:mod:`repro.linalg.payload` for dense blocks).
"""

from __future__ import annotations

import math

import numpy as np

from repro.common.errors import ValidationError
from repro.linalg.algebra import Semiring, get_algebra
from repro.linalg.payload import payload_ops


def elementwise_combine(a, b, algebra: Semiring | str | None = None):
    """Elementwise ⊕ of two equally-shaped matrices (``MatMin`` generalized).

    Packed operands take the word-parallel OR kernel — 64 cells per machine
    word.
    """
    algebra = get_algebra(algebra)
    return payload_ops(a, b, algebra=algebra).combine(a, b, algebra)


def semiring_product(a, b,
                     algebra: Semiring | str | None = None, *,
                     out: np.ndarray | None = None):
    """Semiring matrix product ``C[i, j] = ⊕_k A[i, k] ⊗ B[k, j]``.

    This is the ``MatProd`` building block of Table 1, generalized over the
    algebra.  ``a`` has shape ``(m, k)``, ``b`` has shape ``(k, n)``; the
    result has shape ``(m, n)``.  Under (min, +), ``inf`` entries represent
    missing edges and propagate correctly (``inf + x = inf``,
    ``min(inf, x) = x``); other algebras use their own ``zero``.

    An empty inner dimension gives the empty ⊕-sum: ``zero`` everywhere
    (witness planes ``NO_VERTEX``).

    Parameters
    ----------
    out:
        Optional pre-allocated output block of shape ``(m, n)``, overwritten
        (dense and packed operands only).  It must not share memory with an
        operand.
    """
    algebra = get_algebra(algebra)
    return payload_ops(a, b, algebra=algebra).product(a, b, algebra, out=out)


def semiring_relax(base, left, right, algebra: Semiring | str | None = None):
    """``base ⊕ (left ⊗ right)`` — the ``MinPlus`` building block of Table 1.

    The one update the blocked solvers apply in phases 2 and 3 (and a
    squaring applies to itself); operand order matters because semiring
    matrix products do not commute.
    """
    algebra = get_algebra(algebra)
    return payload_ops(base, left, right, algebra=algebra).relax(
        base, left, right, algebra)


def minplus_product(a: np.ndarray, b: np.ndarray, *,
                    out: np.ndarray | None = None) -> np.ndarray:
    """Min-plus matrix product ``C[i, j] = min_k A[i, k] + B[k, j]`` (``MatProd``)."""
    return semiring_product(a, b, None, out=out)


def semiring_square(a: np.ndarray,
                    algebra: Semiring | str | None = None) -> np.ndarray:
    """Semiring square ``A ⊗ A`` combined elementwise (⊕) with ``A``.

    Squaring in a path closure must keep existing (shorter-or-equal) paths,
    which the diagonal ``one`` already guarantees; the explicit ⊕ with ``a``
    makes the kernel robust to inputs whose diagonal is not exactly ``one``.
    """
    return semiring_relax(a, a, a, algebra)


def semiring_power(a: np.ndarray, exponent: int,
                   algebra: Semiring | str | None = None) -> np.ndarray:
    """Semiring matrix power ``A^exponent`` computed by repeated squaring.

    With ``exponent >= n - 1`` this yields the full closure for a graph with
    ``n`` vertices (assuming the diagonal holds the algebra's ``one``).
    """
    if exponent < 1:
        raise ValidationError("exponent must be >= 1")
    algebra = get_algebra(algebra)
    # A ⊕ A = A (⊕ is idempotent): a fresh block in the algebra's dtype,
    # whatever the payload, so the caller's operand is never returned.
    result = elementwise_combine(a, a, algebra)
    e = 1
    while e < exponent:
        result = semiring_square(result, algebra)
        e *= 2
    return result


def closure_iterations(n: int) -> int:
    """Number of squarings needed so that ``A^(2^k) = A^*`` for an n-vertex graph.

    Optimal paths in an absorptive semiring are simple (at most ``n - 1``
    edges), so ``ceil(log2(n - 1))`` squarings suffice (0 for n <= 2) — the
    same bound for every registered algebra.
    """
    if n <= 0:
        raise ValidationError("n must be positive")
    if n <= 2:
        return 1 if n == 2 else 0
    return int(math.ceil(math.log2(n - 1)))
