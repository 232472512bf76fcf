"""Pluggable path algebras: semirings the APSP machinery is generic over.

The paper poses APSP as computing the closure of the adjacency matrix under
the (min, +) semiring built from the ``MatProd`` / ``MatMin`` /
``FloydWarshall`` building blocks of Table 1.  Nothing in that construction
is specific to (min, +): swapping the pair of operations turns the very same
solvers into a family of path-problem solvers, GraphBLAS-style.

A :class:`Semiring` bundles

* ``add_op`` — the path-choice operation ⊕ (``MatMin`` generalized),
* ``mul_op`` — the path-extension operation ⊗ (the inner op of ``MatProd``),
* ``zero``  — the ⊕ identity and ⊗ annihilator ("no path"),
* ``one``   — the ⊗ identity (the self-distance on the diagonal),
* a dtype policy (which NumPy dtypes the algebra supports and its default),
* an optional input validator encoding the algebra's precondition on edge
  weights (e.g. non-negativity for shortest paths),
* a *witness* policy (``witness_select``): the arg-reduction matching ⊕;
  an algebra with one answers ``paths=True`` (parent rows are derived from
  its closure, see :mod:`repro.linalg.witness`).

Registered instances:

=================  =========  =========  ========  ========  =======  ==================
name               ⊕          ⊗          zero      one       witness  weights
=================  =========  =========  ========  ========  =======  ==================
``shortest-path``  min        ``+``      ``+inf``  ``0``     argmin   non-negative
``widest-path``    max        min        ``0``     ``+inf``  argmax   non-negative
``most-reliable``  max        ``×``      ``0``     ``1``     argmax   in ``[0, 1]``
``longest-path``   max        ``+``      ``-inf``  ``0``     argmax   DAG inputs only
``reachability``   or         and        ``False`` ``True``  argmax   none (bool)
=================  =========  =========  ========  ========  =======  ==================

Every ⊕ here is *selective* (min/max/or: the result **is** one of the
operands), so every non-``zero`` closure entry is realized by some path
whose last edge is *tight* (``D[s, p] ⊗ E[p, j] == D[s, j]``), which is what
parent rows are built from; a non-selective ⊕ (e.g. counting paths with
``+``) would have ``witness_select = None`` and simply opt out of
``paths=True``.

All registered algebras except ``longest-path`` are *absorptive*
(``one ⊕ x = one``): cycles never improve a path, so Floyd-Warshall and
repeated squaring are correct on arbitrary graphs.  ``longest-path`` is not,
which is why its input validator rejects anything with a directed cycle.

Semirings pickle by name (they travel inside the picklable phase callables of
the ``processes`` scheduler backend), so registered instances must stay
importable from this module.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from repro.common.errors import ConfigurationError, ValidationError

#: Byte budget of the ``(rows, k, n)`` cube :meth:`Semiring.mul_panels`
#: streams per step.  Sized from a sweep of 64 KiB-4 MiB over block sides
#: 32-512 x {float64, float32, bool} x {contiguous, mirrored} right operands
#: (recorded in CHANGES.md, PR 13): 512 KiB is at or within noise of the best
#: everywhere, and throughput drops 10-25 % once the cube no longer fits a
#: 2 MiB per-core L2 together with the operands.
_PANEL_BYTES = 512 * 1024


# ---------------------------------------------------------------------------
# Input validators (module-level so they pickle with their Semiring)
# ---------------------------------------------------------------------------
def validate_nonnegative_weights(weights: np.ndarray, name: str = "adjacency") -> None:
    """Precondition of (min, +) and (max, min): finite weights must be >= 0."""
    arr = np.asarray(weights)
    if arr.dtype == np.bool_:
        return
    finite = arr[np.isfinite(arr)]
    if finite.size and float(finite.min()) < 0.0:
        raise ValidationError(f"{name} contains negative weights; only "
                              "non-negative edge weights are supported by this algebra")


def validate_probability_weights(weights: np.ndarray, name: str = "adjacency") -> None:
    """Precondition of (max, ×): finite weights are probabilities in [0, 1]."""
    arr = np.asarray(weights)
    if arr.dtype == np.bool_:
        return
    finite = arr[np.isfinite(arr)]
    if finite.size and (float(finite.min()) < 0.0 or float(finite.max()) > 1.0):
        raise ValidationError(f"{name} must hold edge reliabilities in [0, 1] "
                              "for the most-reliable path algebra")


def validate_dag_weights(weights: np.ndarray, name: str = "adjacency") -> None:
    """Precondition of (max, +): the edge set must be acyclic (Kahn's algorithm).

    With cycles, longest path lengths diverge and the semiring closure is
    undefined; note a symmetric (undirected) matrix with any edge is cyclic.
    """
    arr = np.asarray(weights)
    if arr.dtype == np.bool_:
        edges = arr.copy()
    else:
        edges = np.isfinite(np.asarray(arr, dtype=np.float64))
    np.fill_diagonal(edges, False)
    n = edges.shape[0]
    indegree = edges.sum(axis=0).astype(np.int64)
    stack = [v for v in range(n) if indegree[v] == 0]
    seen = 0
    while stack:
        v = stack.pop()
        seen += 1
        for w in np.nonzero(edges[v])[0]:
            indegree[w] -= 1
            if indegree[w] == 0:
                stack.append(int(w))
    if seen != n:
        raise ValidationError(
            f"{name} contains a directed cycle; the longest-path algebra is "
            "only defined on DAGs (undirected graphs are always cyclic)")


# ---------------------------------------------------------------------------
# The Semiring abstraction
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Semiring:
    """A path algebra: ``(⊕, ⊗, zero, one)`` plus its dtype policy.

    Instances are frozen and stateless; the heavy lifting is delegated to the
    NumPy ufuncs held in ``add_op`` / ``mul_op``, so the generic kernels run
    at exactly the speed of the hand-written (min, +) originals — the
    "specialization" is the ufunc dispatch NumPy already does.
    """

    name: str
    add_op: np.ufunc                       # ⊕, elementwise binary
    mul_op: np.ufunc                       # ⊗, elementwise binary
    zero: float | bool                     # ⊕ identity, ⊗ annihilator
    one: float | bool                      # ⊗ identity
    dtypes: tuple[str, ...] = ("float64", "float32")
    default_dtype: str = "float64"
    input_validator: Callable[[np.ndarray], None] | None = None
    absorptive: bool = True                # one ⊕ x == one: cycles never help
    #: Block storage policies this algebra's kernels can run on, first is the
    #: default.  ``"dense"`` is a plain ndarray block; ``"packed"`` is the
    #: uint64 packed-bitset layout of :mod:`repro.linalg.bitset` (64 cells
    #: per word — only meaningful for one-bit-per-cell boolean algebras).
    storages: tuple[str, ...] = ("dense",)
    #: Block grid layouts this algebra's solves can run under, first is the
    #: preferred one for symmetric inputs.  ``"triangular"`` stores the upper
    #: block triangle and serves mirror blocks via transposes (symmetric
    #: inputs only); ``"full"`` stores all q² blocks and supports directed
    #: (asymmetric) inputs.  Algebras whose inputs are inherently directed
    #: (e.g. the DAG-only longest-path algebra) list ``("full",)``.
    layouts: tuple[str, ...] = ("triangular", "full")
    #: Witness policy: the arg-reduction matching ⊕ (``"min"`` for a min-⊕,
    #: ``"max"`` for max/or), or ``None`` when the algebra cannot track
    #: "which operand won" and therefore cannot reconstruct paths.  Only
    #: meaningful for selective ⊕ operations (the result is one operand).
    witness_select: str | None = None
    description: str = ""
    #: Memo of :meth:`result_dtype`: operands' common dtype -> compute dtype.
    _result_dtypes: dict = field(default_factory=dict, init=False, repr=False,
                                 compare=False)

    def __post_init__(self) -> None:
        if self.default_dtype not in self.dtypes:
            raise ConfigurationError(
                f"algebra {self.name!r}: default dtype {self.default_dtype!r} "
                f"not among supported dtypes {self.dtypes}")
        unknown = set(self.storages) - {"dense", "packed"}
        if not self.storages or unknown:
            raise ConfigurationError(
                f"algebra {self.name!r}: invalid storage policies {self.storages}")
        unknown_layouts = set(self.layouts) - {"triangular", "full"}
        if not self.layouts or unknown_layouts:
            raise ConfigurationError(
                f"algebra {self.name!r}: invalid layout policies {self.layouts}")
        if self.witness_select not in (None, "min", "max"):
            raise ConfigurationError(
                f"algebra {self.name!r}: witness_select must be None, 'min' "
                f"or 'max', got {self.witness_select!r}")

    # -- pickling ----------------------------------------------------------
    def __reduce__(self):
        """Pickle by name so phase callables ship cheaply to worker processes."""
        return (get_algebra, (self.name,))

    # -- dtype policy ------------------------------------------------------
    def resolve_dtype(self, dtype: str | np.dtype | None = None) -> np.dtype:
        """Resolve a requested dtype against this algebra's policy.

        ``None`` selects the algebra's default; anything else must name one
        of the supported dtypes.
        """
        if dtype is None:
            return np.dtype(self.default_dtype)
        if isinstance(dtype, str) and dtype in self.dtypes:
            # Already canonical (every replace() of a validated request):
            # skip ``np.dtype.name``, a Python-level property that costs more
            # than the rest of a SolveRequest's validation together.
            return np.dtype(dtype)
        try:
            resolved = np.dtype(dtype)
        except TypeError as exc:
            raise ConfigurationError(f"invalid dtype {dtype!r}") from exc
        if resolved.name not in self.dtypes:
            raise ConfigurationError(
                f"algebra {self.name!r} supports dtypes {', '.join(self.dtypes)}; "
                f"got {resolved.name!r}")
        return resolved

    # -- storage policy ----------------------------------------------------
    @property
    def default_storage(self) -> str:
        """The block-storage layout this algebra's solves use by default."""
        return self.storages[0]

    def resolve_storage(self, storage: str | None = None) -> str:
        """Resolve a requested block-storage policy against this algebra.

        ``None`` or ``"auto"`` selects the algebra's default (``"packed"``
        for the boolean reachability algebra, ``"dense"`` otherwise);
        anything else must be one of the supported policies.
        """
        if storage is None:
            requested = "auto"
        else:
            requested = str(storage).strip().lower()
        if requested == "auto":
            return self.default_storage
        if requested not in self.storages:
            raise ConfigurationError(
                f"algebra {self.name!r} supports block storage "
                f"{', '.join(self.storages)}; got {requested!r}")
        return requested

    # -- layout policy -----------------------------------------------------
    def resolve_layout(self, layout: str | None = None, *,
                       directed: bool = False) -> str:
        """Resolve a requested block grid layout against this algebra.

        ``None`` or ``"auto"`` defers to input inspection (symmetric →
        triangular, asymmetric → full) and therefore stays ``"auto"`` here —
        unless ``directed=True`` forces the full grid, or the algebra only
        supports one layout.  Explicit requests must name a supported layout;
        ``directed=True`` rejects the triangular (mirrored) layout, which
        only represents symmetric matrices.
        """
        if directed and "full" not in self.layouts:
            raise ConfigurationError(
                f"algebra {self.name!r} has no full-grid layout; it cannot "
                "solve directed inputs")
        if layout is None:
            requested = "auto"
        else:
            requested = str(layout).strip().lower()
        if requested == "auto":
            if directed:
                return "full"
            if len(self.layouts) == 1:
                return self.layouts[0]
            return "auto"
        if requested not in self.layouts:
            raise ConfigurationError(
                f"algebra {self.name!r} supports block layouts "
                f"{', '.join(self.layouts)}; got {requested!r}")
        if directed and requested == "triangular":
            raise ConfigurationError(
                "directed inputs cannot use the triangular (mirrored) "
                "layout; request layout='full' (or 'auto') with directed=True")
        return requested

    def result_dtype(self, *operands: np.ndarray) -> np.dtype:
        """Dtype the kernels should compute in for the given operands.

        Preserves a supported common dtype (``float32`` operands stay
        ``float32`` — half the memory traffic of the hot product kernel);
        anything unsupported (e.g. integer inputs) is upcast to the default.
        """
        common = np.result_type(*operands) if operands else np.dtype(self.default_dtype)
        # ``np.dtype.name`` is a Python-level property, far dearer than the
        # small-block kernels' own bookkeeping: decide each dtype once.
        result = self._result_dtypes.get(common)
        if result is None:
            result = common if common.name in self.dtypes else np.dtype(self.default_dtype)
            self._result_dtypes[common] = result
        return result

    # -- elementwise operations -------------------------------------------
    def add(self, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Elementwise ⊕ (the generalized ``MatMin``)."""
        return self.add_op(a, b, out=out)

    def mul(self, a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Elementwise ⊗ (the inner operation of ``MatProd``)."""
        return self.mul_op(a, b, out=out)

    def add_reduce(self, array: np.ndarray, axis: int,
                   out: np.ndarray | None = None) -> np.ndarray:
        """⊕-reduction along ``axis`` (the outer operation of ``MatProd``)."""
        return self.add_op.reduce(array, axis=axis, out=out)

    # -- the MatProd ⊗ cube, tiled -----------------------------------------
    def product_operands(self, a, b) -> tuple[np.ndarray, np.ndarray]:
        """Validate ``(m, k) ⊗ (k, n)`` operands; return them in the common dtype."""
        a = np.asarray(a)
        b = np.asarray(b)
        if a.ndim != 2 or b.ndim != 2:
            raise ValidationError("MatProd requires 2-D operands")
        if a.shape[1] != b.shape[0]:
            raise ValidationError(
                f"MatProd inner dimensions must agree, got {a.shape} and {b.shape}")
        dtype = self.result_dtype(a, b)
        return np.asarray(a, dtype=dtype), np.asarray(b, dtype=dtype)

    def mul_panels(self, a: np.ndarray, b: np.ndarray, *,
                   reduce_last: bool = False):
        """Yield ``(rows, a[rows, :, None] ⊗ b[None])`` over row panels of ``a``.

        The one tiling of the product's broadcast cube, shared by the dense
        and the witnessed ``MatProd`` (operands from :meth:`product_operands`).
        Panels are cut along the *rows* of the left operand because that
        keeps the cube's innermost axis contiguous at a full block width
        (``b`` is copied into the matching order once — a ``k·n`` copy
        against an ``m·k·n`` product — so mirror views and strided
        sub-blocks cost nothing per element) and leaves the reduction axis
        whole: every ⊕ and ``arg_select`` sees exactly the operands of the
        untiled cube, so results do not depend on the panel height.  Each
        ``(rows, k, n)`` cube is written into one reused buffer of at most
        :data:`_PANEL_BYTES` (one row when a single row already exceeds it);
        it is valid until the next panel is requested.  In memory the cube
        is ``n``-innermost, which is what :meth:`add_reduce` over axis 1
        vectorizes along; ``reduce_last=True`` stores it ``k``-innermost
        instead, because NumPy's arg-reductions are only fast along a
        contiguous axis.  An empty inner dimension yields no panels: the
        caller's output is the empty ⊕-sum, ``zero`` everywhere.
        """
        m, k = a.shape
        n = b.shape[1]
        if not k:
            return
        height = max(1, min(m, _PANEL_BYTES // max(1, k * n * a.dtype.itemsize)))
        if reduce_last:
            b = np.asfortranarray(b)[None]
            cube = np.empty((height, n, k), dtype=a.dtype).transpose(0, 2, 1)
        else:
            b = np.ascontiguousarray(b)[None]
            cube = np.empty((height, k, n), dtype=a.dtype)
        for start in range(0, m, height):
            rows = slice(start, min(start + height, m))
            yield rows, self.mul(a[rows, :, None], b,
                                 out=cube[:rows.stop - start])

    # -- witness policy ----------------------------------------------------
    @property
    def supports_witness(self) -> bool:
        """True when this algebra can track argmin/argmax path witnesses."""
        return self.witness_select is not None

    def arg_select(self, array: np.ndarray, axis: int) -> np.ndarray:
        """Indices of the ⊕-winning elements along ``axis``.

        The witness companion of :meth:`add_reduce`: for every reduced lane
        it returns the index of the element the ⊕-reduction selected (first
        winner on ties, matching NumPy's argmin/argmax).  Raises for
        algebras without a witness policy.
        """
        if self.witness_select == "min":
            return np.argmin(array, axis=axis)
        if self.witness_select == "max":
            return np.argmax(array, axis=axis)
        raise ConfigurationError(
            f"algebra {self.name!r} declares no witness policy; path "
            "reconstruction is unavailable for it")

    # -- scalars and identities -------------------------------------------
    def zero_like(self, dtype: str | np.dtype | None = None):
        """The "no path" scalar cast to the given (or default) dtype."""
        return np.dtype(dtype or self.default_dtype).type(self.zero)

    def one_like(self, dtype: str | np.dtype | None = None):
        """The self-distance scalar cast to the given (or default) dtype."""
        return np.dtype(dtype or self.default_dtype).type(self.one)

    def identity_matrix(self, n: int, dtype: str | np.dtype | None = None) -> np.ndarray:
        """The ⊗-identity matrix: ``one`` on the diagonal, ``zero`` elsewhere."""
        dt = self.resolve_dtype(dtype)
        out = np.full((n, n), self.zero, dtype=dt)
        np.fill_diagonal(out, self.one)
        return out

    # -- input handling ----------------------------------------------------
    def validate_input(self, weights: np.ndarray, name: str = "adjacency") -> None:
        """Run this algebra's precondition check on raw edge weights.

        This is the hook that makes weight validation algebra-conditional:
        non-negativity is a (min, +)/(max, min) precondition, ``[0, 1]`` a
        (max, ×) one, acyclicity a (max, +) one, and reachability needs none.
        """
        if self.input_validator is not None:
            self.input_validator(weights, name)

    def prepare_adjacency(self, weights: np.ndarray,
                          dtype: str | np.dtype | None = None) -> np.ndarray:
        """Map canonical edge weights into this algebra's domain.

        The canonical external representation is a square weight matrix where
        non-finite entries (``inf``/``nan``) mean "no edge".  The returned
        matrix replaces missing edges with the algebra's ``zero``, the
        diagonal with ``one``, and is cast to the resolved dtype.  Boolean
        inputs are accepted directly (``True`` = edge) for the boolean
        algebra.
        """
        arr = np.asarray(weights)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValidationError(f"adjacency must be square, got shape {arr.shape}")
        # No explicit dtype: preserve a supported input dtype (float32 stays
        # float32), falling back to the algebra default otherwise.
        dt = self.resolve_dtype(dtype) if dtype is not None else self.result_dtype(arr)
        if dt == np.bool_:
            if arr.dtype == np.bool_:
                out = arr.copy()
            else:
                out = np.isfinite(np.asarray(arr, dtype=np.float64))
        else:
            out = np.array(arr, dtype=dt, copy=True)
            out[~np.isfinite(out)] = self.zero_like(dt)
        np.fill_diagonal(out, self.one_like(dt) if dt != np.bool_ else True)
        return out

    def allclose(self, a: np.ndarray, b: np.ndarray, *,
                 rtol: float = 1e-5, atol: float = 1e-8) -> bool:
        """Dtype-appropriate closeness: exact for bool, tolerant for floats."""
        a = np.asarray(a)
        b = np.asarray(b)
        if a.dtype == np.bool_ or b.dtype == np.bool_:
            return bool(np.array_equal(a, b))
        return bool(np.allclose(a, b, rtol=rtol, atol=atol, equal_nan=True))

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Semiring({self.name}: ⊕={self.add_op.__name__}, "
                f"⊗={self.mul_op.__name__}, zero={self.zero}, one={self.one})")


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------
_ALGEBRAS: dict[str, Semiring] = {}
_ALIAS_INDEX: dict[str, str] = {}


def _normalise(name: str) -> str:
    return name.strip().lower().replace("_", "-")


def register_algebra(semiring: Semiring, *, aliases: Iterable[str] = ()) -> Semiring:
    """Register a semiring (and optional aliases) for lookup by name."""
    canonical = _normalise(semiring.name)
    for alias in aliases:
        key = _normalise(alias)
        owner = _ALIAS_INDEX.get(key)
        if owner is not None and owner != canonical:
            raise ConfigurationError(
                f"algebra alias {alias!r} already registered for {owner!r}")
    _ALGEBRAS[canonical] = semiring
    for alias in aliases:
        _ALIAS_INDEX[_normalise(alias)] = canonical
    return semiring


def resolve_algebra_name(name: str) -> str:
    """Resolve a name or alias to the canonical algebra name."""
    key = _normalise(name)
    key = _ALIAS_INDEX.get(key, key)
    if key not in _ALGEBRAS:
        raise ConfigurationError(
            f"unknown algebra {name!r}; available: {', '.join(available_algebras())}")
    return key


def get_algebra(algebra: "str | Semiring | None") -> Semiring:
    """Look up an algebra by name/alias; ``None`` means (min, +); instances pass through."""
    if algebra is None:
        return SHORTEST_PATH
    if isinstance(algebra, Semiring):
        return algebra
    return _ALGEBRAS[resolve_algebra_name(algebra)]


def available_algebras() -> list[str]:
    """Canonical names of the registered algebras, sorted."""
    return sorted(_ALGEBRAS)


def algebra_catalog() -> list[Semiring]:
    """Registered :class:`Semiring` instances, sorted by name."""
    return [_ALGEBRAS[name] for name in available_algebras()]


# ---------------------------------------------------------------------------
# The registered instances
# ---------------------------------------------------------------------------
SHORTEST_PATH = register_algebra(Semiring(
    name="shortest-path",
    add_op=np.minimum, mul_op=np.add,
    zero=float("inf"), one=0.0,
    input_validator=validate_nonnegative_weights,
    witness_select="min",
    description="(min, +) tropical semiring — the paper's APSP closure",
), aliases=("minplus", "min-plus", "apsp", "tropical"))

WIDEST_PATH = register_algebra(Semiring(
    name="widest-path",
    add_op=np.maximum, mul_op=np.minimum,
    zero=0.0, one=float("inf"),
    input_validator=validate_nonnegative_weights,
    witness_select="max",
    description="(max, min) bottleneck semiring — maximum-capacity paths",
), aliases=("maxmin", "max-min", "bottleneck"))

MOST_RELIABLE = register_algebra(Semiring(
    name="most-reliable",
    add_op=np.maximum, mul_op=np.multiply,
    zero=0.0, one=1.0,
    input_validator=validate_probability_weights,
    witness_select="max",
    description="(max, ×) Viterbi semiring — most-probable paths over [0, 1]",
), aliases=("maxtimes", "max-times", "reliability", "viterbi"))

LONGEST_PATH = register_algebra(Semiring(
    name="longest-path",
    add_op=np.maximum, mul_op=np.add,
    zero=float("-inf"), one=0.0,
    input_validator=validate_dag_weights,
    absorptive=False,
    # DAG inputs are inherently asymmetric: the mirrored triangular layout
    # cannot represent them, so critical paths always run on the full grid.
    layouts=("full",),
    witness_select="max",
    description="(max, +) semiring — critical paths; DAG inputs only",
), aliases=("maxplus", "max-plus", "critical-path"))

REACHABILITY = register_algebra(Semiring(
    name="reachability",
    add_op=np.logical_or, mul_op=np.logical_and,
    zero=False, one=True,
    dtypes=("bool",), default_dtype="bool",
    storages=("packed", "dense"),
    witness_select="max",
    description="(or, and) boolean semiring — transitive closure",
), aliases=("boolean", "or-and", "transitive-closure"))

#: Algebras safe on arbitrary (possibly cyclic, undirected) graphs — the set
#: the distributed solvers advertise by default.
ABSORPTIVE_ALGEBRAS: tuple[str, ...] = tuple(
    s.name for s in algebra_catalog() if s.absorptive)
