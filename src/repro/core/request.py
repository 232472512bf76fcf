"""Typed solve requests: every knob of one APSP solve, validated up front.

:class:`SolveRequest` replaces the loose keyword soup that used to flow
through ``solve_apsp(**kwargs)``: it names the solver, the decomposition
parameter ``b``, the partitioner, and the over-decomposition factor, and it
rejects inconsistent values at construction time — long before a Spark
context is spun up — so batch submissions fail fast instead of mid-sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from repro.common.errors import ConfigurationError
from repro.core.registry import resolve_solver_name, solver_info, solvers_for
from repro.linalg.algebra import get_algebra, resolve_algebra_name
from repro.linalg.blocks import num_blocks
from repro.spark.partitioner import canonical_partitioner_name


@dataclass(frozen=True)
class SolveRequest:
    """One APSP solve: solver choice plus tuning parameters (Sections 5.2/5.3).

    Parameters
    ----------
    solver:
        Canonical solver name or any registered alias; resolved (and
        validated) against the solver registry at construction.  The special
        value ``"auto"`` defers the choice to the calibrated auto-tuner
        (:mod:`repro.core.tuner`): the engine resolves solver and block size
        at submit time from the cost model's fitted machine constants and
        records its decision in :meth:`~repro.core.engine.APSPEngine.stats`.
    block_size:
        The decomposition parameter ``b``; ``None`` selects it automatically.
    partitioner:
        ``"MD"`` (multi-diagonal), ``"PH"`` (portable hash) or ``"GRID"``.
    partitions_per_core:
        The over-decomposition factor ``B`` (the paper recommends 2-4).
    num_partitions:
        Explicit partition count override (takes precedence over ``B``).
    algebra:
        Path algebra (semiring) to close the adjacency matrix under —
        ``"shortest-path"`` (default), ``"widest-path"``, ``"most-reliable"``,
        ``"reachability"``, ... or any registered alias.  Validated against
        the solver's declared algebra support at construction time.
    dtype:
        Element dtype for the solve (e.g. ``"float32"`` to halve memory
        traffic in the hot product kernel); ``None`` selects the algebra's
        default.  Resolved to a canonical dtype name at construction.
    storage:
        Block-storage layout: ``"dense"``, ``"packed"`` (uint64
        packed-bitset blocks — boolean algebras only, 64x denser), or
        ``"auto"``/``None`` for the algebra's default (packed for
        ``reachability``).  Resolved to a concrete policy at construction.
    layout:
        Block grid layout: ``"triangular"`` (upper block triangle with
        mirror-transpose lookups — symmetric inputs only), ``"full"`` (all
        q² blocks, supports directed inputs), or ``"auto"``/``None`` to
        pick from the input (symmetric → triangular, asymmetric → full).
        Checked against both the algebra's and the solver's declared layout
        support at construction; ``"auto"`` resolves in
        :func:`~repro.core.base.resolve_plan`, once the input's symmetry is
        known, by re-validating the request with the concrete layout.
    directed:
        Treat the input as a directed graph: skips the symmetry check in
        adjacency validation and forces the full grid layout (an explicit
        ``layout="triangular"`` request is rejected).
    paths:
        Return paths too: the result carries a predecessor matrix and
        supports :meth:`~repro.core.base.APSPResult.reconstruct_path`.  The
        solve itself is the ``paths=False`` one; the matrix is derived from
        its closure afterwards.  Needs an algebra with a witness policy.
    validate:
        Run structural sanity checks on the result.
    tag:
        Free-form label echoed on the :class:`~repro.core.engine.APSPJob`,
        handy for batch bookkeeping.
    """

    solver: str = "blocked-cb"
    block_size: int | None = None
    partitioner: str = "MD"
    partitions_per_core: int = 2
    num_partitions: int | None = None
    algebra: str = "shortest-path"
    dtype: str | None = None
    storage: str | None = None
    layout: str | None = None
    directed: bool = False
    paths: bool = False
    validate: bool = False
    tag: str | None = None

    def __post_init__(self) -> None:
        # Canonicalise through the registries: unknown solvers/algebras raise
        # here.  "auto" is the one name that stays symbolic — the engine
        # resolves it through the calibrated tuner at submit time, once the
        # adjacency matrix (and hence symmetry/density) is known.
        is_auto = str(self.solver).strip().lower().replace("_", "-") == "auto"
        if is_auto:
            object.__setattr__(self, "solver", "auto")
        else:
            object.__setattr__(self, "solver", resolve_solver_name(self.solver))
        object.__setattr__(self, "algebra", resolve_algebra_name(self.algebra))
        info = None if is_auto else solver_info(self.solver)
        if info is not None and not info.supports_algebra(self.algebra):
            raise ConfigurationError(
                f"solver {self.solver!r} does not support algebra "
                f"{self.algebra!r} (supported: {', '.join(info.algebras)})")
        # Resolve the dtype and block storage against the algebra's policy,
        # storing canonical names so requests are fully explicit.
        resolved_algebra = get_algebra(self.algebra)
        object.__setattr__(
            self, "dtype", resolved_algebra.resolve_dtype(self.dtype).name)
        object.__setattr__(self, "paths", bool(self.paths))
        if self.paths and not resolved_algebra.supports_witness:
            raise ConfigurationError(
                f"algebra {self.algebra!r} declares no witness policy "
                "(witness_select is None); path reconstruction is "
                "unavailable for it")
        object.__setattr__(
            self, "storage", resolved_algebra.resolve_storage(self.storage))
        # Resolve the grid layout against the algebra, then check the solver
        # declares it (the same fail-fast shape as the algebra check above).
        # "auto" may survive here: resolve_plan() replaces it once the matrix
        # is inspected, which re-runs the solver check on the concrete layout.
        object.__setattr__(self, "directed", bool(self.directed))
        object.__setattr__(
            self, "layout",
            resolved_algebra.resolve_layout(self.layout, directed=self.directed))
        if info is not None and not info.supports_layout(self.layout):
            raise ConfigurationError(
                f"solver {self.solver!r} does not support block layout "
                f"{self.layout!r} (supported: {', '.join(info.layouts)})")
        if is_auto and not solvers_for(self.algebra, self.layout
                                       if self.layout != "auto" else None):
            raise ConfigurationError(
                f"no registered solver supports algebra {self.algebra!r} with "
                f"layout {self.layout!r}; solver='auto' has nothing to pick")
        object.__setattr__(self, "partitioner",
                           canonical_partitioner_name(str(self.partitioner)))
        if self.block_size is not None and int(self.block_size) < 1:
            raise ConfigurationError("block_size must be >= 1 or None")
        if int(self.partitions_per_core) < 1:
            raise ConfigurationError("partitions_per_core must be >= 1")
        if self.num_partitions is not None and int(self.num_partitions) < 1:
            raise ConfigurationError("num_partitions must be >= 1 or None")

    # ------------------------------------------------------------------
    @classmethod
    def coerce(cls, request: "SolveRequest | None" = None, /,
               **overrides: Any) -> "SolveRequest":
        """Build a request from an existing one and/or loose keyword overrides.

        This is the bridge the backward-compatible :func:`repro.solve_apsp`
        wrapper uses: ``coerce(None, solver="cb", block_size=16)`` builds a
        fresh request, ``coerce(req, validate=True)`` derives a variant.
        An unknown keyword (a typo like ``blok_size=16``) raises
        :class:`~repro.common.errors.ConfigurationError` naming it and the
        valid fields — nothing downstream would ever read it.
        """
        unknown = sorted(set(overrides) - set(cls.__dataclass_fields__))
        if unknown:
            raise ConfigurationError(
                f"unknown solve option(s) {', '.join(unknown)}; valid fields: "
                f"{', '.join(cls.__dataclass_fields__)}")
        if request is None:
            return cls(**overrides)
        return replace(request, **overrides) if overrides else request

    def describe(self) -> str:
        """One-line human-readable summary."""
        bits = [self.solver,
                f"b={'auto' if self.block_size is None else self.block_size}",
                f"partitioner={self.partitioner}",
                f"B={self.partitions_per_core}"]
        if self.algebra != "shortest-path" or self.dtype != "float64":
            bits.append(f"algebra={self.algebra}[{self.dtype}]")
        if self.storage != "dense":
            bits.append(f"storage={self.storage}")
        if self.layout != "auto":
            bits.append(f"layout={self.layout}")
        if self.directed:
            bits.append("directed")
        if self.paths:
            bits.append("paths")
        if self.num_partitions is not None:
            bits.append(f"partitions={self.num_partitions}")
        if self.tag:
            bits.append(f"tag={self.tag}")
        return " ".join(bits)


class _RequestView:
    """Mixin for records of one resolved solve: the held ``request`` reads through.

    :class:`~repro.core.base.SolvePlan`, :class:`~repro.core.base.APSPResult`
    and :class:`~repro.core.tuner.TunerDecision` each carry the concrete
    :class:`SolveRequest` (plus ``n`` and the resolved ``block_size``)
    instead of re-declaring its fields; ``plan.algebra`` /
    ``result.layout`` / ``decision.storage`` are the request's.  A field
    the record declares itself (the resolved ``block_size`` /
    ``num_partitions``) shadows the request's.
    """

    def __getattr__(self, name: str):
        # Only reached when normal lookup fails; "request" is not a request
        # field, so a half-built instance cannot recurse.
        if name in SolveRequest.__dataclass_fields__:
            return getattr(self.request, name)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}")

    @property
    def q(self) -> int:
        """Side of the block grid: ``ceil(n / block_size)``."""
        return num_blocks(self.n, self.block_size)

    @property
    def pure(self) -> bool:
        """Whether the solver relies only on fault-tolerant Spark API."""
        return solver_info(self.request.solver).pure


@dataclass(frozen=True)
class EdgeUpdate:
    """One edge mutation for :meth:`~repro.core.engine.APSPEngine.update`.

    ``weight`` is a *canonical* edge weight — the same domain graph
    generators and edge-list files use, where the algebra decides what
    "better" means — or ``None`` to delete the edge entirely.  Whether the
    update is an improvement (rank-1 sweep), a worsening (restricted row
    recompute) or a no-op is classified against the cached adjacency at
    apply time, not here: the same ``EdgeUpdate`` value means different
    things under different algebras.
    """

    u: int
    v: int
    weight: float | bool | None = None

    def __post_init__(self) -> None:
        for name in ("u", "v"):
            value = getattr(self, name)
            try:
                coerced = int(value)
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"edge endpoint {name} must be an integer, got {value!r}"
                ) from None
            if coerced < 0:
                raise ConfigurationError(
                    f"edge endpoint {name} must be >= 0, got {coerced}")
            object.__setattr__(self, name, coerced)
        if self.u == self.v:
            raise ConfigurationError(
                f"self-loop update ({self.u}, {self.v}) is meaningless: the "
                "closure diagonal is pinned to the algebra's one")
        if self.weight is not None:
            try:
                object.__setattr__(self, "weight", float(self.weight))
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"edge weight must be a number or None, got "
                    f"{self.weight!r}") from None

    def describe(self) -> str:
        """One-line human-readable summary."""
        if self.weight is None:
            return f"delete {self.u} -- {self.v}"
        return f"edge {self.u} -- {self.v} = {self.weight}"


@dataclass(frozen=True)
class UpdateReport:
    """What one :meth:`~repro.core.engine.APSPEngine.update` batch did.

    ``mode`` records which path actually ran (``"incremental"`` rank-1
    sweeps or ``"resolve"`` full re-closure) and ``reason`` why — the cost
    model's break-even verdict, an explicit ``force=``, or a structural
    restriction (non-absorptive algebra, oversized affected set).  Counters
    split the batch by classification; ``changed_rows`` is how many closure
    rows actually moved, which is also exactly the number of serving-cache
    rows invalidated.
    """

    mode: str
    reason: str
    edges: int
    improvements: int
    worsenings: int
    noops: int
    changed_rows: int
    affected_rows: int = 0
    seconds: float = 0.0
    estimated_incremental_seconds: float | None = None
    estimated_resolve_seconds: float | None = None
    break_even_edges: int | None = None

    def describe(self) -> str:
        """One-line human-readable summary."""
        bits = [f"{self.mode} ({self.reason})",
                f"edges={self.edges}",
                f"+{self.improvements}/-{self.worsenings}/={self.noops}",
                f"changed_rows={self.changed_rows}"]
        if self.worsenings:
            bits.append(f"affected_rows={self.affected_rows}")
        bits.append(f"{self.seconds:.4f}s")
        return " ".join(bits)


@dataclass(frozen=True)
class RouteQuery:
    """One serving-layer query: "how do I get from ``src`` to ``dst``?".

    The typed counterpart of a bare ``(src, dst)`` pair for
    :meth:`~repro.serve.service.RouteService.routes` batches — endpoints are
    canonicalised to plain ints here so a whole replay file can be validated
    before the first row solve.  ``tag`` is a free-form label echoed through
    for workload bookkeeping (e.g. which replay file a pair came from).
    """

    src: int
    dst: int
    tag: str | None = None

    def __post_init__(self) -> None:
        for name in ("src", "dst"):
            value = getattr(self, name)
            try:
                coerced = int(value)
            except (TypeError, ValueError):
                raise ConfigurationError(
                    f"route {name} must be an integer, got {value!r}") from None
            if coerced < 0:
                raise ConfigurationError(
                    f"route {name} must be >= 0, got {coerced}")
            object.__setattr__(self, name, coerced)

    @property
    def pair(self) -> tuple[int, int]:
        """The query as a plain ``(src, dst)`` tuple."""
        return (self.src, self.dst)

    def describe(self) -> str:
        """One-line human-readable summary."""
        tag = f" tag={self.tag}" if self.tag else ""
        return f"route {self.src} -> {self.dst}{tag}"
