"""Pluggable solver registry.

The four paper solvers register themselves at import time through the
:func:`register_solver` decorator; external code can add its own
:class:`~repro.core.base.SparkAPSPSolver` subclasses the same way and they
become reachable from :class:`~repro.core.engine.APSPEngine`,
:func:`~repro.core.api.solve_apsp` and the ``apspark`` CLI without touching
this package.

Every registration carries metadata (canonical name, accepted aliases,
purity, one-line description) that the CLI's ``apspark solvers`` subcommand
and :func:`solver_catalog` expose, and the solver's :class:`SolverShape` —
the structure both cost models price (:func:`solver_shape`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.common.errors import ConfigurationError
from repro.linalg.algebra import resolve_algebra_name
from repro.linalg.blocks import BlockGrid, num_blocks


@dataclass(frozen=True)
class SolverShape:
    """One solver's structure on one problem, stated once by its class.

    Both cost models price it (:mod:`repro.cluster`).  ``iterations`` is
    Table 2's count, ``stages`` the engine's for the whole solve, and
    ``paper_stages`` the Spark stages per iteration of the paper's runs,
    which anchor the projector's stage overhead.  The rest is per iteration:
    ops by phase, kernel calls, driver work (the unit of its
    ``driver:<solver>`` rate) and bytes by channel.  ``shuffle`` bytes are
    keyed by the grid, so they follow the partitioner's skew and spill.
    """

    solver: str
    iterations: int
    stages: int
    paper_stages: int
    pivot_ops: float = 0.0
    panel_ops: float = 0.0
    bulk_ops: float = 0.0
    kernel_calls: float = 0.0
    driver: float = 0.0
    collect: float = 0.0
    broadcast: float = 0.0
    shuffle: float = 0.0
    reduce: float = 0.0
    sharedfs_write: float = 0.0
    sharedfs_read: float = 0.0
    restage: float = 0.0

    @property
    def ops(self) -> float:
        """Semiring ops of one iteration, all phases."""
        return self.pivot_ops + self.panel_ops + self.bulk_ops

    @property
    def bytes_moved(self) -> float:
        """Bytes one iteration moves over every channel."""
        return (self.collect + self.broadcast + self.shuffle + self.reduce
                + self.sharedfs_write + self.sharedfs_read + self.restage)


@dataclass(frozen=True)
class SolverInfo:
    """Registry metadata for one solver implementation."""

    name: str
    cls: type
    aliases: tuple[str, ...] = ()
    pure: bool = True
    description: str = ""
    #: Canonical names of the path algebras this solver supports.
    algebras: tuple[str, ...] = ("shortest-path",)
    #: Block grid layouts this solver can run (``triangular``/``full``).
    layouts: tuple[str, ...] = ("triangular",)
    #: ``shape(n, block_size, grid, element_size) -> SolverShape``, or
    #: ``None`` for a solver that states none (it cannot be priced).
    shape: Callable[..., SolverShape] | None = None

    def supports_algebra(self, algebra: str) -> bool:
        """True when the solver declares support for the given algebra (or alias)."""
        return resolve_algebra_name(algebra) in self.algebras

    def supports_layout(self, layout: str) -> bool:
        """True when the solver declares support for the given block layout.

        ``"auto"`` is always supported — it resolves to a concrete layout
        (which is then re-checked) once the input has been inspected.
        """
        return layout == "auto" or layout in self.layouts

    def as_dict(self) -> dict:
        """Plain-dict view used by the CLI and reports."""
        return {
            "name": self.name,
            "aliases": ", ".join(self.aliases),
            "pure": self.pure,
            "algebras": ", ".join(self.algebras),
            "layouts": ", ".join(self.layouts),
            "description": self.description,
        }


#: Canonical name -> SolverInfo.
_REGISTRY: dict[str, SolverInfo] = {}
#: Normalised alias -> canonical name.
_ALIAS_INDEX: dict[str, str] = {}


def _normalise(name: str) -> str:
    return name.strip().lower().replace("_", "-")


def register_solver(cls=None, *, aliases: Iterable[str] = (),
                    description: str | None = None):
    """Class decorator registering a :class:`SparkAPSPSolver` subclass.

    Usable bare (``@register_solver``) or with arguments
    (``@register_solver(aliases=("rs",))``).  The canonical name is taken
    from the class's ``name`` attribute, purity from ``pure``, and the
    description from the argument or the first line of the class docstring.
    Re-registering a name replaces the previous entry (latest wins), so
    test doubles can shadow a built-in solver and restore it afterwards.
    """

    def _register(solver_cls):
        name = getattr(solver_cls, "name", None)
        if not name or name == "abstract":
            raise ConfigurationError(
                f"solver class {solver_cls.__name__} must define a non-abstract "
                "'name' attribute to be registered")
        canonical = _normalise(name)
        doc = (solver_cls.__doc__ or "").strip().splitlines()
        # Canonicalize the class's declared algebras eagerly so a typo in a
        # solver's `algebras` tuple fails at registration, not at solve time.
        declared = tuple(getattr(solver_cls, "algebras", None) or ("shortest-path",))
        declared_layouts = tuple(getattr(solver_cls, "layouts", None)
                                 or ("triangular",))
        unknown_layouts = set(declared_layouts) - {"triangular", "full"}
        if unknown_layouts:
            raise ConfigurationError(
                f"solver class {solver_cls.__name__} declares unknown "
                f"layouts {sorted(unknown_layouts)}")
        info = SolverInfo(
            name=canonical,
            cls=solver_cls,
            aliases=tuple(_normalise(a) for a in aliases),
            pure=bool(getattr(solver_cls, "pure", True)),
            description=description if description is not None else (doc[0] if doc else ""),
            algebras=tuple(resolve_algebra_name(a) for a in declared),
            layouts=declared_layouts,
            shape=getattr(solver_cls, "shape", None),
        )
        # Validate before mutating anything, so a rejected registration
        # leaves the registry exactly as it was.
        for alias in info.aliases:
            owner = _ALIAS_INDEX.get(alias)
            if owner is not None and owner != canonical:
                raise ConfigurationError(
                    f"alias {alias!r} already registered for solver {owner!r}")
            if alias in _REGISTRY and alias != canonical:
                raise ConfigurationError(
                    f"alias {alias!r} would shadow the registered solver of "
                    "the same name")
        previous = _REGISTRY.get(canonical)
        if previous is not None:
            for alias in previous.aliases:
                if _ALIAS_INDEX.get(alias) == canonical:
                    del _ALIAS_INDEX[alias]
        _REGISTRY[canonical] = info
        for alias in info.aliases:
            _ALIAS_INDEX[alias] = canonical
        return solver_cls

    if cls is not None:  # bare @register_solver
        return _register(cls)
    return _register


def unregister_solver(name: str) -> None:
    """Remove a solver (and its aliases) from the registry; unknown names are ignored."""
    canonical = _ALIAS_INDEX.get(_normalise(name), _normalise(name))
    info = _REGISTRY.pop(canonical, None)
    if info is not None:
        for alias in info.aliases:
            # Only remove aliases this solver actually owns.
            if _ALIAS_INDEX.get(alias) == canonical:
                del _ALIAS_INDEX[alias]


def resolve_solver_name(name: str) -> str:
    """Resolve a name or alias to the canonical solver name."""
    key = _normalise(name)
    key = _ALIAS_INDEX.get(key, key)
    if key not in _REGISTRY:
        raise ConfigurationError(
            f"unknown solver {name!r}; available: {', '.join(available_solvers())}")
    return key


def solver_info(name: str) -> SolverInfo:
    """Return the registry metadata for a solver name or alias."""
    return _REGISTRY[resolve_solver_name(name)]


def get_solver_class(name: str):
    """Resolve a solver name or alias to its implementing class."""
    return solver_info(name).cls


def solver_shape(name: str, n: int, block_size: int, layout: str,
                 element_size: float) -> SolverShape:
    """A solver's shape on an ``n``-vertex grid of ``element_size``-byte cells."""
    info = solver_info(name)
    if info.shape is None:
        raise ConfigurationError(
            f"solver {info.name!r} states no shape, so it cannot be priced")
    return info.shape(n, block_size, BlockGrid(num_blocks(n, block_size), layout),
                      element_size)


def solver_supports_algebra(solver_name: str, algebra: str) -> bool:
    """True when the (resolved) solver declares support for the (resolved) algebra."""
    return solver_info(solver_name).supports_algebra(algebra)


def available_solvers() -> list[str]:
    """Return the canonical names of the registered solvers, sorted."""
    return sorted(_REGISTRY)


def solvers_for(algebra: str | None = None,
                layout: str | None = None) -> list[str]:
    """Canonical names of solvers supporting an algebra and/or layout, sorted.

    This is the auto-tuner's candidate pool: ``solvers_for("reachability",
    "full")`` returns every registered solver that declares both.  ``None``
    leaves that axis unconstrained; unknown algebra names raise, exactly as
    they would on a :class:`~repro.core.request.SolveRequest`.
    """
    names = []
    for name in available_solvers():
        info = _REGISTRY[name]
        if algebra is not None and not info.supports_algebra(algebra):
            continue
        if layout is not None and not info.supports_layout(layout):
            continue
        names.append(name)
    return names


def solver_catalog() -> list[SolverInfo]:
    """Return :class:`SolverInfo` entries for every registered solver, sorted by name."""
    return [_REGISTRY[name] for name in available_solvers()]
