"""Auto-tuning: resolve ``solver="auto"`` from machine constants.

The paper's pitch is raw speed *without the user knowing the configuration
space exists*: a cost model, anchored to machine constants, picks the
solver, the decomposition parameter ``b``, and the execution shape.  The
constants are the one in-code table
:data:`~repro.cluster.fitting.SECONDS_PER_UNIT`; :func:`resolve_auto` prices
every registry-supported candidate request for the problem at hand with it —
each resolved by the engine's own :func:`~repro.core.base.resolve_plan` and
priced on :func:`~repro.cluster.fitting.plan_features` from the solver's own
:class:`~repro.core.registry.SolverShape` — and rewrites the request to the
cheapest one.  A solver whose class states no shape is left out.

Tuning is deliberately conservative about what it overrides:

* **solver** and (when unset) **block size** are always chosen;
* **storage** is enumerated only when the request carries the algebra's
  default — an explicit non-default choice is a user constraint;
* **layout** follows the input's symmetry (a correctness matter, not a
  preference) and **dtype** is never changed (it alters numerics);
* **backend** is fixed by the engine's :class:`~repro.common.config.EngineConfig`
  — a session-level resource decision — but the decision records the
  cheapest backend as ``recommended_backend`` so callers can see when a
  different pool would pay off.

Decisions are deterministic: the table is fixed, candidates are enumerated
in sorted order and ties break on the (predicted, solver, block, storage)
tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.cluster.fitting import predict_plan_seconds
from repro.common.config import BACKENDS, EngineConfig, default_config
from repro.common.errors import ConfigurationError
from repro.core.base import (SolvePlan, auto_block_size, input_symmetry,
                             resolve_plan)
from repro.core.registry import solver_info, solvers_for
from repro.core.request import SolveRequest, _RequestView
from repro.graph import sparse as sparse_mod
from repro.linalg.algebra import get_algebra

#: The documented default configuration the tuner must never beat itself
#: with: the paper's Blocked-CB solver at the heuristic block size.
DEFAULT_SOLVER = "blocked-cb"


@dataclass(frozen=True)
class TunerDecision(_RequestView):
    """One resolved ``solver="auto"`` choice, fully observable.

    ``request`` is the chosen configuration as a concrete request (solver,
    block size, storage and layout all set; its fields read through, so
    ``decision.solver`` / ``decision.block_size`` are the choice).
    ``predicted_seconds`` and ``default_predicted_seconds`` come from the
    same predictor, so ``predicted_seconds <= default_predicted_seconds``
    always holds — the default configuration is itself one of the scored
    candidates.
    """

    request: SolveRequest
    n: int
    backend: str
    predicted_seconds: float
    default_predicted_seconds: float
    recommended_backend: str
    candidates: int

    def as_dict(self) -> dict:
        """Plain-dict view for ``engine.stats()`` / result metrics."""
        return {
            **{name: getattr(self.request, name)
               for name in ("solver", "block_size", "storage", "layout")},
            "backend": self.backend,
            "predicted_seconds": self.predicted_seconds,
            "default_predicted_seconds": self.default_predicted_seconds,
            "recommended_backend": self.recommended_backend,
            "candidates": self.candidates,
            "n": self.n,
        }


def candidate_block_sizes(n: int, total_cores: int,
                          partitions_per_core: int, *,
                          layout: str) -> list[int]:
    """Deterministic block-size candidate set for an ``n x n`` problem.

    The heuristic :func:`auto_block_size` pick is always included (it is the
    documented default), surrounded by a power-of-two ladder.  Everything is clamped to ``[1, n]`` and deduplicated.
    """
    heuristic = auto_block_size(n, total_cores, partitions_per_core,
                                layout=layout)
    ladder = {16, 32, 64, 128, 256}
    ladder.update({heuristic, max(1, heuristic // 2), heuristic * 2})
    if n <= 64:
        ladder.add(n)  # single-block degenerate case is real for tiny graphs
    return sorted({max(1, min(int(b), n)) for b in ladder})


def _candidate_storages(request: SolveRequest) -> list[str]:
    """Storage policies the tuner may choose between for this request.

    Only the algebra-default storage is treated as tunable; an explicit
    non-default request is honoured as a constraint.
    """
    algebra = get_algebra(request.algebra)
    if request.storage != algebra.resolve_storage(None):
        return [request.storage]
    return sorted(algebra.storages)


def choose_config(request: SolveRequest, *, n: int,
                  config: EngineConfig | None = None,
                  symmetric: bool = True) -> TunerDecision:
    """Pick the cheapest registry-supported configuration for a request.

    ``n`` is the problem size and ``symmetric`` whether the adjacency is
    symmetric (resolves a ``layout="auto"`` request — a correctness
    constraint the tuner never trades away).

    Every candidate is a :class:`SolveRequest` derived from the caller's and
    priced on the plan :func:`~repro.core.base.resolve_plan` gives it — the
    same resolution the engine runs — so a priced configuration is exactly
    the one that would execute.
    """
    config = config or default_config()
    total_cores = config.total_cores

    def price(candidate: SolveRequest) -> tuple[float, SolvePlan]:
        plan = resolve_plan(candidate, n, symmetric=symmetric,
                            total_cores=total_cores)
        return predict_plan_seconds(plan, backend=config.backend), plan

    # Layout first (it decides the solver pool); every candidate below
    # derives from this layout-concrete request.
    base = resolve_plan(request, n, symmetric=symmetric,
                        total_cores=total_cores).request
    # A solver is priced from the shape its class states (a subclass
    # inherits its parent's); one that states none cannot be priced and is
    # left out of the pool.
    supported = solvers_for(base.algebra, base.layout)
    solvers = [solver for solver in supported
               if solver_info(solver).shape is not None]
    if not solvers:
        raise ConfigurationError(
            f"solver='auto' has no price for any solver supporting algebra "
            f"{base.algebra!r} on the {base.layout} layout "
            f"({', '.join(supported) or 'none registered'}); name one "
            "explicitly")
    storages = _candidate_storages(base)
    blocks = ([base.block_size] if base.block_size is not None
              else candidate_block_sizes(n, total_cores,
                                         base.partitions_per_core,
                                         layout=base.layout))

    # The documented default: Blocked-CB (or the first supported solver) at
    # the heuristic block size with the request's own storage.  It is scored
    # with the same predictor and always part of the candidate pool, which
    # is what makes "never predicted-slower than the default" a theorem
    # rather than a hope.
    default_predicted, default_plan = price(replace(
        base, solver=DEFAULT_SOLVER if DEFAULT_SOLVER in solvers else solvers[0]))

    priced = [price(replace(base, solver=solver, storage=storage,
                            block_size=block))
              for solver in solvers for storage in storages for block in blocks]

    def rank(pair: tuple[float, SolvePlan]) -> tuple:
        chosen = pair[1].request  # ties break on the candidate's own fields
        return pair[0], chosen.solver, chosen.block_size, chosen.storage

    predicted, best_plan = min(priced, key=rank)
    if predicted > default_predicted:
        # Numerically impossible when the default is in the pool (it is,
        # unless an explicit non-default storage constrains the sweep away
        # from it) — clamp to the default either way.
        predicted, best_plan = default_predicted, default_plan

    recommended_backend = min(
        BACKENDS, key=lambda b: (predict_plan_seconds(best_plan, backend=b), b))
    return TunerDecision(
        request=replace(best_plan.request, block_size=best_plan.block_size),
        n=n, backend=config.backend,
        predicted_seconds=predicted,
        default_predicted_seconds=default_predicted,
        recommended_backend=recommended_backend,
        candidates=len(priced))


def resolve_auto(request: SolveRequest, adjacency, *,
                 config: EngineConfig | None = None
                 ) -> tuple[SolveRequest, TunerDecision]:
    """Rewrite a ``solver="auto"`` request to the tuner's concrete choice.

    Returns the rewritten request (re-validated through the normal
    :class:`SolveRequest` checks) and the :class:`TunerDecision` describing
    what was picked and why.  Non-auto requests pass through unchanged with
    a decision priced at their own configuration.
    """
    if not sparse_mod.is_sparse(adjacency):
        adjacency = np.asarray(adjacency)
    if adjacency.ndim != 2 or adjacency.shape[0] != adjacency.shape[1]:
        raise ConfigurationError(
            f"adjacency must be a square matrix, got shape {adjacency.shape}")
    decision = choose_config(
        request, n=int(adjacency.shape[0]), config=config,
        symmetric=input_symmetry(request, adjacency))
    return (decision.request if request.solver == "auto" else request), decision
