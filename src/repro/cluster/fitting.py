"""Price a resolved solve plan with one table of per-unit machine constants.

The cluster cost model (:mod:`repro.cluster.costmodel`) projects *paper-scale*
runtimes from paper-anchored constants.  This module prices solves on *this*
host instead, from the same structure: the solver's registered
:class:`~repro.core.registry.SolverShape`.  Each plan becomes a set of
**structural features** (kernel element-ops by algebra × dtype × storage,
the engine's scheduler stages and tasks by backend, bytes moved over every
channel, per-solver driver work), and the predicted wall is their dot product
with the per-unit rates of :data:`SECONDS_PER_UNIT`.

Features are computed from the plan alone — never from measured metrics — so
the auto-tuner (:mod:`repro.core.tuner`) can rank candidate (solver, block
size, storage, layout, backend) configurations for an unseen problem.  The
table is the only place the tuner reads a price from, so a decision does not
depend on the working directory or the environment.
"""

from __future__ import annotations

from repro.cluster.costmodel import MINPLUS_RATE, element_bytes
from repro.common.config import BACKENDS
from repro.common.errors import ConfigurationError
from repro.linalg.algebra import get_algebra

#: Seconds per unit of every structural feature :func:`plan_features` emits.
#: The rates were fitted once, by regression over 55 timed solves on one
#: single-core reference machine, before the compiled relax kernel; they are
#: stale, and a 0.0 is a fit that came out free, not a measurement.  The two
#: float32 rates the fit never saw carry the median per-byte rate of the
#: fitted kernels.  The ``stages:*`` rates were fitted on an older weighted
#: stage count and now multiply the engine's own count
#: (:attr:`~repro.core.registry.SolverShape.stages`), so they are stale
#: twice over.  Re-measuring them one unit at a time lands here (ROADMAP
#: ``[cost-model]`` (b)/(c)).
SECONDS_PER_UNIT = {
    "ops:longest-path|float32|dense": 2.429694581088e-09,
    "ops:longest-path|float64|dense": 7.943766217331e-09,
    "ops:most-reliable|float32|dense": 2.429694581088e-09,
    "ops:most-reliable|float64|dense": 4.536065374569e-09,
    "ops:reachability|bool|dense": 2.600916497916e-10,
    "ops:reachability|bool|packed": 1.888234011069e-10,
    "ops:shortest-path|float32|dense": 2.54082007854e-09,
    "ops:shortest-path|float64|dense": 4.793148132908e-09,
    "ops:widest-path|float32|dense": 2.462815095722e-09,
    "ops:widest-path|float64|dense": 4.520468318106e-09,
    "stages:processes": 0.002206710164668,
    "stages:serial": 0.0003156934875099,
    "stages:threads": 0.0,
    "tasks:processes": 0.0,
    "tasks:serial": 0.0,
    "tasks:threads": 0.0,
    "bytes": 0.0,
    "bytes:ipc": 1.827347356401e-08,
    "taskbytes:threads": 3.56040954156e-08,
    "kernels:packed": 0.0001481016414223,
    "driver:fw-2d": 0.000158298562444,
    "driver:repeated-squaring": 0.0001504667537761,
}


# ---------------------------------------------------------------------------
# Structural feature extraction
# ---------------------------------------------------------------------------
def plan_features(plan, *, backend: str) -> dict[str, float]:
    """Structural cost features of one resolved solve plan.

    Read from the solver's :class:`~repro.core.registry.SolverShape`: its
    per-iteration work and bytes times its iterations, and the engine's
    stages (one task per partition each).  The predicted wall is the dot
    product with :data:`SECONDS_PER_UNIT`.
    """
    from repro.core.registry import solver_shape  # repro.core imports us
    if backend not in BACKENDS:
        raise ConfigurationError(f"unknown backend {backend!r}")
    request = plan.request
    algebra = get_algebra(request.algebra)
    element_size = element_bytes(algebra, request.dtype, request.storage)
    shape = solver_shape(request.solver, plan.n, plan.block_size,
                         request.layout, element_size)
    iterations = shape.iterations
    bytes_moved = iterations * shape.bytes_moved
    tasks = shape.stages * plan.num_partitions

    features: dict[str, float] = {
        f"ops:{request.algebra}|{request.dtype}|{request.storage}":
            iterations * shape.ops,
        f"stages:{backend}": shape.stages,
        f"tasks:{backend}": tasks,
        "bytes": bytes_moved,
        f"driver:{shape.solver}": iterations * shape.driver,
    }
    if backend == "processes":
        # Every byte crosses a pickle + pipe boundary on top of the normal
        # staging cost.
        features["bytes:ipc"] = bytes_moved
    if backend == "threads":
        # Future dispatch plus GIL handoff per task scales with the block
        # payload each task carries.
        features["taskbytes:threads"] = \
            tasks * element_size * plan.block_size * plan.block_size
    if request.storage == "packed":
        # Bitset pack/unpack is a fixed cost per kernel invocation that
        # dominates at small blocks.
        features["kernels:packed"] = iterations * shape.kernel_calls
    return {key: float(value) for key, value in features.items() if value > 0.0}


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------
def _rate(key: str) -> float:
    """Seconds per unit of one feature.

    A kernel key the table has no rate for belongs to an algebra registered
    at runtime; it is priced per byte at the paper's min-plus rate.
    """
    if key.startswith("ops:") and key not in SECONDS_PER_UNIT:
        return element_bytes(*key[4:].split("|")) / MINPLUS_RATE
    return SECONDS_PER_UNIT[key]


def predict_plan_seconds(plan, *, backend: str) -> float:
    """Predicted wall seconds of one resolved solve plan (the tuner's pricing)."""
    features = plan_features(plan, backend=backend)
    return sum(value * _rate(key) for key, value in features.items())
