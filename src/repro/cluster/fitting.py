"""Price a resolved solve plan with one table of per-unit machine constants.

The cluster cost model (:mod:`repro.cluster.costmodel`) projects *paper-scale*
runtimes from paper-anchored constants.  This module prices solves on *this*
host instead: each plan becomes a set of **structural features** (kernel
element-ops by algebra × dtype × storage, scheduler stages and tasks by
backend, staging/IPC byte volumes, per-solver driver work), and the predicted
wall is their dot product with the per-unit rates of :data:`SECONDS_PER_UNIT`.

Features are computed from the plan alone — never from measured metrics — so
the auto-tuner (:mod:`repro.core.tuner`) can rank candidate (solver, block
size, storage, layout, backend) configurations for an unseen problem.  The
table is the only place the tuner reads a price from, so a decision does not
depend on the working directory or the environment.
"""

from __future__ import annotations

from repro.cluster.costmodel import MINPLUS_RATE, element_bytes
from repro.common.errors import ConfigurationError
from repro.linalg.algebra import get_algebra
from repro.linalg.semiring import closure_iterations

#: Engine backends the stage/task constants are keyed by.
BACKENDS = ("serial", "threads", "processes")

#: Physical parallelism of the host the rates describe: kernel ops divide by
#: ``min(total_cores, CPU_COUNT)`` on the pooled backends.
CPU_COUNT = 1

#: Seconds per unit of every structural feature :func:`plan_features` emits.
#: The rates were fitted once, by regression over 55 timed solves on one
#: single-core reference machine, before the compiled relax kernel; they are
#: stale, and a 0.0 is a fit that came out free, not a measurement.  The two
#: float32 rates the fit never saw carry the median per-byte rate of the
#: fitted kernels.  Re-measuring them one unit at a time lands here
#: (ROADMAP ``[cost-model]`` (b)/(c)).
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


def ops_key(request) -> str:
    """Kernel-rate key of a concrete request's (algebra, dtype, storage) triple."""
    return f"ops:{request.algebra}|{request.dtype}|{request.storage}"


# ---------------------------------------------------------------------------
# Structural feature extraction
# ---------------------------------------------------------------------------
#: The solvers :func:`plan_features` has a structural shape for.
PRICED_SOLVERS = ("blocked-cb", "blocked-im", "fw-2d", "repeated-squaring")


def _solver_shape(solver: str, n: int, block: int, q: int, stored: float,
                  element_size: float) -> tuple[float, float, float, float, dict]:
    """(ops, stages, bytes, kernel calls, driver features) for one solve.

    The shapes mirror the real schedulers.  ``stages`` is a *weighted*
    scheduler-overhead count: both blocked methods charge four data-moving
    stages per outer iteration (Blocked-IM's extra phases are metadata-only
    and measure free), scaled by ``stored / tri_stored`` because per-stage
    block handling grows with the stored grid.  FW-2D's per-pivot column
    extraction and repeated squaring's driver-side block union are genuinely
    different driver operations, so they get their own ``driver:<solver>``
    features with their own rates.  Byte volumes follow each solver's
    per-iteration collect/restage/copy structure (the same construction as
    :meth:`CostModel.estimate_iteration`, without the cluster-bandwidth
    division — the ``bytes`` constant carries the effective local rate).
    """
    b3 = float(block) ** 3
    block_bytes = element_size * block * block
    tri_stored = q * (q + 1) / 2.0
    if solver in ("blocked-cb", "blocked-im"):
        iterations = q
        products = 1.0 + 2.0 * (q - 1) + max(0.0, stored - 2.0 * (q - 1) - 1.0)
        ops = iterations * products * b3
        stages = (4.0 * q + 1.0) * (stored / tri_stored)
        if solver == "blocked-cb":
            bytes_moved = iterations * block_bytes * (stored + 2.0 * q - 1.0)
        else:
            phase3 = max(0.0, stored - 2.0 * (q - 1) - 1.0)
            bytes_moved = iterations * block_bytes * (
                4.0 * stored + (q - 1.0) + 2.0 * phase3)
        return ops, stages, bytes_moved, iterations * products, {}
    if solver == "fw-2d":
        ops = float(n) * stored * float(block) ** 2
        stages = float(n) + 4.0
        bytes_moved = 2.0 * float(n) * n * element_size  # pivot column out+back
        driver = {"driver:fw-2d": float(n) * stored / q}
        return ops, stages, bytes_moved, float(n) * stored, driver
    if solver == "repeated-squaring":
        iterations = max(1, closure_iterations(n))
        ops = iterations * 2.0 * stored * b3
        stages = 7.0 * iterations + 1.0
        bytes_moved = iterations * block_bytes * (3.0 * stored + q)
        driver = {"driver:repeated-squaring": float(iterations) * stored}
        return ops, stages, bytes_moved, iterations * 2.0 * stored, driver
    raise ConfigurationError(f"unknown solver {solver!r}")


def plan_features(plan, *, backend: str, total_cores: int) -> dict[str, float]:
    """Structural cost features of one resolved solve plan.

    The kernel-ops features are divided by the effective worker parallelism
    ``min(total_cores, CPU_COUNT)`` for the threads/processes backends (the
    serial backend always runs on one core).  Every feature is a plain
    non-negative number; the predicted wall is the dot product with
    :data:`SECONDS_PER_UNIT`.
    """
    request = plan.request
    algebra = get_algebra(request.algebra)
    storage = request.storage
    n, block, q, partitions = plan.n, plan.block_size, plan.q, plan.num_partitions
    stored = float(plan.grid.count)
    element_size = element_bytes(algebra, request.dtype, storage)
    if backend not in BACKENDS:
        raise ConfigurationError(f"unknown backend {backend!r}")
    parallelism = 1.0 if backend == "serial" else float(
        max(1, min(total_cores, CPU_COUNT)))

    ops, stages, bytes_moved, kernel_calls, driver = _solver_shape(
        request.solver, n, block, q, stored, element_size)
    if request.paths:
        # Witness tracking doubles the kernel work (paired value/parent
        # kernels), the moved volume, and the per-stage block handling —
        # every stage now touches two planes per block.
        ops *= 2.0
        bytes_moved *= 2.0
        stages *= 2.0
        kernel_calls *= 2.0
    tasks = stages * partitions

    features: dict[str, float] = {
        ops_key(request): ops / parallelism,
        f"stages:{backend}": stages,
        f"tasks:{backend}": tasks,
        "bytes": bytes_moved,
        **driver,
    }
    if backend == "processes":
        # Every byte crosses a pickle + pipe boundary on top of the normal
        # staging cost.
        features["bytes:ipc"] = bytes_moved
    if backend == "threads":
        # Future dispatch plus GIL handoff per task scales with the block
        # payload each task carries.
        features["taskbytes:threads"] = tasks * element_size * block * block
    if storage == "packed":
        # Bitset pack/unpack is a fixed cost per kernel invocation that
        # dominates at small blocks.
        features["kernels:packed"] = kernel_calls
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


def predict_plan_seconds(plan, *, backend: str, total_cores: int) -> float:
    """Predicted wall seconds of one resolved solve plan (the tuner's pricing)."""
    features = plan_features(plan, backend=backend, total_cores=total_cores)
    return sum(value * _rate(key) for key, value in features.items())
