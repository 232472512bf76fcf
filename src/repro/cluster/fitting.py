"""Price a resolved solve plan with the committed machine constants.

The cluster cost model (:mod:`repro.cluster.costmodel`) projects *paper-scale*
runtimes from paper-anchored constants.  This module prices solves on *this*
host instead: each plan becomes a set of **structural features** (kernel
element-ops by algebra × dtype × storage, scheduler stages and tasks by
backend, staging/IPC byte volumes, per-solver driver work), and the predicted
wall is their dot product with per-unit constants.

Features are computed from the plan alone — never from measured metrics — so
the auto-tuner (:mod:`repro.core.tuner`) can rank candidate (solver, block
size, storage, layout, backend) configurations for an unseen problem.  The
constants come from ``benchmarks/calibration.json`` (or the file named by
``APSPARK_CALIBRATION``), loaded and validated here; a feature the document
carries no constant for falls back to a sibling rate or a documented default.
"""

from __future__ import annotations

import json
import os

import numpy as np

from repro.cluster.costmodel import MINPLUS_RATE, element_bytes
from repro.common.errors import ConfigurationError, ValidationError
from repro.linalg.algebra import get_algebra
from repro.linalg.semiring import closure_iterations

#: Bump when the calibration document layout changes incompatibly.
CALIBRATION_SCHEMA_VERSION = 1

#: Keys every calibration document must carry to be considered well-formed.
_REQUIRED_KEYS = ("schema_version", "constants", "accuracy")

#: Engine backends the stage/task constants are keyed by.
BACKENDS = ("serial", "threads", "processes")

#: Last-resort per-unit constants used when a feature has no constant in the
#: calibration document (or when no calibration file exists at all).  They are
#: paper-flavoured orders of magnitude, not measurements — the tuner still
#: ranks candidates sensibly with them, just less sharply.
FALLBACK_SECONDS_PER_UNIT = {
    "ops": 8.0 / MINPLUS_RATE,  # per float64-equivalent byte of kernel work
    "stages": 3.0e-4,
    "tasks": 1.5e-5,
    "bytes": 2.0e-8,
    "bytes:ipc": 4.0e-8,
    "taskbytes": 5.0e-9,
    "driver": 3.0e-4,
    "kernels": 1.5e-4,
}


def ops_key(request) -> str:
    """Kernel-rate key of a concrete request's (algebra, dtype, storage) triple."""
    return f"ops:{request.algebra}|{request.dtype}|{request.storage}"


# ---------------------------------------------------------------------------
# Structural feature extraction
# ---------------------------------------------------------------------------
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


def plan_features(plan, *, backend: str, total_cores: int,
                  cpu_count: int = 1) -> dict[str, float]:
    """Structural cost features of one resolved solve plan.

    ``cpu_count`` is the *physical* parallelism of the host the constants
    describe: the kernel-ops features are divided by the effective worker
    parallelism ``min(total_cores, cpu_count)`` for the threads/processes
    backends (the serial backend always runs on one core).  Every feature is
    a plain non-negative number; the predicted wall is the dot product with
    the per-unit constants.
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
        max(1, min(total_cores, max(1, int(cpu_count)))))

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


def paper_constants(*, cpu_count: int | None = None) -> dict:
    """Fallback constants used when no calibration file is available.

    Every prediction then rides on :data:`FALLBACK_SECONDS_PER_UNIT` — the
    paper-flavoured defaults — which keeps the auto-tuner functional (and
    deterministic for a fixed host) without a calibration document.
    """
    return {
        "source": "paper-default",
        "cpu_count": max(1, int(cpu_count if cpu_count is not None
                                else (os.cpu_count() or 1))),
        "observations": 0,
        "residual": 0.0,
        "seconds_per_unit": {},
    }


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------
def _fallback_rate(key: str, fitted: dict[str, float]) -> float:
    """Per-unit rate for a feature the calibration carries no constant for.

    Unseen kernel keys borrow the median *per-byte* rate of the fitted
    kernel keys (so an unfitted float32 algebra still prices ~2x faster
    than its float64 twin); other families fall back to the documented
    defaults.
    """
    family = key.split(":", 1)[0] if not key.startswith("ops:") else "ops"
    if key.startswith("ops:"):
        per_byte: list[float] = []
        for fit_key, rate in fitted.items():
            if not fit_key.startswith("ops:") or rate <= 0.0:
                continue
            algebra, dtype, storage = fit_key[4:].split("|")
            per_byte.append(rate / element_bytes(algebra, dtype, storage))
        element_size = element_bytes(*key[4:].split("|"))
        if per_byte:
            return float(np.median(per_byte)) * element_size
        return FALLBACK_SECONDS_PER_UNIT["ops"] / 8.0 * element_size
    if family in ("stages", "tasks", "driver", "taskbytes", "kernels"):
        siblings = [rate for fit_key, rate in fitted.items()
                    if fit_key.startswith(family + ":") and rate > 0.0]
        if siblings:
            return float(np.median(siblings))
        return FALLBACK_SECONDS_PER_UNIT[family]
    return FALLBACK_SECONDS_PER_UNIT.get(key, FALLBACK_SECONDS_PER_UNIT.get(
        family, 0.0))


def _price(features: dict[str, float], constants: dict) -> float:
    """Dot product of structural features with the fitted per-unit rates."""
    rates = constants.get("seconds_per_unit") or {}
    total = 0.0
    for key, value in features.items():
        rate = rates.get(key)
        if rate is None:
            # No constant for this feature.  A constant of zero is kept as
            # zero — the calibration says that cost is free.
            rate = _fallback_rate(key, rates)
        total += value * rate
    return total


def predict_plan_seconds(plan, constants: dict, *, backend: str,
                         total_cores: int) -> float:
    """Predicted wall seconds of one resolved solve plan (the tuner's pricing)."""
    return _price(plan_features(
        plan, backend=backend, total_cores=total_cores,
        cpu_count=int(constants.get("cpu_count", 1))), constants)


# ---------------------------------------------------------------------------
# Calibration documents
# ---------------------------------------------------------------------------
def validate_calibration(calibration: dict, path: str = "<calibration>") -> dict:
    """Check a loaded calibration document; returns it on success."""
    if not isinstance(calibration, dict):
        raise ValidationError(f"{path}: calibration must be a JSON object")
    missing = [key for key in _REQUIRED_KEYS if key not in calibration]
    if missing:
        raise ValidationError(
            f"{path}: calibration is missing keys: {', '.join(missing)}")
    version = calibration["schema_version"]
    if version != CALIBRATION_SCHEMA_VERSION:
        raise ValidationError(
            f"{path}: unsupported calibration schema version {version!r} "
            f"(this build reads version {CALIBRATION_SCHEMA_VERSION})")
    constants = calibration["constants"]
    if (not isinstance(constants, dict)
            or not isinstance(constants.get("seconds_per_unit"), dict)):
        raise ValidationError(
            f"{path}: 'constants.seconds_per_unit' must be an object")
    for key, value in constants["seconds_per_unit"].items():
        if not isinstance(value, (int, float)) or value < 0:
            raise ValidationError(
                f"{path}: constant {key!r} must be a non-negative number")
    return calibration


def load_calibration(path: str) -> dict:
    """Load and validate a ``calibration.json`` document from disk."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            calibration = json.load(fh)
    except FileNotFoundError:
        raise ValidationError(f"calibration file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{path}: invalid JSON ({exc})") from exc
    return validate_calibration(calibration, path)
