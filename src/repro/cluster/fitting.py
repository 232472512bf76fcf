"""Fit the cost model's machine constants against archived bench results.

The cluster cost model (:mod:`repro.cluster.costmodel`) projects *paper-scale*
runtimes from paper-anchored constants; the bench subsystem records *measured*
walls on this host (``BENCH_<suite>.json``).  This module closes the loop
between the two — the cost-vs-actual calibration idiom: express each archived
scenario's wall time as a linear combination of **structural features**
(kernel element-ops by algebra × dtype × storage, scheduler stages and tasks
by backend, staging/IPC byte volumes, serving row solves, fault retries) and
regress the per-unit machine constants with a non-negative least squares fit.

The design constraint that shapes everything here: features must be
computable from a scenario's *parameters alone* — never from its measured
metrics — so the very same feature extractor prices configurations that were
never benchmarked.  That is what lets the auto-tuner
(:mod:`repro.core.tuner`) rank candidate (solver, block size, storage,
layout, backend) configurations for an unseen problem with the fitted
constants.

The fit is deterministic: NNLS (Lawson–Hanson active set) over a fixed
row/column ordering with fixed relative-error weights, constants rounded to
12 significant digits before serialization.  Re-running ``apspark bench
calibrate`` over the same archives reproduces ``benchmarks/calibration.json``
bit for bit — the golden-file regression test depends on it.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.costmodel import element_bytes
from repro.common.errors import ConfigurationError, ValidationError
from repro.linalg.algebra import get_algebra
from repro.linalg.semiring import closure_iterations

#: Bump when the calibration document layout changes incompatibly.
CALIBRATION_SCHEMA_VERSION = 1

#: Keys every calibration document must carry to be considered well-formed.
_REQUIRED_KEYS = ("schema_version", "constants", "accuracy")

#: Noise floor for relative-error weighting: scenarios faster than this are
#: scheduler-jitter territory and should not dominate the fit.
WALL_FLOOR_SECONDS = 2e-3

#: Significant digits kept when serializing fitted constants.  Enough to be
#: lossless for prediction purposes while shaving the low-order bits where
#: BLAS builds legitimately differ across platforms.
_ROUND_DIGITS = 12

#: Engine backends the task/crash constants are keyed by.
BACKENDS = ("serial", "threads", "processes")

#: Last-resort per-unit constants used when a feature was never observed in
#: the fitted archives (or when no calibration file exists at all).  They are
#: paper-flavoured orders of magnitude, not measurements — the tuner still
#: ranks candidates sensibly with them, just less sharply.
FALLBACK_SECONDS_PER_UNIT = {
    "ops": 8.0 / 0.70e9,        # per float64-equivalent byte of kernel work
    "stages": 3.0e-4,
    "tasks": 1.5e-5,
    "bytes": 2.0e-8,
    "bytes:ipc": 4.0e-8,
    "taskbytes": 5.0e-9,
    "driver": 3.0e-4,
    "kernels": 1.5e-4,
    "update_edges": 4.0e-4,
    "serve_cells": 5.0e-8,
    "serve_queries": 6.0e-6,
    "failures": 5.0e-3,
    "crashes": 2.0e-2,
}


def ops_key(request) -> str:
    """Kernel-rate key of a concrete request's (algebra, dtype, storage) triple."""
    return f"ops:{request.algebra}|{request.dtype}|{request.storage}"


@dataclass
class Observation:
    """One archived scenario: its structural features and its measured wall."""

    suite: str
    scenario_id: str
    wall_seconds: float
    features: dict[str, float] = field(default_factory=dict)
    params: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Structural feature extraction
# ---------------------------------------------------------------------------
def plan_from_params(params: dict):
    """The archive boundary: a scenario-params dict → ``(plan, total_cores)``.

    ``BENCH_*.json`` rows and :meth:`BenchScenario.params` describe a solve
    as a flat dict; this rebuilds the :class:`~repro.core.request.SolveRequest`
    it round-trips to and resolves it exactly as the engine would
    (:func:`~repro.core.base.resolve_plan`).  Bench graphs are symmetric
    unless the scenario is directed, and a directed request already pins the
    full grid.
    """
    from repro.core.base import resolve_plan  # deferred: core imports cluster
    from repro.core.request import SolveRequest

    request = SolveRequest(**{name: params[name]
                              for name in SolveRequest.__dataclass_fields__
                              if name in params})
    total_cores = (max(1, int(params.get("num_executors", 2)))
                   * max(1, int(params.get("cores_per_executor", 2))))
    return resolve_plan(request, int(params.get("n", 0)), symmetric=True,
                        total_cores=total_cores), total_cores


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
    features with independently fitted rates.  Byte volumes follow each
    solver's per-iteration collect/restage/copy structure (the same
    construction as :meth:`CostModel.estimate_iteration`, without the
    cluster-bandwidth division — the fit learns the effective local rate).
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


def _expected_distinct_sources(n: int, queries: int, query_sources: int) -> float:
    """Expected number of distinct queried sources in a replayed stream."""
    pool = min(query_sources, n) if query_sources > 0 else n
    if pool <= 0:
        return 0.0
    # Uniform draws with replacement from `pool` sources.
    return float(pool) * (1.0 - (1.0 - 1.0 / pool) ** max(0, queries))


def scenario_features(params: dict, *, cpu_count: int = 1) -> dict[str, float]:
    """Structural cost features of one archived scenario, from its parameters alone."""
    plan, total_cores = plan_from_params(params)
    return plan_features(plan, backend=str(params.get("backend", "serial")),
                         total_cores=total_cores, cpu_count=cpu_count,
                         workload=params)


def plan_features(plan, *, backend: str, total_cores: int, cpu_count: int = 1,
                  workload: dict | None = None) -> dict[str, float]:
    """Structural cost features of one resolved solve plan.

    ``cpu_count`` is the *physical* parallelism of the host the constants
    describe: the kernel-ops features are divided by the effective worker
    parallelism ``min(total_cores, cpu_count)`` for the threads/processes
    backends (the serial backend always runs on one core).  ``workload``
    carries a bench scenario's beyond-the-solve knobs (``workload``,
    ``update_batch``, ``queries``, ``failure_rate``, ...); a bare solve has
    none.  Every feature is a plain non-negative number; the predicted wall
    is the dot product with the fitted per-unit constants.
    """
    params = workload or {}
    request = plan.request
    algebra = get_algebra(request.algebra)
    dtype, storage = request.dtype, request.storage
    paths, directed = request.paths, request.directed
    n, block, q, partitions = plan.n, plan.block_size, plan.q, plan.num_partitions
    stored = float(plan.grid.count)
    element_size = element_bytes(algebra, dtype, storage)
    if backend not in BACKENDS:
        raise ConfigurationError(f"unknown backend {backend!r}")
    parallelism = 1.0 if backend == "serial" else float(
        max(1, min(total_cores, max(1, int(cpu_count)))))

    ops, stages, bytes_moved, kernel_calls, driver = _solver_shape(
        request.solver, n, block, q, stored, element_size)
    if paths:
        # Witness tracking doubles the kernel work (paired value/parent
        # kernels), the moved volume, and the per-stage block handling —
        # every stage now touches two planes per block.
        ops *= 2.0
        bytes_moved *= 2.0
        stages *= 2.0
        kernel_calls *= 2.0

    solves = 1.0
    update_edges = 0.0
    # -- update workload: per-edge driver sweeps or a full re-solve
    update_batch = int(params.get("update_batch", 0) or 0)
    if str(params.get("workload", "solve")) == "update" and update_batch > 0:
        orientations = 1 if directed else 2
        mode = str(params.get("update_mode", "auto"))
        if mode == "auto":
            from repro.cluster.costmodel import update_break_even
            break_even = update_break_even(
                n, algebra=algebra, dtype=dtype, storage=storage,
                orientations=orientations, witnessed=paths)
            mode = "resolve" if (update_batch >= break_even
                                 or not algebra.absorptive) else "incremental"
        if mode == "resolve":
            solves += 1.0
        else:
            sweep = 2.0 if paths else 1.0
            ops += update_batch * float(n) * n * orientations * sweep
        # Classification and application carry a fixed driver cost per edge
        # in either mode.
        update_edges = float(update_batch)

    ops *= solves
    stages *= solves
    bytes_moved *= solves
    kernel_calls *= solves
    tasks = stages * partitions

    features: dict[str, float] = {
        ops_key(request): ops / parallelism,
        f"stages:{backend}": stages,
        f"tasks:{backend}": tasks,
        "bytes": bytes_moved,
    }
    for key, value in driver.items():
        features[key] = value * solves
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
    if update_edges > 0.0:
        features["update_edges"] = update_edges

    # -- serve workload: lazy parent-row solves + per-query walk overhead
    queries = int(params.get("queries", 0) or 0)
    if str(params.get("workload", "solve")) == "serve" and queries > 0:
        sources = _expected_distinct_sources(
            n, queries, int(params.get("query_sources", 0) or 0))
        cache_rows = params.get("cache_rows")
        rows = sources
        if cache_rows is not None and 0 < int(cache_rows) < sources:
            # Steady-state LRU under uniform access: misses re-solve rows.
            miss_rate = 1.0 - float(cache_rows) / sources
            rows += max(0.0, queries - sources) * miss_rate
        features["serve_cells"] = rows * float(n) * n
        features["serve_queries"] = float(queries)

    # -- fault injection: retries and pool rebuilds scale with task count
    failure_rate = float(params.get("failure_rate", 0.0) or 0.0)
    crash_rate = float(params.get("crash_rate", 0.0) or 0.0)
    if failure_rate > 0.0:
        features["failures"] = failure_rate * tasks
    if crash_rate > 0.0:
        features[f"crashes:{backend}"] = crash_rate * tasks
    return {key: float(value) for key, value in features.items() if value > 0.0}


# ---------------------------------------------------------------------------
# Observations from archived reports
# ---------------------------------------------------------------------------
def extract_observations(reports: list[dict]) -> list[Observation]:
    """Turn loaded ``BENCH_*.json`` report dicts into fit observations.

    Reports must already be schema-validated
    (:func:`repro.bench.results.load_report` does that); scenarios without a
    positive wall are skipped.  The observation order — report order, then
    scenario order — is part of the deterministic-fit contract.
    """
    observations: list[Observation] = []
    for report in reports:
        suite = str(report.get("suite", "?"))
        cpu_count = int((report.get("host") or {}).get("cpu_count") or 1)
        for entry in report.get("scenarios", ()):
            wall = float(entry.get("wall_seconds", 0.0))
            params = entry.get("params") or {}
            if wall <= 0.0 or not params:
                continue
            observations.append(Observation(
                suite=suite,
                scenario_id=str(entry.get("id", "?")),
                wall_seconds=wall,
                features=scenario_features(params, cpu_count=cpu_count),
                params=dict(params),
            ))
    return observations


def _round_sig(value: float, digits: int = _ROUND_DIGITS) -> float:
    if value == 0.0 or not math.isfinite(value):
        return 0.0
    return float(f"{value:.{digits}e}")


def fit_constants(observations: list[Observation], *,
                  cpu_count: int = 1) -> dict:
    """Non-negative least squares fit of the per-unit machine constants.

    Rows are weighted by ``1 / max(wall, floor)`` so the objective
    approximates *relative* error — a 3.5 s solve and a 5 ms solve pull with
    comparable force.  Returns the ``constants`` subtree of a calibration
    document: ``seconds_per_unit`` keyed by feature name, the host
    parallelism the ops features were normalized with, and fit bookkeeping.
    """
    if not observations:
        raise ValidationError("cannot fit constants from zero observations")
    from scipy.optimize import nnls

    keys = sorted({key for obs in observations for key in obs.features})
    matrix = np.zeros((len(observations), len(keys)), dtype=np.float64)
    target = np.zeros(len(observations), dtype=np.float64)
    for i, obs in enumerate(observations):
        weight = 1.0 / max(obs.wall_seconds, WALL_FLOOR_SECONDS)
        target[i] = obs.wall_seconds * weight
        for j, key in enumerate(keys):
            matrix[i, j] = obs.features.get(key, 0.0) * weight
    # Column scaling keeps the active-set solve well conditioned across the
    # ~15 orders of magnitude separating ops counts from crash counts.
    scales = np.maximum(np.abs(matrix).max(axis=0), 1e-300)
    solution, residual = nnls(matrix / scales, target)
    theta = solution / scales
    seconds_per_unit = {key: _round_sig(float(value))
                        for key, value in zip(keys, theta)}
    return {
        "source": "fitted",
        "cpu_count": max(1, int(cpu_count)),
        "observations": len(observations),
        "residual": _round_sig(float(residual), 6),
        "seconds_per_unit": seconds_per_unit,
    }


def paper_constants(*, cpu_count: int | None = None) -> dict:
    """Fallback constants used when no fitted calibration file is available.

    Every prediction then rides on :data:`FALLBACK_SECONDS_PER_UNIT` — the
    paper-flavoured defaults — which keeps the auto-tuner functional (and
    deterministic for a fixed host) before the first ``bench calibrate``.
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
    """Per-unit rate for a feature the fit never observed.

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
    if family in ("stages", "tasks", "crashes", "driver", "taskbytes",
                  "kernels"):
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
            # Unseen during fitting.  A *fitted zero* is kept as zero — the
            # archives said that cost is indistinguishable from free.
            rate = _fallback_rate(key, rates)
        total += value * rate
    return total


def predict_seconds(params: dict, constants: dict) -> float:
    """Predicted wall seconds of one archived scenario under fitted constants.

    With :func:`predict_plan_seconds` the one prediction path everything
    shares — the accuracy report, the prediction-accuracy test harness and
    the auto-tuner's candidate ranking price the same :func:`plan_features`
    — so they can never drift apart.
    """
    return _price(scenario_features(
        params, cpu_count=int(constants.get("cpu_count", 1))), constants)


def predict_plan_seconds(plan, constants: dict, *, backend: str,
                         total_cores: int) -> float:
    """Predicted wall seconds of one resolved solve plan (the tuner's pricing)."""
    return _price(plan_features(
        plan, backend=backend, total_cores=total_cores,
        cpu_count=int(constants.get("cpu_count", 1))), constants)


def accuracy_report(observations: list[Observation], constants: dict) -> dict:
    """Predicted-vs-actual accuracy of ``constants`` over the observations."""
    rows: list[dict] = []
    for obs in observations:
        predicted = predict_seconds(obs.params, constants)
        rel_error = (abs(predicted - obs.wall_seconds) / obs.wall_seconds
                     if obs.wall_seconds > 0 else float("inf"))
        rows.append({
            "suite": obs.suite,
            "id": obs.scenario_id,
            "actual_seconds": _round_sig(obs.wall_seconds),
            "predicted_seconds": _round_sig(predicted),
            "rel_error": _round_sig(rel_error, 6),
        })
    errors = [row["rel_error"] for row in rows]
    per_suite: dict[str, dict] = {}
    for suite in sorted({row["suite"] for row in rows}):
        suite_errors = [row["rel_error"] for row in rows if row["suite"] == suite]
        per_suite[suite] = {
            "scenarios": len(suite_errors),
            "median_rel_error": _round_sig(float(np.median(suite_errors)), 6),
            "max_rel_error": _round_sig(max(suite_errors), 6),
        }
    worst = sorted(rows, key=lambda row: (-row["rel_error"], row["suite"],
                                          row["id"]))[:5]
    return {
        "scenarios": len(rows),
        "median_rel_error": (_round_sig(float(np.median(errors)), 6)
                             if errors else 0.0),
        "mean_rel_error": (_round_sig(float(np.mean(errors)), 6)
                           if errors else 0.0),
        "per_suite": per_suite,
        "per_scenario": rows,
        "worst": [dict(row) for row in worst],
    }


# ---------------------------------------------------------------------------
# Calibration documents
# ---------------------------------------------------------------------------
def build_calibration(reports: list[dict], *,
                      source_paths: list[str] | None = None) -> dict:
    """Fit constants from loaded reports and assemble the full document.

    The document separates volatile provenance (timestamps, git, host) from
    the deterministic ``constants`` / ``accuracy`` subtrees the golden-file
    test compares.
    """
    import time as _time

    from repro.bench.results import git_metadata, host_metadata

    observations = extract_observations(reports)
    cpu_counts = [int((report.get("host") or {}).get("cpu_count") or 1)
                  for report in reports]
    cpu_count = max(cpu_counts) if cpu_counts else 1
    constants = fit_constants(observations, cpu_count=cpu_count)
    sources = []
    for index, report in enumerate(reports):
        sources.append({
            "path": (source_paths[index] if source_paths
                     and index < len(source_paths) else None),
            "suite": report.get("suite"),
            "scenarios": len(report.get("scenarios", ())),
        })
    return {
        "schema_version": CALIBRATION_SCHEMA_VERSION,
        "created_unix": _time.time(),
        "git": git_metadata(),
        "host": host_metadata(),
        "sources": sources,
        "constants": constants,
        "accuracy": accuracy_report(observations, constants),
    }


def write_calibration(calibration: dict, path: str) -> str:
    """Write a calibration document as stable, human-diffable JSON."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(calibration, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


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
