"""Analytic cost models for paper-scale projections, and host-side pricing.

The paper's largest experiments (n = 262,144 on 1,024 cores) cannot be run in
this environment; the evaluation itself, however, already relies on
projection — Table 2 multiplies measured single-iteration times by iteration
counts.  This package provides the same construction: per-solver analytic
cost models that combine compute, network, storage and Spark-overhead terms
priced from one table of the paper's machine constants
(:mod:`repro.cluster.costmodel`), and a timer for the per-block kernels on
the host (:mod:`repro.cluster.calibration`, Figure 2's measured mode).

:mod:`repro.cluster.fitting` prices solves on *this* host instead: it dots a
resolved plan's structural features with one in-code table of per-unit
machine constants, which is how the auto-tuner (:mod:`repro.core.tuner`)
resolves ``solver="auto"`` requests.
"""

from repro.cluster.calibration import measure_kernel_times
from repro.cluster.costmodel import (
    CostModel,
    IterationEstimate,
    ProjectionResult,
    SOLVER_NAMES,
    element_bytes,
)
from repro.cluster.fitting import predict_plan_seconds

__all__ = [
    "measure_kernel_times",
    "element_bytes",
    "CostModel",
    "IterationEstimate",
    "ProjectionResult",
    "SOLVER_NAMES",
    "predict_plan_seconds",
]
