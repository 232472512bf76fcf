"""Cluster model and analytic cost models for paper-scale projections.

The paper's largest experiments (n = 262,144 on 1,024 cores) cannot be run in
this environment; the evaluation itself, however, already relies on
projection — Table 2 multiplies measured single-iteration times by iteration
counts.  This package provides the same construction: a machine model of the
paper's cluster (:mod:`repro.cluster.model`), kernel-rate calibration either
measured on the host or fixed to the paper's reported sequential throughput
(:mod:`repro.cluster.calibration`), and per-solver analytic cost models that
combine compute, network, storage and Spark-overhead terms
(:mod:`repro.cluster.costmodel`).

:mod:`repro.cluster.fitting` prices solves on *this* host instead: it loads
the per-unit machine constants committed in ``benchmarks/calibration.json``
and prices a resolved plan's structural features with them, which is how the
auto-tuner (:mod:`repro.core.tuner`) resolves ``solver="auto"`` requests.
"""

from repro.cluster.model import (
    NodeSpec,
    NetworkSpec,
    SparkOverheadSpec,
    ClusterSpec,
    paper_cluster,
)
from repro.cluster.calibration import KernelCalibration, measure_kernel_times
from repro.cluster.costmodel import (
    CostModel,
    IterationEstimate,
    ProjectionResult,
    SOLVER_NAMES,
    element_bytes,
)
from repro.cluster.fitting import (
    CALIBRATION_SCHEMA_VERSION,
    load_calibration,
    paper_constants,
    predict_plan_seconds,
    validate_calibration,
)

__all__ = [
    "NodeSpec",
    "NetworkSpec",
    "SparkOverheadSpec",
    "ClusterSpec",
    "paper_cluster",
    "KernelCalibration",
    "measure_kernel_times",
    "element_bytes",
    "CostModel",
    "IterationEstimate",
    "ProjectionResult",
    "SOLVER_NAMES",
    "CALIBRATION_SCHEMA_VERSION",
    "load_calibration",
    "paper_constants",
    "predict_plan_seconds",
    "validate_calibration",
]
