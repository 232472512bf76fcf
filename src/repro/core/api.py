"""High-level front-end: ``solve_apsp`` on top of :class:`~repro.core.engine.APSPEngine`.

The modern entry point is the engine session API::

    with APSPEngine(config) as engine:
        result = engine.solve(adjacency, SolveRequest(solver="blocked-cb"))

:func:`solve_apsp` remains as the one-shot convenience wrapper (one
ephemeral engine per call) so existing call sites keep working unchanged.
Solver lookup lives in :mod:`repro.core.registry`; the names re-exported
here (:func:`available_solvers`, :func:`get_solver_class`) are kept for
backward compatibility.
"""

from __future__ import annotations

from typing import Any

import numpy as np

# Importing the solver modules populates the registry as an import side effect.
import repro.core.blocked_collect_broadcast  # noqa: F401
import repro.core.blocked_inmemory  # noqa: F401
import repro.core.floyd_warshall_2d  # noqa: F401
import repro.core.repeated_squaring  # noqa: F401
from repro.common.config import EngineConfig
from repro.core.base import APSPResult
from repro.core.engine import APSPEngine
from repro.core.registry import (available_solvers, get_solver_class,  # noqa: F401
                                 register_solver, solver_catalog, solver_info)
from repro.core.request import SolveRequest


def solve_apsp(adjacency: np.ndarray, request: SolveRequest | None = None, *,
               config: EngineConfig | None = None, **options: Any) -> APSPResult:
    """Solve All-Pairs Shortest-Paths with one of the registered Spark solvers.

    One-shot convenience wrapper: builds a :class:`SolveRequest` (from
    ``request`` and/or the keyword ``options``, whose names and defaults are
    exactly the request's fields), runs it on an ephemeral
    :class:`APSPEngine` (context created and torn down inside this call),
    and returns the result.  For repeated solves prefer a long-lived engine,
    which reuses one Spark context across the batch.

    Parameters
    ----------
    adjacency:
        Dense symmetric adjacency matrix with ``inf`` for missing edges.
        Use :mod:`repro.graph` to build one from a graph or a point cloud.
    request:
        A prebuilt :class:`SolveRequest`; keyword options override its fields.
    solver:
        ``"repeated-squaring"``, ``"fw-2d"``, ``"blocked-im"`` or
        ``"blocked-cb"`` (default; the paper's best performer), any alias,
        or any solver added through :func:`repro.core.registry.register_solver`.
    block_size:
        Decomposition parameter ``b``; chosen automatically when omitted.
    partitioner:
        ``"MD"`` (multi-diagonal, default), ``"PH"`` (portable hash) or ``"GRID"``.
    partitions_per_core / num_partitions:
        Over-decomposition factor ``B``, or an explicit partition count.
    algebra:
        Path algebra to close the matrix under (``"shortest-path"`` default;
        ``"widest-path"``, ``"most-reliable"``, ``"reachability"``, or any
        alias registered in :mod:`repro.linalg.algebra`).
    dtype:
        Element dtype for the solve (e.g. ``"float32"``); ``None`` selects
        the algebra's default.
    validate:
        Run structural sanity checks on the result.
    config:
        Engine configuration (executors, cores, backend, spill capacity).
    storage / layout / directed / paths / tag:
        The remaining :class:`SolveRequest` fields, documented there; an
        unknown name raises :class:`~repro.common.errors.ConfigurationError`
        listing the valid ones.

    Returns
    -------
    APSPResult
        The distance matrix plus iteration counts, timings and engine metrics.

    Example
    -------
    >>> from repro.graph import erdos_renyi_adjacency
    >>> adj = erdos_renyi_adjacency(64, seed=7)
    >>> result = solve_apsp(adj, solver="blocked-cb", block_size=16)
    >>> result.distances.shape
    (64, 64)
    """
    request = SolveRequest.coerce(request, **options)  # fail before any context starts
    with APSPEngine(config) as engine:
        return engine.solve(adjacency, request)
