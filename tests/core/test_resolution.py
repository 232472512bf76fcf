"""One resolved solve: plan, result and tuner cannot disagree.

Every consumer of a :class:`~repro.core.request.SolveRequest` — the
planner, the executed result and the auto-tuner's decision — goes through
:func:`repro.core.base.resolve_plan`.  This module states that as a
property over the registries: every registered solver (plus ``"auto"``) ×
requested layout × input form × block size × partition count, on tiny,
ragged and multi-block problem sizes.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.common.config import EngineConfig
from repro.core.engine import APSPEngine
from repro.core.registry import available_solvers
from repro.core.request import SolveRequest
from repro.graph.adjacency import is_symmetric_adjacency
from repro.graph.generators import (directed_erdos_renyi_adjacency,
                                    erdos_renyi_adjacency)
from repro.linalg.blocks import BlockGrid, num_blocks

CONFIG = EngineConfig(backend="serial", num_executors=2, cores_per_executor=2)


@pytest.fixture(scope="module")
def engine():
    with APSPEngine(CONFIG) as session:
        yield session


def geometry(record) -> tuple:
    """What a plan, a result and a decision must agree on."""
    return (record.solver, record.n, record.block_size, record.storage,
            record.layout)


@pytest.mark.parametrize("num_partitions", [None, 3])
@pytest.mark.parametrize("block_size", [None, 8, 64])
@pytest.mark.parametrize("sparse", [False, True], ids=["dense", "csr"])
@pytest.mark.parametrize("layout,symmetric", [
    ("triangular", True), ("full", False), ("auto", True), ("auto", False)])
@pytest.mark.parametrize("n", [1, 7, 27])
@pytest.mark.parametrize("solver", [*available_solvers(), "auto"])
def test_plan_result_fit_and_tuner_agree(engine, solver, n, layout, symmetric,
                                         sparse, block_size, num_partitions):
    dense = (erdos_renyi_adjacency(n, p=0.4, seed=n) if symmetric
             else directed_erdos_renyi_adjacency(n, p=0.4, seed=n))
    adjacency = dense
    if sparse:
        edges = np.isfinite(dense) & ~np.eye(n, dtype=bool)
        adjacency = sp.csr_matrix(np.where(edges, dense, 0.0))
    request = SolveRequest(solver=solver, layout=layout, block_size=block_size,
                           num_partitions=num_partitions)

    plan = engine.plan(adjacency, request)
    result = engine.solve(adjacency, request)

    # The resolved request is concrete, and the geometry is the documented one.
    expected_layout = layout if layout != "auto" else (
        "triangular" if is_symmetric_adjacency(dense) else "full")
    assert plan.request.solver in available_solvers()
    assert plan.layout == expected_layout and plan.storage == "dense"
    assert 1 <= plan.block_size <= n
    if block_size is not None:
        assert plan.block_size == min(block_size, n)
    assert plan.q == num_blocks(n, plan.block_size)
    assert plan.grid == BlockGrid(plan.q, expected_layout)
    assert plan.num_partitions == (num_partitions or CONFIG.total_cores * 2)
    assert plan.describe()["num_blocks_stored"] == plan.grid.count
    assert plan.sparse_input is sparse

    # plan == result (== the tuner's decision for an auto request).
    assert geometry(result) == geometry(plan)
    assert (result.q, result.num_partitions) == (plan.q, plan.num_partitions)
    assert result.request == plan.request
    if solver == "auto":
        decision = engine.stats()["tuner"]["last"]
        assert decision == result.metrics["tuner"]
        assert (decision["solver"], decision["n"], decision["block_size"],
                decision["storage"], decision["layout"]) == geometry(plan)

