"""Recompute guard: no solver computes a partition twice, fw-2d least of all.

Every RDD partition a solve needs is computed on the driver at most once —
lineage replay (an un-persisted RDD read by two jobs) is the one way a pure
solver can silently do a multiple of its work.  For fw-2d the test also pins
the paper's per-pivot cost (Algorithm 2): one rank-1 update per stored block
per pivot, ``n + 2`` stages (``n`` extract jobs, the closing ``count()``, the
gather), and a closure bit-identical to the sequential Floyd-Warshall
oracle, with valid parents under ``paths=True``, on every algebra x payload
x layout it supports.
"""

from collections import Counter

import numpy as np
import pytest

from parent_checks import assert_valid_parents
from repro import APSPEngine, SolveRequest
from repro.common.config import EngineConfig
from repro.core import building_blocks as bb
from repro.core.registry import solver_catalog
from repro.graph.generators import graph_for_algebra
from repro.linalg.algebra import get_algebra
from repro.linalg.kernels import semiring_closure
from repro.spark import rdd as rdd_mod

N, B = 27, 8            # q = 4 with a ragged last block (27 = 3 * 8 + 3)
SEED = 11


def _cells():
    """(solver, algebra, layout, payload): fw-2d's whole grid, the rest once."""
    for info in solver_catalog():
        if info.name != "fw-2d":
            for layout in info.layouts:
                yield info.name, "shortest-path", layout, "dense"
            continue
        for name in info.algebras:
            algebra = get_algebra(name)
            payloads = ["dense"] + ["packed"] * ("packed" in algebra.storages) \
                + ["paths"] * algebra.supports_witness
            for layout in algebra.layouts:
                for payload in payloads:
                    yield info.name, name, layout, payload


@pytest.fixture(scope="module", params=("serial", "threads", "processes"))
def engine(request):
    config = EngineConfig(backend=request.param, num_executors=2,
                          cores_per_executor=2)
    with APSPEngine(config) as eng:
        yield eng


@pytest.fixture
def computed(monkeypatch):
    """Log of every driver-side ``compute_partition`` as ``(rdd.id, index)``."""
    log = []
    for cls in (rdd_mod.ParallelCollectionRDD, rdd_mod.MapPartitionsRDD,
                rdd_mod.UnionRDD, rdd_mod.ShuffledRDD):
        def compute_partition(self, index, _original=cls.compute_partition):
            log.append((self.id, index))    # list.append is atomic under threads
            return _original(self, index)
        monkeypatch.setattr(cls, "compute_partition", compute_partition)
    return log


@pytest.fixture
def rank1_calls(monkeypatch):
    """Log of the driver-side rank-1 kernel calls of the fw-2d update callables."""
    log = []

    def fw_rank1_update(*args, _original=bb.fw_rank1_update, **kwargs):
        log.append(1)
        return _original(*args, **kwargs)
    monkeypatch.setattr(bb, "fw_rank1_update", fw_rank1_update)
    return log


@pytest.mark.parametrize("solver,algebra,layout,payload", list(_cells()))
def test_each_partition_is_computed_once(engine, computed, rank1_calls,
                                         solver, algebra, layout, payload):
    adjacency = graph_for_algebra(N, SEED, algebra, directed=(layout == "full"))
    request = SolveRequest(
        solver=solver, block_size=B, algebra=algebra, layout=layout,
        paths=(payload == "paths"),
        storage="packed" if payload == "packed" else "dense")
    result = engine.solve(adjacency, request)

    repeated = {key: times for key, times in Counter(computed).items() if times > 1}
    assert not repeated, f"partitions computed more than once: {repeated}"

    reference = semiring_closure(adjacency, algebra)
    if solver != "fw-2d":
        assert get_algebra(algebra).allclose(result.distances, reference)
        return

    # fw-2d runs the sequential pivot order, so nothing is rounded differently.
    assert result.distances.dtype == reference.dtype
    assert np.array_equal(result.distances, reference)
    if payload == "paths":
        assert_valid_parents(result.parents, result.distances,
                             get_algebra(algebra).prepare_adjacency(adjacency),
                             algebra)

    stored = result.q * (result.q + 1) // 2 if layout == "triangular" else result.q ** 2
    # On `processes` the last generation is computed by the closing count(),
    # whose map tasks run in the workers; the n - 1 before it are computed on
    # the driver, while it builds the next extract job's payloads.
    driver_pivots = N - 1 if engine.config.backend == "processes" else N
    assert len(rank1_calls) == driver_pivots * stored
    assert result.metrics["num_stages"] == N + 2
