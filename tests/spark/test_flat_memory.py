"""Flat memory: a long-lived engine holds what its live RDDs need, not its history.

A shuffle's buckets are freed by the finalizer of the ``ShuffledRDD`` that
wrote them, so after a solve returns no shuffle of it is held; the spill
accounting (the paper's Section 5.2 mechanism) keeps accumulating.  Stage
records are a bounded window while ``num_stages`` counts every stage.  The
cyclic garbage collector is disabled throughout: reference counting alone
must free a solve's shuffles.  Everything here counts objects (mostly
through ``engine.stats()``), not RSS, so it is deterministic.
"""

import gc
import threading

import numpy as np
import pytest

from repro import APSPEngine, SolveRequest
from repro.common.config import BACKENDS, EngineConfig
from repro.core.registry import solver_catalog
from repro.graph import erdos_renyi_adjacency
from repro.sequential import floyd_warshall_reference
from repro.spark.context import SparkContext
from repro.spark.metrics import STAGE_RECORDS_KEPT

N, B = 96, 32           # fw-2d runs N + 2 stages per solve: 3 solves overrun the window
SOLVES = 3


@pytest.fixture(autouse=True)
def no_cyclic_gc():
    """Run each test with only reference counting freeing objects."""
    was_enabled = gc.isenabled()
    gc.disable()
    yield
    if was_enabled:
        gc.enable()


def _engine(backend: str, speculation: bool = False) -> APSPEngine:
    """An engine on ``backend``; without speculation unless asked.

    A speculated attempt that lost its race keeps running, and so keeps its
    task and that task's RDDs, until it finishes (threads cannot be killed):
    whether one is still running when a solve returns is timing.  The
    per-solve counts therefore run without speculation, and
    :func:`test_speculated_losers_let_go_by_stop` covers it.
    """
    return APSPEngine(EngineConfig(backend=backend, num_executors=2, cores_per_executor=1,
                                   speculation=speculation))


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("solver", [info.name for info in solver_catalog()])
def test_no_shuffle_outlives_its_solve(solver, backend):
    adjacency = erdos_renyi_adjacency(N, seed=5)
    reference = floyd_warshall_reference(adjacency)
    request = SolveRequest(solver=solver, block_size=B)
    with _engine(backend) as engine:
        stages = 0
        for _ in range(SOLVES):
            result = engine.solve(adjacency, request)
            assert np.allclose(result.distances, reference)
            stages += result.metrics["num_stages"]
            stats = engine.stats()
            assert (stats["live_shuffles"], stats["live_shuffle_bytes"]) == (0, 0)
            assert stats["num_stages"] == stages
            assert len(engine.context.metrics.stages) == min(stages, STAGE_RECORDS_KEPT)
        # Releasing the buckets keeps the spill accounting.
        assert sum(stats["spilled_bytes_per_executor"].values()) == stats["shuffle_bytes"]


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_held_shuffle_survives_an_unrelated_solve(backend):
    with _engine(backend) as engine:
        pairs = [(key, float(key)) for key in range(40)]
        held = engine.context.parallelize(pairs, 3).partitionBy(4).cache()
        expected = sorted(held.collect())
        engine.solve(erdos_renyi_adjacency(N, seed=5),
                     SolveRequest(solver="blocked-im", block_size=B))
        assert engine.stats()["live_shuffles"] == 1
        assert engine.stats()["live_shuffle_bytes"] > 0
        held.unpersist()                    # the next read comes from the buckets
        assert sorted(held.collect()) == expected
        del held
        assert engine.stats()["live_shuffles"] == 0


@pytest.mark.parametrize("backend", ("threads", "processes"))     # serial never speculates
def test_speculated_losers_let_go_by_stop(backend):
    adjacency = erdos_renyi_adjacency(N, seed=5)
    with _engine(backend, speculation=True) as engine:
        metrics = engine.context.metrics
        for _ in range(SOLVES):
            engine.solve(adjacency, SolveRequest(solver="blocked-im", block_size=B))
    # stop() waits for every attempt still running, losers included.
    assert (metrics.live_shuffles, metrics.live_shuffle_bytes) == (0, 0)


def test_release_is_safe_inside_a_critical_section():
    # A shuffle whose RDD sits in a reference cycle is freed by the cyclic
    # collector, which runs at whatever allocation triggers it: possibly in a
    # thread that holds the metrics or shuffle-manager lock.
    with SparkContext(EngineConfig(backend="serial")) as sc:
        rdd = sc.parallelize([(key, key) for key in range(8)], 2).partitionBy(2)
        assert rdd.count() == 8
        rdd.cycle = rdd
        del rdd
        assert sc.metrics.live_shuffles == 1

        def collect_inside_locks():
            with sc.metrics._lock, sc.shuffle_manager._lock:
                gc.collect()
        collector = threading.Thread(target=collect_inside_locks, daemon=True)
        collector.start()
        collector.join(timeout=30)
        assert not collector.is_alive(), "release deadlocked inside a held lock"
        assert (sc.metrics.live_shuffles, sc.metrics.live_shuffle_bytes) == (0, 0)
