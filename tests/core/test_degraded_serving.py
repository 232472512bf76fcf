"""Transactional updates + degraded-mode serving tests.

``engine.update()`` is all-or-nothing: a batch runs on a private draft of the
cached :class:`ClosureState` and is published only once it has fully
succeeded.  When any part of it fails the draft is dropped — the closure
keeps the very arrays it had — and a bound :class:`RouteService` keeps
answering from the last published version, surfacing ``degraded`` /
``last_error`` / ``staleness`` through ``stats()`` until a later batch
succeeds.
"""

import numpy as np
import pytest

from repro.common.config import EngineConfig
from repro.common.errors import SolverError
from repro.core import dynamic
from repro.core.engine import APSPEngine
from repro.core.request import SolveRequest
from repro.graph.generators import erdos_renyi_adjacency

N = 40
REQUEST = SolveRequest(solver="blocked-cb", block_size=8)


def _engine():
    return APSPEngine(EngineConfig(backend="serial"))


@pytest.fixture
def adjacency():
    return erdos_renyi_adjacency(N, seed=9)


class _InjectedUpdateFailure(SolverError):
    pass


@pytest.fixture
def failing_incremental(monkeypatch):
    """Make the next incremental update blow up mid-apply (after writing)."""
    real = dynamic.apply_incremental
    state = {"arm": 0}

    def wrapper(closure, batch, **kwargs):
        if state["arm"] > 0:
            state["arm"] -= 1
            # Write first so the test proves isolation, not merely "no-op".
            closure.distances[0, :] = closure.algebra.zero
            raise _InjectedUpdateFailure("injected mid-update failure")
        return real(closure, batch, **kwargs)

    monkeypatch.setattr(dynamic, "apply_incremental", wrapper)
    return state


class TestTransactionalRollback:
    def test_failed_update_leaves_closure_untouched(self, adjacency,
                                                    failing_incremental):
        with _engine() as engine:
            engine.solve(adjacency, REQUEST, keep_closure=True)
            state = engine.closure
            before = np.array(state.distances, copy=True)
            distances_id = id(state.distances)
            failing_incremental["arm"] = 1
            with pytest.raises(_InjectedUpdateFailure):
                engine.update([(0, 5, 0.01)])
            assert np.array_equal(state.distances, before)
            assert id(state.distances) == distances_id  # binding preserved
            assert engine.stats()["updates"]["failed"] == 1
            assert engine.stats()["updates"]["batches"] == 0

    def test_update_still_works_after_rollback(self, adjacency,
                                               failing_incremental):
        with _engine() as engine:
            engine.solve(adjacency, REQUEST, keep_closure=True)
            failing_incremental["arm"] = 1
            with pytest.raises(_InjectedUpdateFailure):
                engine.update([(0, 5, 0.01)])
            report = engine.update([(0, 5, 0.01)])
            assert report.mode == "incremental"
            assert engine.closure.distances[0, 5] == pytest.approx(0.01)

    def test_failed_batch_leaves_published_arrays_untouched(
            self, adjacency, failing_incremental):
        with _engine() as engine:
            engine.solve(adjacency, SolveRequest(solver="blocked-cb",
                                                 block_size=8, paths=True),
                         keep_closure=True)
            state = engine.closure
            published = {"distances": state.distances,
                         "parents": state.parents,
                         "adjacency": state.adjacency}
            before = {name: array.copy() for name, array in published.items()}
            failing_incremental["arm"] = 1
            with pytest.raises(_InjectedUpdateFailure):
                engine.update([(0, 5, 0.01)])
            for name, array in published.items():
                assert getattr(state, name) is array, name
                assert np.array_equal(array, before[name]), name
            assert state.updates_applied == 0


class TestDegradedServing:
    def test_failed_update_degrades_but_keeps_serving(self, adjacency,
                                                      failing_incremental):
        with _engine() as engine:
            service = engine.serve(adjacency, REQUEST)
            reach = [d for d in range(1, N)
                     if np.isfinite(service.distances[0, d])]
            clean_answer = service.route(0, reach[0])
            failing_incremental["arm"] = 1
            with pytest.raises(_InjectedUpdateFailure):
                engine.update([(0, 5, 0.01)])
            serve_stats = engine.stats()["serve"]
            assert serve_stats["degraded"] is True
            assert "_InjectedUpdateFailure" in serve_stats["last_error"]
            assert serve_stats["staleness"]["missed_update_batches"] == 1
            assert serve_stats["staleness"]["degraded_seconds"] >= 0.0
            # Still serving the last good closure, bit-identically.
            again = service.route(0, reach[0])
            assert again.distance == clean_answer.distance
            assert again.path == clean_answer.path

    def test_successful_update_clears_degradation(self, adjacency,
                                                  failing_incremental):
        with _engine() as engine:
            service = engine.serve(adjacency, REQUEST)
            failing_incremental["arm"] = 1
            with pytest.raises(_InjectedUpdateFailure):
                engine.update([(0, 5, 0.01)])
            assert service.stats()["degraded"] is True
            engine.update([(0, 5, 0.01)])
            stats = service.stats()
            assert stats["degraded"] is False
            assert stats["last_error"] is None
            assert stats["staleness"]["missed_update_batches"] == 0
            assert service.route(0, 5).distance == pytest.approx(0.01)

    def test_repeated_failures_accumulate_staleness(self, adjacency,
                                                    failing_incremental):
        with _engine() as engine:
            service = engine.serve(adjacency, REQUEST)
            failing_incremental["arm"] = 2
            for _ in range(2):
                with pytest.raises(_InjectedUpdateFailure):
                    engine.update([(0, 5, 0.01)])
            stats = service.stats()
            assert stats["staleness"]["missed_update_batches"] == 2
            assert engine.stats()["updates"]["failed"] == 2

    def test_healthy_service_reports_not_degraded(self, adjacency):
        with _engine() as engine:
            service = engine.serve(adjacency, REQUEST)
            stats = service.stats()
            assert stats["degraded"] is False
            assert stats["last_error"] is None
            assert stats["staleness"]["missed_update_batches"] == 0
            assert stats["staleness"]["degraded_seconds"] == 0.0

    def test_real_fault_during_forced_resolve_degrades(self, adjacency):
        """End-to-end: injected task faults exhaust retries mid-re-solve."""
        from repro.common.retry import BackoffPolicy
        from repro.spark.faults import FaultPlan

        # First, count the tasks a clean serve-solve launches, so the fault
        # can be aimed at the *resolve* (the update path), not the solve.
        with _engine() as probe:
            probe.serve(adjacency, REQUEST)
            clean_tasks = probe.metrics["tasks_launched"]
        config = EngineConfig(backend="serial",
                              retry=BackoffPolicy(max_attempts=1,
                                                  base_seconds=0.0,
                                                  jitter=0.0, seed=1))
        plan = FaultPlan(fail_task_indices={clean_tasks})
        with APSPEngine(config, fault_plan=plan) as engine:
            service = engine.serve(adjacency, REQUEST)
            before = np.array(service.distances, copy=True)
            with pytest.raises(SolverError):
                engine.update([(0, 5, 0.01)], force="resolve")
            assert service.stats()["degraded"] is True
            assert np.array_equal(service.distances, before)
            # Recovery: the next (incremental) batch succeeds and heals.
            engine.update([(0, 5, 0.01)])
            assert service.stats()["degraded"] is False


class TestCsrRollback:
    """A failed batch leaves a CSR-ingested closure on the *identical* CSR.

    Edits rebind the draft's adjacency to new CSR objects and never write the
    old one, so the draft holds it by reference and a degraded service —
    which was never handed the half-applied versions — keeps reading it.
    """

    BATCH = [(0, 5, 0.01), (3, 17, 0.02)]

    @pytest.fixture
    def csr(self, adjacency):
        import scipy.sparse as sp
        rows, cols = np.nonzero(np.isfinite(adjacency)
                                & ~np.eye(N, dtype=bool))
        return sp.csr_matrix((adjacency[rows, cols], (rows, cols)),
                             shape=adjacency.shape)

    def assert_rolled_back(self, engine, service, pre_batch, before, answers):
        state = engine.closure
        assert state.adjacency is pre_batch and service.adjacency is pre_batch
        assert (pre_batch != before["adjacency"]).nnz == 0  # never written
        assert np.array_equal(state.distances, before["distances"])
        assert service.stats()["degraded"] is True
        for (src, dst), clean in answers.items():
            again = service.route(src, dst)
            assert (again.distance, again.path) == (clean.distance, clean.path)
        # A cold source solves its row against the last published adjacency.
        cold = service.route(N - 1, 0)
        assert cold.cached is False or cold.path is None

    def serve(self, engine, csr):
        service = engine.serve(csr, REQUEST)
        pre_batch = engine.closure.adjacency
        before = {"adjacency": pre_batch.copy(),
                  "distances": service.distances.copy()}
        answers = {(0, dst): service.route(0, dst) for dst in (5, 9, 17)}
        return service, pre_batch, before, answers

    def test_failure_mid_sweep(self, csr, monkeypatch):
        real = dynamic._improve_sweep
        calls = []

        def second_sweep_fails(state, u, v, weight):
            calls.append(state.adjacency)
            if len(calls) == 2:
                raise _InjectedUpdateFailure("injected mid-sweep failure")
            return real(state, u, v, weight)

        monkeypatch.setattr(dynamic, "_improve_sweep", second_sweep_fails)
        with _engine() as engine:
            service, pre_batch, before, answers = self.serve(engine, csr)
            with pytest.raises(_InjectedUpdateFailure):
                engine.update(self.BATCH)
            # The batch really was half applied: two edited CSR versions.
            assert calls[0] is not pre_batch and calls[1] is not calls[0]
            self.assert_rolled_back(engine, service, pre_batch, before, answers)
            monkeypatch.setattr(dynamic, "_improve_sweep", real)
            engine.update(self.BATCH)
            assert service.stats()["degraded"] is False
            assert engine.closure.adjacency is service.adjacency
            assert service.adjacency is not pre_batch
            assert service.route(0, 5).distance == pytest.approx(0.01)

    def test_failure_inside_the_resolve(self, csr, monkeypatch):
        def adoption_fails(draft, result):
            draft.distances[0, :] = draft.algebra.zero
            raise _InjectedUpdateFailure("injected re-solve failure")

        monkeypatch.setattr(dynamic.ClosureState, "adopt", adoption_fails)
        with _engine() as engine:
            service, pre_batch, before, answers = self.serve(engine, csr)
            with pytest.raises(_InjectedUpdateFailure):
                engine.update(self.BATCH, force="resolve")
            self.assert_rolled_back(engine, service, pre_batch, before, answers)
