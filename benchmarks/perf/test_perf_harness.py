"""Tier-1 checks of the perf harness itself, at ``--smoke`` scale (n=64).

They guard the benchmark's contract, not the program's speed: the metric names
printed equal ``BENCHMARK.json``'s, a raising solve and a wrong answer both
land in ``failed`` instead of crashing or passing, peak RSS is sampled before
any oracle runs, and the fast oracles agree with the plain k-loop closure.
"""

from __future__ import annotations

import json
import re
from types import SimpleNamespace

import numpy as np
import pytest

import compare
import inputs
import run
from repro import APSPEngine
from spans import Tracer

BENCH = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(autouse=True)
def one_setup(monkeypatch):
    """One set-up per run keeps the whole module under five seconds."""
    monkeypatch.setattr(run, "SETUP_REPS", 1)


def smoke(workload, tmp_path, **kwargs):
    return run.run_workload(workload, seconds=0, sizes=run.SMOKE,
                            workdir=tmp_path / workload, **kwargs)


def test_benchmark_json_is_well_formed():
    assert [w["name"] for w in BENCH["workloads"]] == list(run.WORKLOADS)
    assert BENCH["paths"] == ["benchmarks/perf"]
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    names = [m["name"] for m in metrics] + list(run.WORKLOADS)
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(n) for n in names)
    assert all(m["unit"] and m["better"] in ("higher", "lower") for m in metrics)
    assert all(0 < m["bound"] <= 0.25 for m in BENCH["end_to_end"])
    assert any(m["name"] == "setup_s" for m in BENCH["end_to_end"])


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_prints_the_end_to_end_metrics(workload, tmp_path):
    result = smoke(workload, tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_prints_the_per_layer_metrics(tmp_path):
    result = smoke("pipeline", tmp_path, trace=True)
    assert result["correct"]
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == expected
    dumped = json.loads((tmp_path / "trace-pipeline.json").read_text())
    # Self times are span minus covered children, so they sum to the wall.
    assert sum(dumped["self_s"].values()) == pytest.approx(dumped["wall_s"], rel=0.05)
    ops = {s["op"] for s in dumped["spans"] if s["name"] == "service.route"}
    assert len(ops) == 2 * run.SMOKE.queries


def _solve_calls(monkeypatch, tamper):
    """Route every ``APSPEngine.solve`` through ``tamper(call_no, result)``."""
    real = APSPEngine.solve
    calls = []

    def solve(self, *args, **kwargs):
        calls.append(None)
        return tamper(len(calls), lambda: real(self, *args, **kwargs))

    monkeypatch.setattr(APSPEngine, "solve", solve)


def test_a_raising_solve_is_a_failed_op(monkeypatch, tmp_path):
    def tamper(call, solve):
        if call == 2:   # call 1 is the pool warm-up; 2 is the first timed solve
            raise RuntimeError("injected")
        return solve()

    _solve_calls(monkeypatch, tamper)
    result = smoke("dense-cb", tmp_path)
    assert (result["attempted"], result["failed"]) == (4, 1)
    assert result["correct"] is False
    assert set(result["metrics"]) == {m["name"] for m in BENCH["end_to_end"]}


def test_a_wrong_answer_is_a_failed_op(monkeypatch, tmp_path):
    def tamper(call, solve):
        result = solve()
        if call == 2:
            result.distances[0, 1] += 1.0
        return result

    _solve_calls(monkeypatch, tamper)
    result = smoke("dense-cb", tmp_path)
    assert (result["attempted"], result["failed"]) == (4, 1)
    assert result["correct"] is False


def test_an_update_that_raised_is_not_failed_again_by_its_closure():
    rng = inputs.rng_for(3, 0)
    graph = inputs.GeometricGraph(32, rng)
    improving = inputs.improving_batches(graph, rng, 2, run.BATCH_EDGES)
    ctx = SimpleNamespace(
        sizes=SimpleNamespace(queries=0), graph=graph, queries=[],
        improving=improving,
        deletion=inputs.deletion_batch(graph, improving, run.BATCH_EDGES))
    stale = inputs.oracle_shortest(graph.dense())   # no update was applied

    def wrong(covers):
        return run.PipelineEvidence([stale] * 3, covers, [], []).count_wrong(ctx)

    assert wrong([1, 0, 0]) == 0    # all three updates raised: counted by op()
    assert wrong([1, 2, 1]) == 3    # they returned, and left the closure stale


def test_peak_rss_is_sampled_after_two_passes_and_before_the_oracles(
        monkeypatch, tmp_path):
    order = []
    real_pass, real_rss, real_verify = run.run_pass, run.peak_rss_mib, run.Recorder.verify
    monkeypatch.setattr(run, "run_pass",
                        lambda *a: order.append("pass") or real_pass(*a))
    monkeypatch.setattr(run, "peak_rss_mib",
                        lambda: order.append("rss") or real_rss())
    monkeypatch.setattr(run.Recorder, "verify",
                        lambda self: order.append("verify") or real_verify(self))
    # Long enough for more than two smoke passes: the sample point must not move.
    run.run_workload("dense-cb", seconds=0.3, sizes=run.SMOKE, workdir=tmp_path)
    assert order[:4] == ["pass", "pass", "rss", "pass"]
    assert order.count("rss") == 1 and order[-1] == "verify"


def test_fast_oracles_agree_with_the_k_loop():
    adj = inputs.erdos_renyi(48, inputs.rng_for(7, 0))
    wide = inputs.closure_loop(adj, np.maximum, np.minimum, 0.0, np.inf)
    assert np.array_equal(inputs.oracle_widest(adj), wide)
    reach = inputs.closure_loop(np.where(np.isfinite(adj), 1.0, np.inf),
                                np.maximum, np.minimum, 0.0, 1.0) > 0
    assert np.array_equal(inputs.oracle_reachable(adj), reach)
    short = inputs.closure_loop(adj, np.minimum, np.add, np.inf, 0.0)
    assert inputs.same_closure(inputs.oracle_shortest(adj), short)


def test_tracer_self_times_sum_to_the_wall():
    tracer = Tracer()
    with tracer.span("root", "harness"):
        with tracer.span("a", "core", new_op=True):
            with tracer.span("b", "serve"):
                pass
        with tracer.span("c", "core", new_op=True):
            pass
    assert sum(tracer.self_times().values()) == pytest.approx(tracer.wall())
    assert [s["op"] for s in tracer.spans] == [0, 1, 1, 2]
    assert Tracer(enabled=False).span("x", "core") is Tracer(enabled=False).span("y", "core")


@pytest.mark.parametrize("spreads, worse, expected", [
    ([0.02, 0.03], 0.05, "agree"),
    ([0.02, 0.03], -0.40, "agree"),         # better, by any amount
    ([0.02, 0.03], 0.11, "DISAGREE"),
    ([0.02, 0.12], 0.01, "unresolved"),     # never "unchanged" through noise
    ([0.12, 0.02], 0.30, "unresolved"),
])
def test_compare_verdicts(spreads, worse, expected):
    assert compare.verdict(spreads, worse, bound=0.10) == expected


def test_compare_spread_and_worse_by():
    steady, noisy = [1.0, 1.01, 0.99, 1.0], [1.0, 1.6, 0.7, 1.0]
    assert compare.spread(steady) < 0.25 < compare.spread(noisy)
    assert compare.verdict([compare.spread(noisy)], 0.0, 0.25) == "unresolved"
    assert compare.worse_by(2.0, 2.5, "lower") == pytest.approx(0.25)
    assert compare.worse_by(2.0, 2.5, "higher") == pytest.approx(-0.25)
