"""The layer ladder: per-layer probes timed from outside, around public calls.

Runs only in the traced run and is the same on every workload (fixed ladder
sizes, not the workload's), so four traced runs give four readings of each
number.  Every entry warms up, repeats, and reports median/min/max/count.
Gop/s figures and byte counts are *computed* from shapes (b³ or b² operations,
array ``nbytes``), not measured by hardware counters.

The layers are the program's packages: ``linalg`` (block kernels), ``spark``
(scheduler, shuffle, shared fs, IPC), ``graph`` (ingest), ``core`` (solvers,
planner, tuner, dynamic updates), ``serve`` (route queries), ``cluster`` (cost
model) and ``sequential`` (the single-threaded reference run).
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse

import inputs
from repro import APSPEngine, SolveRequest
from repro.graph import load_graph, sparse_to_blocks, validate_adjacency
from repro.linalg import (PackedBlock, blocked_floyd_warshall_inplace,
                          blocks_to_matrix, floyd_warshall_inplace,
                          floyd_warshall_scipy, fw_rank1_update,
                          matrix_to_blocks, packed_product, semiring_product)
from repro.linalg.witness import witness_block
from repro.spark import SharedFileSystem


@dataclass(frozen=True)
class LadderSizes:
    """Fixed sizes of the ladder (``SMOKE`` shrinks them for the tier-1 test)."""

    block: int = 128        # kernel block side b
    fw_n: int = 768         # linalg.blocked_fw_s
    split_n: int = 1536     # linalg.split_s / assemble_s
    shuffle_q: int = 16     # spark.shuffle_mbps: q(q+1)/2 blocks of side 64
    probe_n: int = 768      # front-door probe graph (the pipeline's shape)
    pure_n: tuple[int, int] = (256, 512)   # fw-2d n, blocked-im n
    pure_b: tuple[int, int] = (64, 32)
    variant_n: int = 512    # core.variant.*
    mtx_entries: int = 200_000
    queries: int = 500
    reps: int = 10          # repeats of a sub-50 ms call
    slow_reps: int = 3      # repeats of a call between 50 ms and 0.5 s
    solve_reps: int = 2     # repeats of an engine solve (0.3-1 s each)


FULL = LadderSizes()
SMOKE = LadderSizes(block=16, fw_n=64, split_n=64, shuffle_q=4, probe_n=64,
                    pure_n=(32, 64), pure_b=(16, 16), variant_n=64,
                    mtx_entries=2000, queries=40, reps=2, slow_reps=1,
                    solve_reps=1)


@dataclass(frozen=True)
class Stat:
    """Median/min/max/count of one ladder entry, in ``unit``."""

    value: float
    unit: str
    low: float
    high: float
    count: int

    @classmethod
    def of(cls, value: float, unit: str) -> "Stat":
        """A single reading (a count, a ratio of two medians, a total)."""
        return cls(float(value), unit, float(value), float(value), 1)


def timed(fn, *, reps: int, warmups: int = 1, before=None) -> list[float]:
    """Seconds of ``reps`` calls after ``warmups``; ``before()`` builds the
    argument of each call outside the timed region (in-place kernels)."""
    out = []
    for i in range(warmups + reps):
        args = () if before is None else (before(),)
        start = time.perf_counter()
        fn(*args)
        if i >= warmups:
            out.append(time.perf_counter() - start)
    return out


def stat(samples, unit: str, convert=lambda s: s) -> Stat:
    """Summarise seconds samples, after ``convert`` (e.g. to a rate)."""
    values = [convert(s) for s in samples]
    return Stat(statistics.median(values), unit, min(values), max(values),
                len(values))


def run_ladder(serial: APSPEngine, par: APSPEngine, workdir: str, seed: int,
               sizes: LadderSizes = FULL) -> dict[str, Stat]:
    """Measure every ladder entry; returns ``{metric name: Stat}``."""
    out: dict[str, Stat] = {}
    out.update(_linalg(seed, sizes))
    out.update(_spark(serial, par, workdir, seed, sizes))
    out.update(_graph(workdir, seed, sizes))
    out.update(_solvers(serial, par, seed, sizes))
    out.update(_front_door(serial, workdir, seed, sizes))
    return out


# ---------------------------------------------------------------------------
# linalg
# ---------------------------------------------------------------------------
def _linalg(seed: int, sizes: LadderSizes) -> dict[str, Stat]:
    rng = inputs.rng_for(seed, 100)
    b = sizes.block
    cube, square = float(b) ** 3, float(b) ** 2
    x, y = rng.uniform(1.0, 10.0, (2, b, b))
    np.fill_diagonal(x, 0.0)
    x32, y32 = x.astype(np.float32), y.astype(np.float32)
    col, row = x[:, 0].copy(), y[0, :].copy()
    wx = witness_block(x, 0, 0, "shortest-path")
    wy = witness_block(y, 0, b, "shortest-path")
    px = PackedBlock.from_dense(rng.random((b, b)) < 0.5)
    py = PackedBlock.from_dense(rng.random((b, b)) < 0.5)

    def gops(ops):
        return lambda s: ops / s / 1e9

    reps = sizes.reps
    out = {
        "linalg.product_f64_gops": stat(
            timed(lambda: semiring_product(x, y), reps=reps), "Gop/s", gops(cube)),
        "linalg.product_f32_gops": stat(
            timed(lambda: semiring_product(x32, y32, "widest-path"), reps=reps),
            "Gop/s", gops(cube)),
        "linalg.fw_gops": stat(
            timed(floyd_warshall_inplace, reps=reps, before=x.copy),
            "Gop/s", gops(cube)),
        "linalg.rank1_gops": stat(
            timed(lambda: fw_rank1_update(x, col, row), reps=reps * 3),
            "Gop/s", gops(square)),
        "linalg.witness_product_gops": stat(
            timed(lambda: semiring_product(wx, wy, "shortest-path"), reps=reps),
            "Gop/s", gops(cube)),
        "linalg.packed_product_gops": stat(
            timed(lambda: packed_product(px, py), reps=reps), "Gop/s", gops(cube)),
    }
    dense = inputs.erdos_renyi(sizes.fw_n, rng)
    out["linalg.blocked_fw_s"] = stat(
        timed(lambda m: blocked_floyd_warshall_inplace(m, b),
              reps=sizes.solve_reps, warmups=0, before=dense.copy), "s")
    big = inputs.erdos_renyi(sizes.split_n, rng)
    out["linalg.split_s"] = stat(
        timed(lambda: list(matrix_to_blocks(big, b)), reps=sizes.slow_reps), "s")
    blocks = list(matrix_to_blocks(big, b))
    out["linalg.assemble_s"] = stat(
        timed(lambda: blocks_to_matrix(blocks, sizes.split_n, b),
              reps=sizes.slow_reps), "s")
    return out


# ---------------------------------------------------------------------------
# spark
# ---------------------------------------------------------------------------
def _spark(serial: APSPEngine, par: APSPEngine, workdir: str, seed: int,
           sizes: LadderSizes) -> dict[str, Stat]:
    rng = inputs.rng_for(seed, 101)
    out = {}
    for name, engine in (("spark.stage_overhead_ms", serial),
                         ("spark.stage_overhead_par_ms", par)):
        sc = engine.context
        rdd = sc.parallelize(list(range(64)), 4)
        stages = []

        def one_job():
            before = sc.metrics.as_dict()["num_stages"]
            rdd.map(abs).count()
            stages.append(sc.metrics.as_dict()["num_stages"] - before)

        samples = timed(one_job, reps=sizes.reps * 3, warmups=3)
        per_stage = max(1, stages[-1])
        out[name] = stat(samples, "ms", lambda s: s / per_stage * 1e3)

    q = sizes.shuffle_q
    half = max(1, sizes.block // 2)
    records = [((i, j), rng.random((half, half)))
               for i in range(q) for j in range(i, q)]
    nbytes = sum(block.nbytes for _, block in records)
    sc = serial.context
    out["spark.shuffle_mbps"] = stat(
        timed(lambda: sc.parallelize(records, 8).partitionBy(4).count(),
              reps=sizes.reps), "MB/s", lambda s: nbytes / s / 1e6)
    pc = par.context
    out["spark.ipc_mbps"] = stat(
        timed(lambda: pc.parallelize(records, 4).mapPartitions(list).collect(),
              reps=sizes.reps, warmups=2),
        "MB/s", lambda s: 2 * nbytes / s / 1e6)

    fs = SharedFileSystem(os.path.join(workdir, "ladder-sharedfs"))
    block = rng.random((sizes.block, sizes.block))
    try:
        out["spark.sharedfs_write_mbps"] = stat(
            timed(lambda: fs.write("probe", block), reps=sizes.reps * 3),
            "MB/s", lambda s: block.nbytes / s / 1e6)
        out["spark.sharedfs_read_mbps"] = stat(
            timed(lambda: fs.read("probe"), reps=sizes.reps * 3),
            "MB/s", lambda s: block.nbytes / s / 1e6)
    finally:
        fs.close(remove_root=True)
    return out


# ---------------------------------------------------------------------------
# graph
# ---------------------------------------------------------------------------
def _graph(workdir: str, seed: int, sizes: LadderSizes) -> dict[str, Stat]:
    graph = inputs.GeometricGraph(sizes.probe_n, inputs.rng_for(seed, 102))
    mtx = os.path.join(workdir, "ladder.mtx")
    npz = os.path.join(workdir, "ladder.npz")
    inputs.write_mtx(mtx, graph.n, graph.u, graph.v, graph.w,
                     repeat=max(1, sizes.mtx_entries // max(1, graph.u.size)))
    csr = load_graph(mtx).adjacency
    scipy.sparse.save_npz(npz, csr)
    dense = graph.dense()
    return {
        "graph.validate_s": stat(
            timed(lambda: validate_adjacency(dense, require_symmetric=True),
                  reps=sizes.reps), "s"),
        "graph.load_mtx_s": stat(
            timed(lambda: load_graph(mtx), reps=sizes.solve_reps, warmups=0), "s"),
        "graph.load_npz_s": stat(
            timed(lambda: load_graph(npz), reps=sizes.reps), "s"),
        "graph.sparse_to_blocks_s": stat(
            timed(lambda: list(sparse_to_blocks(csr, sizes.block)),
                  reps=sizes.reps), "s"),
    }


# ---------------------------------------------------------------------------
# core: solvers and payload variants at ladder scale
# ---------------------------------------------------------------------------
def variant_requests(block: int) -> dict[str, SolveRequest]:
    """The four payload variants of ``payload-mix`` (shared with run.py)."""
    base = dict(solver="blocked-cb", block_size=block)
    return {
        "f32": SolveRequest(algebra="widest-path", dtype="float32", **base),
        "witness": SolveRequest(paths=True, **base),
        "directed-full": SolveRequest(directed=True, layout="full", **base),
        "packed": SolveRequest(algebra="reachability", storage="packed", **base),
    }


def _solvers(serial: APSPEngine, par: APSPEngine, seed: int,
             sizes: LadderSizes) -> dict[str, Stat]:
    rng = inputs.rng_for(seed, 103)
    out = {}
    for solver, n, b in zip(("fw-2d", "blocked-im"), sizes.pure_n, sizes.pure_b):
        adj = inputs.erdos_renyi(n, rng)
        request = SolveRequest(solver=solver, block_size=b)
        for suffix, engine in (("", serial), ("_par", par)):
            out[f"core.solve_{solver}{suffix}_s"] = stat(
                timed(lambda: engine.solve(adj, request),
                      reps=sizes.solve_reps, warmups=0), "s")
    undirected = inputs.erdos_renyi(sizes.variant_n, rng)
    directed = inputs.erdos_renyi(sizes.variant_n, rng, directed=True)
    for name, request in variant_requests(sizes.block).items():
        adj = directed if request.directed else undirected
        out[f"core.variant.{name}_s"] = stat(
            timed(lambda: serial.solve(adj, request),
                  reps=sizes.solve_reps, warmups=0), "s")
    return out


# ---------------------------------------------------------------------------
# core / serve / cluster / sequential: the front door on the probe graph
# ---------------------------------------------------------------------------
def _front_door(serial: APSPEngine, workdir: str, seed: int,
                sizes: LadderSizes) -> dict[str, Stat]:
    rng = inputs.rng_for(seed, 104)
    graph = inputs.GeometricGraph(sizes.probe_n, rng)
    csr = scipy.sparse.csr_matrix(
        (np.concatenate([graph.w, graph.w]),
         (np.concatenate([graph.u, graph.v]), np.concatenate([graph.v, graph.u]))),
        shape=(graph.n, graph.n))
    out = {
        "core.plan_ms": stat(
            timed(lambda: serial.plan(csr, SolveRequest()), reps=sizes.reps),
            "ms", lambda s: s * 1e3),
        "core.auto_plan_ms": stat(
            timed(lambda: serial.plan(csr, SolveRequest(solver="auto")),
                  reps=sizes.reps), "ms", lambda s: s * 1e3),
        "sequential.fw_t1_s": stat(
            timed(lambda: floyd_warshall_scipy(graph.dense()),
                  reps=sizes.solve_reps, warmups=0), "s"),
    }

    # Default request with a kept closure: the update ladder runs against it.
    default_s = timed(
        lambda: serial.solve(csr, SolveRequest(), keep_closure=True),
        reps=sizes.solve_reps, warmups=0)
    out["core.default_solve_s"] = stat(default_s, "s")
    out["core.t1_over_solve"] = Stat.of(out["sequential.fw_t1_s"].value / out["core.default_solve_s"].value, "ratio")
    batches = inputs.improving_batches(graph, rng, 5, 4)
    improve = [serial.update(batch).seconds for batch in batches[:4]]
    out["core.update_improve_s"] = stat(improve, "s")
    out["core.update_resolve_s"] = stat(
        [serial.update(batches[4], force="resolve").seconds], "s")
    out["core.update_worsen_s"] = stat(
        [serial.update(inputs.deletion_batch(graph, batches, 4)).seconds], "s")

    # solver="auto" through serve(): tuner prediction, then the query ladder.
    start = time.perf_counter()
    service = serial.serve(csr, SolveRequest(solver="auto"), max_rows=64,
                           keep_result=True)
    auto_s = time.perf_counter() - start
    predicted = service.closure_result.metrics["tuner"]["predicted_seconds"]
    out["core.auto_solve_s"] = stat([auto_s], "s")
    out["core.auto_over_default"] = Stat.of(auto_s / out["core.default_solve_s"].value, "ratio")
    out["cluster.predicted_over_actual"] = Stat.of(predicted / auto_s, "ratio")

    queries = inputs.zipf_queries(graph.n, sizes.queries, rng)

    def burst():
        hits, misses = [], []
        for src, dst in queries:
            answer = service.route(src, dst)
            if answer.cached is not None:
                (hits if answer.cached else misses).append(answer.seconds)
        return hits, misses

    start = time.perf_counter()
    hits, misses = burst()
    pre = time.perf_counter() - start
    serial.update(inputs.improving_batches(graph, rng, 1, 4)[0])
    start = time.perf_counter()
    burst()
    post = time.perf_counter() - start
    stats = service.stats()
    out["serve.hit_p50_us"] = stat(hits or [0.0], "us", lambda s: s * 1e6)
    out["serve.miss_p50_ms"] = stat(misses or [0.0], "ms", lambda s: s * 1e3)
    out["serve.pre_update_qps"] = stat([pre], "1/s", lambda s: len(queries) / s)
    out["serve.post_update_qps"] = stat([post], "1/s", lambda s: len(queries) / s)
    for name, value, unit in (
            ("serve.hit_ratio", stats["cache_hit_rate"], "ratio"),
            ("serve.row_solve_s", stats["stage_seconds"].get("row_solve", 0.0), "s"),
            ("serve.path_walk_s", stats["stage_seconds"].get("path_walk", 0.0), "s"),
            ("serve.invalidations", stats["cache_invalidations"], "count")):
        out[name] = Stat.of(value, unit)
    return out
