"""The repo benchmark: ``python3 benchmarks/perf/run.py --workload <name>``.

Four workloads drive the program through its public front door only
(``repro.APSPEngine``, ``SolveRequest``, ``repro.graph.load_graph``, the
``RouteService`` that ``engine.serve`` returns); every input comes from
``inputs.py``'s seeded generators and every output is checked against an
oracle computed there.  An *op* is one load, solve, query or update; an op
that raises or disagrees with its oracle is failed, and a failed op
contributes no timing.

``--trace 0`` (default) measures passes for ``--seconds`` and prints the
end-to-end metrics; ``--trace 1`` runs one untraced and one traced pass, then
the layer ladder (``layers.py``), prints the per-layer metrics and writes
``trace-<workload>.json``.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md here.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

_T0 = time.perf_counter()
HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"{ROOT / 'src' / 'repro'} not found: the benchmark runs the "
             "program from source and needs the whole checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import inputs  # noqa: E402
import layers  # noqa: E402
from layers import Stat, stat  # noqa: E402
from spans import Tracer  # noqa: E402
from repro import APSPEngine, SolveRequest  # noqa: E402
from repro.common.config import EngineConfig  # noqa: E402
from repro.graph import load_graph  # noqa: E402

#: numpy + scipy + the program: the part of set-up that happens once a process.
IMPORT_S = time.perf_counter() - _T0

DEFAULT_SECONDS = 20
MIN_PASSES = 2
SETUP_REPS = 5
#: pipeline: default-request solves on *par* per pass, one after each stage of
#: the pass (load, serve, updates, re-queries) so that the run's samples are
#: spread over the whole run, not bunched; edges per update batch.
PAR_REPEATS = 4
BATCH_EDGES = 4

#: Why each was chosen, sizes and k are recorded in BENCHMARK.json / README.md.
WORKLOADS = ("dense-cb", "pure-shuffle", "payload-mix", "pipeline")

COUNTS = ("num_stages", "tasks_launched", "shuffle_bytes", "collect_bytes",
          "broadcast_bytes", "sharedfs_bytes_written", "sharedfs_bytes_read")
PHASES = ("setup", "gather", "phase1-diagonal", "phase2-rowcol",
          "phase3-remaining", "repartition", "extract-column", "broadcast",
          "update", "collect-column", "stage-column", "matvec", "union")
TRACE_LAYERS = ("harness", "graph", "core", "serve")


@dataclass(frozen=True)
class Sizes:
    """Problem sizes: fixed by the issue; ``SMOKE`` is the tier-1 test scale."""

    dense: tuple[int, int] = (1536, 128)            # n, b
    fw2d: tuple[int, int] = (512, 128)
    blocked_im: tuple[int, int] = (1024, 32)
    mix_block: int = 128
    mix_n: tuple[int, int, int, int] = (1536, 1024, 1024, 2048)
    pipeline_n: int = 768
    queries: int = 2000
    batches: int = 16
    cache_rows: int = 64
    warm: tuple[int, int] = (64, 16)
    par_backend: str = "processes"
    ladder: layers.LadderSizes = layers.FULL


FULL = Sizes()
SMOKE = Sizes(dense=(64, 16), fw2d=(64, 16), blocked_im=(64, 16), mix_block=16,
              mix_n=(64, 64, 64, 64), pipeline_n=64, queries=100, batches=3,
              cache_rows=8, warm=(32, 16), par_backend="threads",
              ladder=layers.SMOKE)


# ---------------------------------------------------------------------------
# Ops: counted, timed, traced, checked later
# ---------------------------------------------------------------------------
class Recorder:
    """Counts ops; runs each under a span; defers oracle checks until the
    timed section is over (oracles must not touch timings or peak RSS)."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.tracer = Tracer(enabled=False)
        self._checks: list = []

    def op(self, name: str, layer: str, fn):
        """Run one op; returns ``(result, seconds)`` or ``(None, None)``."""
        self.attempted += 1
        with self.tracer.span(name, layer, new_op=True):
            start = time.perf_counter()
            try:
                result = fn()
            except Exception:  # noqa: BLE001 — an op that raises is a failed op
                self.failed += 1
                traceback.print_exc(limit=3, file=sys.stderr)
                return None, None
            return result, time.perf_counter() - start

    def skip(self, count: int) -> None:
        """Ops that could not run because their prerequisite failed."""
        self.attempted += count
        self.failed += count

    def defer(self, check, ops: int = 1) -> None:
        """``check()`` -> number of the ``ops`` it covers that were wrong."""
        self._checks.append((check, ops))

    def verify(self) -> None:
        """Run the deferred oracle checks, counting wrong ops as failed."""
        for check, ops in self._checks:
            self.failed += min(ops, int(check()))
        self._checks.clear()


def keep(pool: list, evidence):
    """The retained evidence bit-identical to ``evidence`` (adding it if new).

    The program is deterministic, so every repeat of a solve or a pass
    normally maps to one retained answer: memory held for the oracle check,
    and with it ``peak_rss_mb``, does not grow with the number of passes.
    """
    for seen in pool:
        if seen.same(evidence):
            return seen
    pool.append(evidence)
    return evidence


@dataclass
class SolveEvidence:
    """What one solve answered, kept for the oracle check."""

    closure: np.ndarray
    parents: np.ndarray | None
    wrong: int | None = None

    def same(self, other: "SolveEvidence") -> bool:
        return np.array_equal(self.closure, other.closure) and (
            self.parents is None or np.array_equal(self.parents, other.parents))

    def count_wrong(self, leg: "Leg") -> int:
        """1 when the answer disagrees with the leg's oracle, else 0."""
        if self.wrong is None:
            oracle = leg.oracle_fn(leg.adj)
            self.wrong = int(not (
                inputs.same_closure(self.closure, oracle)
                and (self.parents is None or inputs.parents_are_tight(
                    self.parents, leg.adj, oracle))))
        return self.wrong


@dataclass
class Leg:
    """One solve of a sweep: a graph, a request and its oracle."""

    name: str
    adj: np.ndarray
    request: SolveRequest
    oracle_fn: object
    kept: list = field(default_factory=list)    # distinct SolveEvidence

    def defer_check(self, rec: "Recorder", result) -> None:
        """Queue the oracle check of one solve's result."""
        evidence = keep(self.kept,
                        SolveEvidence(result.distances, result.parents))
        rec.defer(lambda: evidence.count_wrong(self))


@dataclass
class Context:
    """Everything one run's passes need; built (and timed) by ``set_up``."""

    workload: str
    sizes: Sizes
    workdir: Path
    serial_cfg: EngineConfig
    serial: APSPEngine
    par: APSPEngine
    legs: list[Leg] = field(default_factory=list)
    graph: inputs.GeometricGraph | None = None
    mtx: Path | None = None
    queries: list = field(default_factory=list)
    improving: list = field(default_factory=list)
    deletion: list = field(default_factory=list)
    kept: list = field(default_factory=list)    # distinct PipelineEvidence

    def stop(self) -> None:
        self.serial.stop()
        self.par.stop()


@dataclass
class PipelineEvidence:
    """What one ``pipeline`` pass answered, kept for the oracle check."""

    closures: list      # after serve, after the improving batches, after the deletion
    covers: list        # per closure: the ops behind it that returned
    routes: list        # (path, distance) per query in order; None if it raised
    par: list           # closure of each par solve that returned
    wrong: int | None = None

    def same(self, other: "PipelineEvidence") -> bool:
        return (self.routes == other.routes and self.covers == other.covers
                and len(self.par) == len(other.par)
                and all(np.array_equal(a, b) for a, b in zip(
                    self.closures + self.par, other.closures + other.par)))

    def count_wrong(self, ctx: "Context") -> int:
        """Wrong ops: per mismatching closure the ops it covers (an op that
        raised is already counted as failed, so it is not covered), routes
        against the graph they were asked on, and the par solves."""
        if self.wrong is not None:
            return self.wrong
        sizes = ctx.sizes
        graphs = [ctx.graph.dense()]
        for batches in (ctx.improving, [ctx.deletion]):
            graphs.append(graphs[-1].copy())
            for batch in batches:
                inputs.apply_batch(graphs[-1], batch)
        oracles = [inputs.oracle_shortest(adj) for adj in graphs]
        self.wrong = sum(
            ops for closure, oracle, ops in zip(self.closures, oracles, self.covers)
            if not inputs.same_closure(closure, oracle))
        for index, (route, (src, dst)) in enumerate(zip(self.routes, ctx.queries)):
            version = 0 if index < sizes.queries else 2
            if route is not None and not inputs.route_is_right(
                    src, dst, *route, graphs[version], oracles[version]):
                self.wrong += 1
        self.wrong += sum(not inputs.same_closure(closure, oracles[0])
                          for closure in self.par)
        return self.wrong


@dataclass
class Pass:
    """Timings of one pass; ``None`` where an op of the unit failed."""

    wall: float = 0.0
    solve_s: float | None = None
    par_s: list = field(default_factory=list)       # one per par solve
    pass_s: float | None = None
    legs: dict = field(default_factory=dict)
    results: list = field(default_factory=list)     # _facts() of serial solves
    latencies: list = field(default_factory=list)   # answered queries
    burst_s: list = field(default_factory=list)     # per burst: queries, seconds
    update_s: list = field(default_factory=list)
    hit_ratio: float | None = None


def _facts(result) -> dict:
    """What the traced run reads off a solve, without keeping its matrices."""
    return {"n": result.n, "metrics": result.metrics,
            "phases": result.phase_seconds}


def _total(parts) -> float | None:
    return None if any(p is None for p in parts) else float(sum(parts))


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------
def build_inputs(workload: str, sizes: Sizes, seed: int, workdir: Path) -> dict:
    """Generate the workload's inputs from the seed (and write its files)."""
    rng = inputs.rng_for(seed, WORKLOADS.index(workload))
    shortest = inputs.oracle_shortest
    if workload == "dense-cb":
        n, b = sizes.dense
        request = SolveRequest(solver="blocked-cb", block_size=b, partitioner="MD")
        return {"legs": [Leg("blocked-cb", inputs.erdos_renyi(n, rng), request,
                             shortest)]}
    if workload == "pure-shuffle":
        legs = []
        for solver, (n, b) in (("fw-2d", sizes.fw2d),
                               ("blocked-im", sizes.blocked_im)):
            legs.append(Leg(solver, inputs.erdos_renyi(n, rng),
                            SolveRequest(solver=solver, block_size=b), shortest))
        return {"legs": legs}
    if workload == "payload-mix":
        oracles = {"f32": inputs.oracle_widest, "witness": shortest,
                   "directed-full": lambda a: shortest(a, directed=True),
                   "packed": inputs.oracle_reachable}
        requests = layers.variant_requests(sizes.mix_block)
        return {"legs": [
            Leg(name, inputs.erdos_renyi(n, rng, directed=requests[name].directed),
                requests[name], oracles[name])
            for name, n in zip(requests, sizes.mix_n)]}
    graph = inputs.GeometricGraph(sizes.pipeline_n, rng)
    mtx = workdir / "pipeline.mtx"
    inputs.write_mtx(mtx, graph.n, graph.u, graph.v, graph.w)
    improving = inputs.improving_batches(graph, rng, sizes.batches, BATCH_EDGES)
    return {
        "graph": graph, "mtx": mtx, "improving": improving,
        "queries": inputs.zipf_queries(graph.n, 2 * sizes.queries, rng),
        "deletion": inputs.deletion_batch(graph, improving, BATCH_EDGES),
    }


def set_up(workload: str, sizes: Sizes, seed: int, workdir: Path):
    """One full set-up; returns ``(context, {part: seconds})``."""
    parts = {}
    start = time.perf_counter()
    built = build_inputs(workload, sizes, seed, workdir)
    warm = inputs.erdos_renyi(sizes.warm[0], inputs.rng_for(seed, 99))
    parts["inputs_s"] = time.perf_counter() - start

    start = time.perf_counter()
    serial_cfg = EngineConfig(backend="serial", num_executors=1,
                              cores_per_executor=2,
                              shared_fs_dir=str(workdir / "sfs-serial"))
    par_cfg = EngineConfig(backend=sizes.par_backend, num_executors=2,
                           cores_per_executor=1,
                           shared_fs_dir=str(workdir / "sfs-par"))
    serial = APSPEngine(serial_cfg).start()
    par = APSPEngine(par_cfg).start()
    parts["engine_start_s"] = time.perf_counter() - start

    start = time.perf_counter()
    try:
        par.solve(warm, SolveRequest(block_size=sizes.warm[1]))
    except BaseException:
        serial.stop()
        par.stop()
        raise
    parts["pool_warmup_s"] = time.perf_counter() - start
    return Context(workload, sizes, workdir, serial_cfg, serial, par, **built), parts


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------
def sweep_pass(ctx: Context, rec: Recorder) -> Pass:
    """Every leg on *serial*, then the first leg again on *par*."""
    out = Pass()
    for leg in ctx.legs:
        result, seconds = rec.op(
            f"engine.solve:{leg.name}", "core",
            lambda: ctx.serial.solve(leg.adj, leg.request))
        out.legs[leg.name] = seconds
        if result is not None:
            out.results.append(_facts(result))
            leg.defer_check(rec, result)
    out.solve_s = _total(out.legs.values())
    leg = ctx.legs[0]
    result, seconds = rec.op(f"engine.solve:{leg.name}:par", "core",
                             lambda: ctx.par.solve(leg.adj, leg.request))
    out.par_s.append(seconds)
    if result is not None:
        leg.defer_check(rec, result)
    out.pass_s = _total([out.solve_s, seconds])
    return out


def pipeline_pass(ctx: Context, rec: Recorder) -> Pass:
    """load → serve(auto) → queries → improving batches → deletion → queries,
    in a fresh *serial* engine; the default request on *par* after the load,
    the serve, the updates and the re-queries."""
    out = Pass()
    sizes = ctx.sizes
    ops = 2 + 2 * sizes.queries + sizes.batches + 1 + PAR_REPEATS
    last_op = rec.attempted + ops
    engine = APSPEngine(ctx.serial_cfg)
    par = []

    def par_solve():
        result, seconds = rec.op(
            "engine.solve:default:par", "core",
            lambda: ctx.par.solve(loaded.adjacency, SolveRequest()))
        out.par_s.append(seconds)
        if result is not None:
            # Share one array between bit-identical answers.
            par.append(next((p for p in par if np.array_equal(
                p, result.distances)), result.distances))

    try:
        loaded, load_s = rec.op("load_graph", "graph",
                                lambda: load_graph(ctx.mtx))
        if loaded is None:
            rec.skip(last_op - rec.attempted)
            return out
        par_solve()
        service, out.solve_s = rec.op(
            "engine.serve", "core",
            lambda: engine.serve(loaded.adjacency, SolveRequest(solver="auto"),
                                 max_rows=sizes.cache_rows, keep_result=True))
        if service is None:
            rec.skip(last_op - rec.attempted)
            return out
        out.results.append(_facts(service.closure_result))
        closures = [service.distances.copy()]
        par_solve()

        def burst(queries):
            before = len(out.latencies)
            routes = []
            for src, dst in queries:
                answer, seconds = rec.op("service.route", "serve",
                                         lambda: service.route(src, dst))
                if answer is None:
                    routes.append(None)
                else:
                    routes.append((answer.path, float(answer.distance)))
                    out.latencies.append(seconds)
            out.burst_s.append((len(out.latencies) - before,
                                sum(out.latencies[before:])))
            return routes

        routes = burst(ctx.queries[:sizes.queries])
        for batch in ctx.improving:
            _, seconds = rec.op("engine.update", "core",
                                lambda: engine.update(batch))
            out.update_s.append(seconds)
        closures.append(service.distances.copy())
        _, delete_s = rec.op("engine.update:delete", "core",
                             lambda: engine.update(ctx.deletion))
        closures.append(service.distances.copy())
        par_solve()
        routes += burst(ctx.queries[sizes.queries:])
        out.hit_ratio = service.stats()["cache_hit_rate"]
        par_solve()
    finally:
        engine.stop()

    assert rec.attempted == last_op, "PAR_REPEATS and the par_solve() calls differ"
    query_s = float(sum(out.latencies)) if None not in routes else None
    out.pass_s = _total([load_s, out.solve_s, query_s, *out.update_s, delete_s,
                         *out.par_s])
    covers = [1, sum(s is not None for s in out.update_s), int(delete_s is not None)]
    evidence = keep(ctx.kept, PipelineEvidence(closures, covers, routes, par))
    rec.defer(lambda: evidence.count_wrong(ctx), ops=ops)
    return out


def run_pass(ctx: Context, rec: Recorder) -> Pass:
    """One pass of the context's workload under a root span."""
    body = pipeline_pass if ctx.workload == "pipeline" else sweep_pass
    start = time.perf_counter()
    with rec.tracer.span(f"pass:{ctx.workload}", "harness"):
        out = body(ctx, rec)
    out.wall = time.perf_counter() - start
    return out


# ---------------------------------------------------------------------------
# Measurement helpers
# ---------------------------------------------------------------------------
def peak_rss_mib() -> float:
    """Peak RSS of this process plus its live descendants, in MiB.

    Pool workers are children of multiprocessing's fork server, not of this
    process, so ``RUSAGE_CHILDREN`` misses them: walk ``/proc`` instead and
    add each descendant's ``VmHWM``.
    """
    total_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children: dict[int, list[int]] = {}
    try:
        for entry in os.listdir("/proc"):
            if entry.isdigit():
                try:
                    with open(f"/proc/{entry}/stat", encoding="ascii") as fh:
                        ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
                except (OSError, ValueError, IndexError):
                    continue
                children.setdefault(ppid, []).append(int(entry))
    except OSError:
        return total_kib / 1024.0
    todo = list(children.get(os.getpid(), []))
    while todo:
        pid = todo.pop()
        todo.extend(children.get(pid, []))
        try:
            with open(f"/proc/{pid}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kib += int(line.split()[1])
        except (OSError, ValueError):
            continue
    return total_kib / 1024.0


def _samples(passes, attr) -> list[float]:
    return [getattr(p, attr) for p in passes if getattr(p, attr) is not None]


def _print_stat(name: str, s: Stat, note: str = "") -> None:
    print(f"{name:34s} {s.value:14.6g} {s.unit:6s} "
          f"k={s.count} min={s.low:.6g} max={s.high:.6g}{note}")


def stop_multiprocessing_helpers() -> None:
    """Stop (and wait for) the fork server and resource tracker the
    ``processes`` backend started; they would otherwise outlive this process
    by a moment.  Private stdlib hooks, the ones CPython's own tests use."""
    from multiprocessing import forkserver, resource_tracker
    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        stop = getattr(helper, "_stop", None)
        if stop is not None:
            stop()


# ---------------------------------------------------------------------------
# One run
# ---------------------------------------------------------------------------
def run_workload(workload: str, *, seed: int = 1, seconds: float = DEFAULT_SECONDS,
                 trace: bool = False, sizes: Sizes = FULL,
                 workdir: Path | None = None) -> dict:
    """Run one workload; prints the metric table, returns the result object."""
    workdir = Path(workdir or ROOT / ".bench_build" / "perf" / workload)
    workdir.mkdir(parents=True, exist_ok=True)
    rec = Recorder()
    setups = []
    ctx = None
    try:
        for _ in range(SETUP_REPS):
            if ctx is not None:
                ctx.stop()
            ctx, parts = set_up(workload, sizes, seed, workdir)
            setups.append(parts)

        # Peak RSS is read after exactly MIN_PASSES passes: it grows with the
        # pass count (pure-shuffle: 654 MiB after two, 808 after three), and
        # how many passes fit in ``seconds`` depends on how busy the host is.
        passes = []
        started = time.perf_counter()
        if trace:
            passes.append(run_pass(ctx, rec))
            rec.tracer = Tracer(enabled=True)
            passes.append(run_pass(ctx, rec))
            rss = peak_rss_mib()
        else:
            while True:
                passes.append(run_pass(ctx, rec))
                if len(passes) == MIN_PASSES:
                    rss = peak_rss_mib()
                elapsed = time.perf_counter() - started
                if (len(passes) >= MIN_PASSES
                        and elapsed + 0.5 * passes[-1].wall > seconds):
                    break
        rec.verify()

        if trace:
            metrics = per_layer_metrics(ctx, passes, rec.tracer, setups, seed)
            rec.tracer.dump(workdir.parent / f"trace-{workload}.json",
                        workload=workload, seed=seed,
                        metrics={k: s.value for k, s in metrics.items()})
        else:
            metrics = end_to_end_metrics(passes, setups, rss)
            report_extras(passes)
    finally:
        if ctx is not None:
            ctx.stop()
        for name in ("sfs-serial", "sfs-par"):
            shutil.rmtree(workdir / name, ignore_errors=True)

    for name, s in metrics.items():
        _print_stat(name, s)
    print(f"ops attempted={rec.attempted} failed={rec.failed} "
          f"failed_share={rec.failed / rec.attempted:.6g} passes={len(passes)}")
    return {"correct": rec.failed == 0, "attempted": rec.attempted,
            "failed": rec.failed,
            "metrics": {name: {"value": s.value, "unit": s.unit}
                        for name, s in metrics.items()}}


def end_to_end_metrics(passes, setups: list[dict], rss: float) -> dict[str, Stat]:
    """The end-to-end metrics; raises when a unit never succeeded.

    ``setup_s`` = the one import + the median of the repeated set-ups.
    """
    out = {"setup_s": stat([sum(parts.values()) for parts in setups], "s",
                           lambda s: s + IMPORT_S)}
    for name, samples in (
            ("solve_s", _samples(passes, "solve_s")),
            ("solve_par_s", [s for p in passes for s in p.par_s if s is not None]),
            ("pass_s", _samples(passes, "pass_s"))):
        if not samples:
            raise RuntimeError(f"no successful sample for {name}: every "
                               "attempt of that unit failed")
        out[name] = stat(samples, "s")
    out["peak_rss_mb"] = Stat.of(rss, "MiB")
    return out


def report_extras(passes) -> None:
    """Workload-specific figures a user sees; printed, not gated (they do not
    exist on every workload, which the benchmark contract requires)."""
    for leg in passes[0].legs:
        samples = [p.legs[leg] for p in passes if p.legs.get(leg) is not None]
        if samples:
            _print_stat(f"leg.{leg}_s", stat(samples, "s"), "  (info)")
    latencies = [s for p in passes for s in p.latencies]
    if latencies:
        qps = [len(p.latencies) / sum(p.latencies) for p in passes if p.latencies]
        _print_stat("queries_per_s", stat(qps, "1/s"), "  (info)")
        for index, name in enumerate(("pre_update_qps", "post_update_qps")):
            rates = [p.burst_s[index][0] / p.burst_s[index][1] for p in passes
                     if len(p.burst_s) > index and p.burst_s[index][1] > 0]
            _print_stat(name, stat(rates, "1/s"), "  (info)")
        p99 = float(np.percentile(latencies, 99)) * 1e3
        print(f"{'query_p99_ms':34s} {p99:14.6g} ms     samples={len(latencies)} "
              f"beyond={len(latencies) // 100}  (info)")
        updates = [s for p in passes for s in p.update_s if s is not None]
        _print_stat("update_s", stat(updates, "s"), "  (info)")
        hit = [p.hit_ratio for p in passes if p.hit_ratio is not None]
        _print_stat("hit_ratio", stat(hit, "ratio"), "  (info)")


def per_layer_metrics(ctx: Context, passes, tracer: Tracer,
                      setups: list[dict], seed: int) -> dict[str, Stat]:
    """Ladder + the traced pass's counts, phases, self times and overhead."""
    untraced, traced = passes
    out = layers.run_ladder(ctx.serial, ctx.par, str(ctx.workdir), seed,
                            ctx.sizes.ladder)
    one = Stat.of
    for key in COUNTS:
        out[f"spark.{key}"] = one(
            sum(r["metrics"].get(key, 0) for r in traced.results), "count")
    for phase in PHASES:
        out[f"core.phase.{phase}_s"] = one(
            sum(r["phases"].get(phase, 0.0) for r in traced.results), "s")
    ops = sum(float(r["n"]) ** 3 for r in traced.results)
    out["core.gops_per_core"] = one(
        ops / traced.solve_s / 1e9 if traced.solve_s else 0.0, "Gop/s")
    out["setup.import_s"] = one(IMPORT_S, "s")
    for part in setups[0]:
        out[f"setup.{part}"] = stat([parts[part] for parts in setups], "s")
    self_s = tracer.self_times()
    for layer in TRACE_LAYERS:
        out[f"trace.self.{layer}_s"] = one(self_s.get(layer, 0.0), "s")
    out["trace.wall_s"] = one(tracer.wall(), "s")
    out["trace.spans"] = one(len(tracer.spans), "count")
    out["trace.overhead_pct"] = one(
        (traced.wall / untraced.wall - 1.0) * 100.0, "%")
    return out


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="measure passes for about this long (min 2 passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), nargs="?",
                        const=1, default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="n=64 scale, threads instead of processes")
    parser.add_argument("--sets", type=int, default=0,
                        help="compare this many sets of runs (see compare.py)")
    args = parser.parse_args(argv)
    if args.sets:
        import compare
        return compare.main(args)
    if args.workload is None:
        parser.error("--workload is required")

    # The tuner looks for its calibration relative to the working directory;
    # pin the committed one so the run does not depend on where it starts.
    os.environ.setdefault("APSPARK_CALIBRATION",
                          str(ROOT / "benchmarks" / "calibration.json"))
    # Keep every temp file (multiprocessing's socket directory included)
    # inside the checkout; AF_UNIX paths are capped near 100 bytes, so fall
    # back to the system default under a very deep checkout.
    tmp = ROOT / ".bench_build" / "perf" / "tmp"
    if len(str(tmp)) < 70:
        tmp.mkdir(parents=True, exist_ok=True)
        os.environ["TMPDIR"] = tempfile.tempdir = str(tmp)
    try:
        result = run_workload(args.workload, seed=args.seed,
                              seconds=args.seconds, trace=bool(args.trace),
                              sizes=SMOKE if args.smoke else FULL)
    finally:
        stop_multiprocessing_helpers()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
