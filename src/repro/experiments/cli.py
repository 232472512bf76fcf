"""Command-line interface: ``apspark <experiment> [options]``.

Examples
--------
Run the paper-scale projections for Table 2 and the weak-scaling study::

    apspark table2 --mode projected
    apspark table3 --mode projected

Run a small measured sweep on this machine::

    apspark figure3 --mode measured
    apspark solve --n 256 --solver blocked-cb --block-size 32

List the registered solvers with their aliases and purity::

    apspark solvers
"""

from __future__ import annotations

import argparse
import sys

from repro.common.config import BACKENDS, EngineConfig
from repro.common.errors import ConfigurationError, ValidationError
from repro.common.timing import format_seconds
from repro.core.api import available_solvers, solver_catalog
from repro.core.dynamic import update_batch_for_algebra
from repro.core.engine import APSPEngine
from repro.core.request import EdgeUpdate, SolveRequest
from repro.experiments import figure2, figure3, table2, table3_figure5
from repro.experiments.report import format_table, rows_to_csv
from repro.graph import io as graph_io
from repro.graph import sparse as sparse_graph
from repro.graph.generators import graph_for_algebra
from repro.linalg.algebra import available_algebras, get_algebra
from repro.sequential.floyd_warshall import reference_closure, verify_tolerances


def _load_input_graph(path: str):
    """Load a ``--input`` graph through the shared ingestion front door.

    ``.npz`` sparse CSR, ``.npy`` dense, ``.mtx`` MatrixMarket, or a
    plain-text edge list (see :func:`repro.graph.io.load_graph`).  Returns
    a :class:`repro.graph.io.LoadedGraph` — the adjacency plus the
    directedness the file resolved to, which feeds ``layout="auto"``.
    """
    try:
        return graph_io.load_graph(path)
    except (ValidationError, OSError) as exc:
        raise ConfigurationError(f"cannot load --input {path!r}: {exc}") from exc


def _fold_edges(adjacency, algebra, dtype):
    """The edge matrix :func:`repro.serve.format_route` folds against.

    The shared formatter re-derives route weights from *algebra-domain*
    edges: canonical CSR passes through, a canonical dense matrix (finite =
    edge) is prepared into the algebra's domain first.
    """
    if sparse_graph.is_sparse(adjacency):
        return adjacency
    return get_algebra(algebra).prepare_adjacency(adjacency, dtype=dtype)


def _print_route(result, adjacency, algebra, route, tolerances) -> bool:
    """Reconstruct, fold and print one ``--route SRC DST`` query.

    Formatting and the independent weight re-fold are shared with
    ``apspark route`` (see :func:`repro.serve.format_route`); this wrapper
    only adapts the full ``paths=True`` result: walk the predecessor
    matrix, classify a failed walk, and report through the common line.
    Returns False (driving a non-zero exit) on a mismatch or error; an
    unreachable pair is reported but is not an error.
    """
    from repro import serve as serve_mod
    from repro.common.errors import SolverError
    from repro.linalg.witness import NO_VERTEX
    src, dst = route
    try:
        path = result.reconstruct_path(src, dst)
    except ValidationError as exc:
        print(f"route {src} -> {dst}: error: {exc}", file=sys.stderr)
        return False
    except SolverError as exc:
        if src != dst and result.parents[src, dst] == NO_VERTEX:
            # Genuinely unreachable: valid output, not an error.
            path = None
        else:
            # A walk that started but failed means the parent matrix is corrupt.
            print(f"route {src} -> {dst}: error: {exc}", file=sys.stderr)
            return False
    edges = _fold_edges(adjacency, algebra, result.distances.dtype)
    line, verdict = serve_mod.format_route(
        src, dst, path, result.distances[src, dst], edges, algebra,
        tolerances=tolerances)
    print(line, file=sys.stderr if verdict == serve_mod.ROUTE_ERROR else sys.stdout)
    return verdict in (serve_mod.ROUTE_OK, serve_mod.ROUTE_UNREACHABLE)


def _add_solve_arguments(parser: argparse.ArgumentParser, flags: str,
                         **overrides: dict) -> None:
    """Declare the named solve / engine flags on ``parser``, in the order given.

    Type, default and choices of each flag are stated once, here; a
    subcommand lists the flags it takes (its ``--help`` order) and passes,
    keyed by the flag's dest, only what differs for it — help text, chaos'
    defaults, ``solve``'s extra ``auto`` solver choice.
    """
    shared = {
        "--solver": dict(choices=available_solvers(), default="blocked-cb"),
        "--block-size": dict(type=int, default=None),
        "--partitioner": dict(default="MD"),
        "--algebra": dict(default="shortest-path", choices=available_algebras()),
        "--dtype": dict(default=None),
        "--storage": dict(default=None, choices=("auto", "dense", "packed")),
        "--layout": dict(default=None, choices=("auto", "triangular", "full")),
        "--directed": dict(action="store_true"),
        "--paths": dict(action="store_true"),
        "--backend": dict(choices=BACKENDS, default="serial"),
        "--executors": dict(type=int, default=4),
        "--cores": dict(type=int, default=2),
    }
    for flag in flags.split():
        dest = flag[2:].replace("-", "_")
        parser.add_argument(flag, **{**shared[flag], **overrides.get(dest, {})})


def _open_instance(args, **overrides):
    """The prologue ``solve``, ``route``/``serve`` and ``update`` share.

    Builds the engine config, loads ``--input`` (its own directedness —
    comment token / MatrixMarket symmetry / structural sniff — merges into
    the request, so layout resolution needs no second pass over the data)
    or generates a graph for the algebra, and builds the typed request from
    whichever :class:`SolveRequest` fields the subcommand's flags carry
    (``overrides`` win).  Returns ``(config, request, adjacency)``; every
    unsupported solver x algebra x dtype x storage x layout x paths
    combination raises :class:`ConfigurationError` here.
    """
    config = EngineConfig(backend=args.backend, num_executors=args.executors,
                          cores_per_executor=args.cores)
    fields = {name: getattr(args, name)
              for name in SolveRequest.__dataclass_fields__ if hasattr(args, name)}
    fields.update(overrides)
    adjacency = None
    if args.input is not None:
        loaded = _load_input_graph(args.input)
        adjacency = loaded.adjacency
        fields["directed"] = fields["directed"] or loaded.directed
    request = SolveRequest(**fields)
    if adjacency is None:
        adjacency = graph_for_algebra(args.n, args.seed, request.algebra,
                                      directed=request.directed)
    return config, request, adjacency


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--mode", choices=("projected", "measured"), default="projected",
                        help="projected: cost model at paper scale; measured: run the engine here")
    parser.add_argument("--csv", action="store_true", help="emit CSV instead of a table")


def build_parser() -> argparse.ArgumentParser:
    """Build the apspark argument parser (all subcommands)."""
    parser = argparse.ArgumentParser(prog="apspark",
                                     description="APSP-on-Spark reproduction harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig2 = sub.add_parser("figure2", help="sequential kernel time vs block size")
    _add_common(p_fig2)

    p_fig3 = sub.add_parser("figure3", help="block size x partitioner for the blocked solvers")
    _add_common(p_fig3)
    p_fig3.add_argument("--distribution", action="store_true",
                        help="show the partition-size distribution panel instead of timings")

    p_tab2 = sub.add_parser("table2", help="effect of block size on execution time")
    _add_common(p_tab2)

    p_tab3 = sub.add_parser("table3", help="weak scaling of blocked methods vs MPI baselines")
    _add_common(p_tab3)

    p_solve = sub.add_parser("solve", help="solve a synthetic instance and verify it")
    p_solve.add_argument("--n", type=int, default=128)
    p_solve.add_argument("--input", default=None, metavar="PATH",
                         help="solve this graph instead of generating one: "
                              "a .npz CSR adjacency (scipy.sparse, ingested "
                              "without densifying) or a .npy dense matrix")
    _add_solve_arguments(
        p_solve, "--solver --block-size --partitioner --algebra --dtype "
                 "--storage --layout --directed --paths",
        solver=dict(choices=[*available_solvers(), "auto"],
                    help="solver name, or 'auto' to let the calibrated "
                         "cost model pick solver and block size"),
        algebra=dict(help="path algebra to close the matrix under"),
        dtype=dict(help="element dtype (e.g. float32); default: the "
                        "algebra's native dtype"),
        storage=dict(help="block storage layout; auto = the algebra's "
                          "default (packed bitsets for reachability)"),
        layout=dict(help="block grid layout: triangular stores the upper "
                         "block triangle (symmetric inputs only), full "
                         "stores all blocks (asymmetric/directed); "
                         "auto = inspect the input"),
        directed=dict(help="treat the input as directed: forces the full "
                           "layout and skips the symmetry requirement"),
        paths=dict(help="return paths too: the result carries a "
                        "predecessor matrix (parent pointers), derived "
                        "from the closure after the solve"))
    p_solve.add_argument("--route", nargs=2, type=int, default=None,
                         metavar=("SRC", "DST"),
                         help="reconstruct and print the optimal route "
                              "between two vertices (implies --paths)")
    p_solve.add_argument("--no-verify", action="store_true",
                         help="skip the sequential reference check "
                              "(recommended for large sparse inputs: the "
                              "reference densifies the graph)")
    p_solve.add_argument("--seed", type=int, default=0)
    _add_solve_arguments(p_solve, "--executors --cores --backend")
    p_solve.add_argument("--repeat", type=int, default=1,
                         help="solve the instance this many times on one engine "
                              "session (demonstrates context reuse)")

    def _add_serve_common(p) -> None:
        """Graph + engine + cache options shared by ``route`` and ``serve``."""
        p.add_argument("--n", type=int, default=128,
                       help="size of the generated graph (ignored with --input)")
        p.add_argument("--input", default=None, metavar="PATH",
                       help="serve this graph instead of generating one "
                            "(.npz CSR, .npy dense, .mtx, or an edge list)")
        p.add_argument("--seed", type=int, default=0)
        _add_solve_arguments(
            p, "--solver --block-size --algebra --dtype --layout --directed "
               "--backend --executors --cores",
            layout=dict(help="block grid layout (auto = inspect the input)"),
            directed=dict(help="treat the input as directed (forces full "
                               "layout)"))
        p.add_argument("--cache-rows", type=int, default=None,
                       help="parent-row cache limit in rows (default: unbounded)")
        p.add_argument("--cache-budget-kb", type=float, default=None,
                       help="parent-row cache budget in KB (default: unbounded)")
        p.add_argument("--pairs-file", default=None, metavar="PATH",
                       help="replay queries from a file of 'SRC DST' lines")

    p_route = sub.add_parser(
        "route", help="answer route queries from a served closure "
                      "(per-source parent rows, solved lazily)")
    p_route.add_argument("pairs", nargs="*", type=int, metavar="SRC DST",
                         help="flat list of query pairs, e.g. '0 5 3 9'")
    _add_serve_common(p_route)
    p_route.add_argument("--report", action="store_true",
                         help="also print the serving analytics report")

    p_serve = sub.add_parser(
        "serve", help="replay a query workload against a served closure and "
                      "print the analytics report")
    _add_serve_common(p_serve)
    p_serve.add_argument("--queries", type=int, default=256,
                         help="number of random queries when no --pairs-file "
                              "is given")
    p_serve.add_argument("--sources", type=int, default=0,
                         help="restrict random queries to this many distinct "
                              "sources (0 = all; smaller = higher hit rate)")
    p_serve.add_argument("--verify", action="store_true",
                         help="re-fold every answered route against the edge "
                              "weights and fail on mismatch")
    p_serve.add_argument("--csv", action="store_true",
                         help="emit the stats snapshot as CSV instead of the "
                              "report")

    p_update = sub.add_parser(
        "update", help="dynamic closure maintenance: solve once, then apply "
                       "edge updates as rank-1 sweeps (or a cost-model-"
                       "driven re-solve)")
    p_update.add_argument("--n", type=int, default=128,
                          help="size of the generated graph (ignored with "
                               "--input)")
    p_update.add_argument("--input", default=None, metavar="PATH",
                          help="update this graph's closure instead of a "
                               "generated one (.npz CSR, .npy dense, .mtx, "
                               "or an edge list)")
    p_update.add_argument("--seed", type=int, default=0)
    _add_solve_arguments(
        p_update, "--solver --block-size --algebra --dtype --storage --layout "
                  "--directed --paths --backend --executors --cores",
        directed=dict(help="treat the input as directed (updates touch "
                           "one orientation instead of both)"),
        paths=dict(help="maintain the predecessor matrix through the "
                        "updates as well"))
    p_update.add_argument("--edge", nargs=3, action="append", default=None,
                          metavar=("U", "V", "W"),
                          help="insert or relax one edge (repeatable); "
                               "W of 'del'/'inf' deletes it")
    p_update.add_argument("--delete", nargs=2, type=int, action="append",
                          default=None, metavar=("U", "V"),
                          help="delete one edge (repeatable)")
    p_update.add_argument("--batch", type=int, default=0,
                          help="also apply this many seeded improving edges "
                               "(random vertex pairs weighted to beat every "
                               "generated edge under the algebra)")
    p_update.add_argument("--mode", choices=("auto", "incremental", "resolve"),
                          default="auto",
                          help="auto lets the cost model pick; incremental/"
                               "resolve force the path")
    p_update.add_argument("--verify", action="store_true",
                          help="check the updated closure against a full "
                               "re-closure of the mutated graph")

    p_chaos = sub.add_parser(
        "chaos", help="run solve+update+query twice (clean vs seeded fault "
                      "schedule) and fail unless the faulted run is "
                      "bit-identical")
    p_chaos.add_argument("--n", type=int, default=96)
    p_chaos.add_argument("--seed", type=int, default=0,
                         help="seeds the graph, the workload, and every "
                              "fault decision — same seed, same schedule")
    _add_solve_arguments(
        p_chaos, "--solver --block-size --algebra --backend --executors --cores",
        backend=dict(default="threads"), executors=dict(default=2))
    p_chaos.add_argument("--failure-rate", type=float, default=0.0,
                         help="probability any task's first attempt raises "
                              "an injected failure")
    p_chaos.add_argument("--crash-rate", type=float, default=0.0,
                         help="probability any task's first attempt dies as "
                              "a worker crash")
    p_chaos.add_argument("--failures", type=int, default=2,
                         help="inject this many plain task failures")
    p_chaos.add_argument("--crashes", type=int, default=1,
                         help="inject this many worker crashes (real "
                              "process kills on the processes backend)")
    p_chaos.add_argument("--delays", type=int, default=0,
                         help="inject this many straggler delays "
                              "(exercises speculation)")
    p_chaos.add_argument("--delay-seconds", type=float, default=0.3)
    p_chaos.add_argument("--corrupt-writes", type=int, default=1,
                         help="corrupt this many staged blocks on disk "
                              "(impure solvers only)")
    p_chaos.add_argument("--drop-writes", type=int, default=1,
                         help="delete this many staged blocks after writing")
    p_chaos.add_argument("--update-batches", type=int, default=2)
    p_chaos.add_argument("--edges-per-batch", type=int, default=4)
    p_chaos.add_argument("--queries", type=int, default=32)
    p_chaos.add_argument("--quiet", action="store_true",
                         help="suppress the per-leg progress lines")

    p_convert = sub.add_parser(
        "convert", help="convert an external graph (.mtx / edge list / .npy) "
                        "to .npz CSR or .npy dense for --input")
    p_convert.add_argument("source", help="input graph in any load_graph format")
    p_convert.add_argument("target", help="output path: .npz (CSR) or .npy (dense)")

    p_solvers = sub.add_parser("solvers", help="list registered solvers and their metadata")
    p_solvers.add_argument("--csv", action="store_true", help="emit CSV instead of a table")

    return parser


def _serve_main(args) -> int:
    """Shared driver for ``apspark route`` and ``apspark serve``.

    Both solve the closure once, open a lazy-row serving session and answer
    a query workload; they differ only in workload source and output —
    ``route`` prints one verified line per query, ``serve`` replays silently
    and prints the analytics report.
    """
    import numpy as np
    from repro import serve as serve_mod
    from repro.common.errors import SolverError
    budget = (None if args.cache_budget_kb is None
              else int(args.cache_budget_kb * 1024))
    try:
        if args.cache_rows is not None and args.cache_rows < 1:
            raise ConfigurationError(
                f"--cache-rows must be >= 1, got {args.cache_rows}")
        if budget is not None and budget < 1:
            raise ConfigurationError(
                f"--cache-budget-kb must allow at least 1 byte, "
                f"got {args.cache_budget_kb}")
        config, request, adjacency = _open_instance(args)
    except (ConfigurationError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    n = adjacency.shape[0]
    try:
        if args.command == "route":
            if len(args.pairs) % 2:
                raise SolverError(
                    "route expects a flat, even-length list of SRC DST pairs")
            pairs = list(zip(args.pairs[::2], args.pairs[1::2]))
            if args.pairs_file:
                pairs += serve_mod.load_pairs_file(args.pairs_file, n=n)
            if not pairs:
                raise SolverError("no queries: pass SRC DST pairs or --pairs-file")
        elif args.pairs_file:
            pairs = serve_mod.load_pairs_file(args.pairs_file, n=n)
        else:
            # Deterministic random replay; --sources narrows the source pool
            # so the workload exercises cache hits, not just cold misses.
            rng = np.random.default_rng(args.seed)
            if args.sources > 0:
                pool = rng.choice(n, size=min(args.sources, n), replace=False)
            else:
                pool = np.arange(n)
            pairs = [(int(rng.choice(pool)), int(rng.integers(n)))
                     for _ in range(max(0, args.queries))]
        if not pairs:
            raise SolverError("no queries: pass --pairs-file or --queries > 0")
    except (SolverError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tolerances = verify_tolerances(request.dtype)
    ok = True
    mismatches = 0
    with APSPEngine(config) as engine:
        service = engine.serve(adjacency, request, budget_bytes=budget,
                               max_rows=args.cache_rows)
        for src, dst in pairs:
            try:
                answer = service.route(src, dst)
            except (ValidationError, SolverError) as exc:
                print(f"route {src} -> {dst}: error: {exc}", file=sys.stderr)
                ok = False
                continue
            if args.command == "route" or args.verify:
                line, verdict = serve_mod.format_route(
                    src, dst, answer.path, answer.distance, service.adjacency,
                    service.algebra, tolerances=tolerances)
                healthy = verdict in (serve_mod.ROUTE_OK,
                                      serve_mod.ROUTE_UNREACHABLE)
                if args.command == "route":
                    print(line, file=sys.stderr
                          if verdict == serve_mod.ROUTE_ERROR else sys.stdout)
                elif not healthy:
                    print(line, file=sys.stderr)
                if not healthy:
                    mismatches += 1
                    ok = False
        stats = service.stats()
    if args.command == "route":
        if args.report:
            print(serve_mod.render_report(stats))
        return 0 if ok else 1
    if args.csv:
        row = {key: value for key, value in stats.items()
               if not isinstance(value, dict)}
        for stage in serve_mod.STAGES:
            row[f"stage_{stage}_s"] = stats["stage_seconds"][stage]
            row[f"stage_{stage}_count"] = stats["stage_counts"][stage]
        _emit([row], args)
    else:
        print(serve_mod.render_report(stats))
        if args.verify:
            print(f"  verify: {len(pairs) - mismatches}/{len(pairs)} "
                  "folded route(s) match the closure")
    return 0 if ok else 1


def _update_main(args) -> int:
    """Driver for ``apspark update``: one kept closure, one update batch.

    Solves the instance with ``keep_closure=True``, folds the command line
    into a batch (explicit ``--edge``/``--delete`` first, then ``--batch``
    seeded improving edges), applies it through ``engine.update`` and prints
    the decision: chosen mode, reason, per-kind edge counts, and the cost
    model's incremental-vs-resolve estimates next to the measured time.
    """
    from repro.common.errors import SolverError
    try:
        config, request, adjacency = _open_instance(args)
        edges = []
        for u, v, w in (args.edge or []):
            weight = None if str(w).lower() in ("del", "inf", "none") else float(w)
            edges.append(EdgeUpdate(int(u), int(v), weight))
        for u, v in (args.delete or []):
            edges.append(EdgeUpdate(int(u), int(v), None))
        if args.batch > 0:
            edges.extend(update_batch_for_algebra(
                adjacency.shape[0], args.seed + 7919, request.algebra,
                args.batch))
        if not edges:
            raise ConfigurationError(
                "no updates: pass --edge U V W, --delete U V and/or --batch K")
    except (ConfigurationError, ValidationError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    force = None if args.mode == "auto" else args.mode
    try:
        with APSPEngine(config) as engine:
            result = engine.solve(adjacency, request, keep_closure=True)
            print(f"solved n={result.n} ({request.algebra}) in "
                  f"{format_seconds(result.elapsed_seconds)}; closure cached")
            report = engine.update(edges, force=force)
            state = engine.closure
            print(f"update: {report.describe()}")
            print(f"  estimated incremental "
                  f"{format_seconds(report.estimated_incremental_seconds)} vs "
                  f"re-solve {format_seconds(report.estimated_resolve_seconds)}"
                  f"; break-even at {report.break_even_edges} edge(s)")
            ok = True
            if args.verify:
                algebra = get_algebra(request.algebra)
                reference = reference_closure(state.adjacency,
                                              request.algebra,
                                              dtype=request.dtype)
                ok = algebra.allclose(state.distances, reference,
                                      **verify_tolerances(request.dtype))
                print(f"verified against the re-closure of the mutated graph: "
                      f"{'OK' if ok else 'MISMATCH'}")
            return 0 if ok else 1
    except (ConfigurationError, ValidationError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _chaos_main(args) -> int:
    """Driver for ``apspark chaos``: exit 0 only when recovery was exact."""
    from repro.common.errors import SolverError
    from repro.experiments import chaos
    try:
        plan = chaos.build_fault_plan(
            args.seed, failure_rate=args.failure_rate,
            crash_rate=args.crash_rate, crashes=args.crashes,
            failures=args.failures, delays=args.delays,
            corrupt_writes=args.corrupt_writes, drop_writes=args.drop_writes,
            delay_seconds=args.delay_seconds)
        report = chaos.run_chaos(
            n=args.n, seed=args.seed, solver=args.solver,
            backend=args.backend, algebra=args.algebra,
            block_size=args.block_size, executors=args.executors,
            cores=args.cores, fault_plan=plan,
            update_batches=args.update_batches,
            edges_per_batch=args.edges_per_batch, queries=args.queries,
            progress=(lambda line: None) if args.quiet else print)
    except (ConfigurationError, ValidationError, SolverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    lines = report.lines()
    if args.quiet:
        lines = lines[-1:]  # just the verdict
    for line in lines:
        print(line, file=sys.stdout if report.exact else sys.stderr)
    return 0 if report.exact else 1


def _emit(rows, args, columns=None) -> None:
    if args.csv:
        sys.stdout.write(rows_to_csv(rows, columns))
    else:
        sys.stdout.write(format_table(rows, columns))


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)

    if args.command == "figure2":
        rows = figure2.run_projected() if args.mode == "projected" else figure2.run_measured()
        _emit(rows, args)
        return 0

    if args.command == "figure3":
        if args.distribution:
            rows = figure3.run_partition_distribution()
        elif args.mode == "projected":
            rows = figure3.run_projected()
        else:
            rows = figure3.run_measured()
        _emit(rows, args)
        return 0

    if args.command == "table2":
        rows = table2.run_projected() if args.mode == "projected" else table2.run_measured()
        _emit(rows, args)
        return 0

    if args.command == "table3":
        rows = (table3_figure5.run_projected() if args.mode == "projected"
                else table3_figure5.run_measured())
        _emit(rows, args)
        return 0

    if args.command == "solve":
        algebra = get_algebra(args.algebra)
        try:
            config, request, adjacency = _open_instance(
                args, paths=bool(args.paths or args.route is not None))
        except (ConfigurationError, ValidationError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        if args.input is not None:
            n = adjacency.shape[0]
            kind = "sparse CSR" if sparse_graph.is_sparse(adjacency) else "dense"
            nnz = adjacency.nnz if sparse_graph.is_sparse(adjacency) else None
            print(f"loaded {kind} adjacency from {args.input}: n={n}"
                  + (f", nnz={nnz}" if nnz is not None else "")
                  + (", directed" if request.directed else ""))
        verify = not args.no_verify
        reference = None
        if verify:
            reference = reference_closure(adjacency, request.algebra,
                                          dtype=request.dtype)
        tolerances = verify_tolerances(request.dtype)
        with APSPEngine(config) as engine:
            jobs = engine.solve_many([adjacency] * max(1, args.repeat), request)
            correct = True
            result = None
            for job in jobs:
                result = job.result()
                if verify:
                    correct = correct and algebra.allclose(result.distances, reference,
                                                           **tolerances)
                print(f"{job.job_id}: {result.summary()}")
                tuner = result.metrics.get("tuner")
                if tuner:
                    print(f"  auto-tuned: {tuner['solver']} "
                          f"b={tuner['block_size']} "
                          f"storage={tuner['storage']} "
                          f"layout={tuner['layout']} "
                          f"predicted={tuner['predicted_seconds']:.4f}s "
                          f"(default {tuner['default_predicted_seconds']:.4f}s)")
                print(f"  elapsed: {format_seconds(result.elapsed_seconds)}; "
                      f"shuffled {result.metrics['shuffle_bytes'] / 1e6:.1f} MB; "
                      f"collected {result.metrics['collect_bytes'] / 1e6:.1f} MB; "
                      f"shared-fs {result.metrics['sharedfs_bytes_written'] / 1e6:.1f} MB written")
            stats = engine.stats()
        if args.route is not None and result is not None:
            correct = _print_route(result, adjacency, algebra, args.route,
                                   tolerances) and correct
        if verify:
            print(f"verified against the sequential {request.algebra} closure: "
                  f"{'OK' if correct else 'MISMATCH'}")
        else:
            print("verification skipped (--no-verify)")
        print(f"engine session: {stats['jobs_completed']} job(s) on one context, "
              f"{stats['tasks_launched']} tasks, "
              f"{format_seconds(stats['total_solve_seconds'])} solving")
        return 0 if correct else 1

    if args.command in ("route", "serve"):
        return _serve_main(args)

    if args.command == "update":
        return _update_main(args)

    if args.command == "chaos":
        return _chaos_main(args)

    if args.command == "convert":
        try:
            n, nnz = graph_io.convert_graph(args.source, args.target)
        except (ValidationError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(f"wrote {args.target}: n={n}, nnz={nnz} edge(s)")
        return 0

    if args.command == "solvers":
        rows = [info.as_dict() for info in solver_catalog()]
        _emit(rows, args, columns=["name", "aliases", "pure", "algebras",
                                   "layouts", "description"])
        return 0

    return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
