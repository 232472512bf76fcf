"""Shared route formatting, pairs-file parsing, and the serving report.

Two front ends print routes — ``apspark solve --route`` (one query against a
fully materialized result) and the serving commands (``apspark route`` /
``apspark serve`` over the lazy row cache).  Both go through
:func:`format_route` so the output line, the independent weight re-fold, and
the match verdict are one implementation, not two drifting copies.

The fold deliberately re-derives the route's weight from the *adjacency*
(edge by edge) rather than trusting the closure entry: a route whose folded
weight disagrees with ``distances[src, dst]`` means the parent rows
produced a wrong path, which is exactly the bug class this check exists to
catch.
"""

from __future__ import annotations

import numpy as np

from repro.common.errors import SolverError
from repro.graph import sparse as sparse_graph
from repro.linalg.algebra import get_algebra

#: ``format_route`` verdicts, in decreasing order of health.
ROUTE_OK = "ok"
ROUTE_UNREACHABLE = "unreachable"
ROUTE_MISMATCH = "mismatch"
ROUTE_ERROR = "error"


def fold_route(adjacency, path, algebra):
    """Fold a route's edge weights under the algebra's ⊗, edge by edge.

    ``adjacency`` is either the *prepared* dense matrix (algebra domain:
    missing edges hold the algebra's ``zero``) or a canonical CSR (stored
    entries are edges); only the route's own edges are indexed, so sparse
    inputs are never densified.  Raises :class:`SolverError` when a step of
    the path is not an edge — the fold must fail loudly rather than fold a
    "no edge" sentinel into the product.
    """
    algebra = get_algebra(algebra)
    sparse = sparse_graph.is_sparse(adjacency)
    dtype = np.dtype(adjacency.dtype)
    fold = algebra.one_like(dtype)
    zero = algebra.zero_like(dtype)
    for u, v in zip(path[:-1], path[1:]):
        if sparse:
            # CSR membership check: an absent entry reads as numeric 0,
            # which must not be mistaken for a zero-weight edge.
            raw = sparse_graph.csr_edge(adjacency, u, v)
            if raw is None:
                raise SolverError(f"route step {u} -> {v} is not an edge")
        else:
            raw = adjacency[u, v]
            if raw == zero:
                raise SolverError(f"route step {u} -> {v} is not an edge")
        if dtype == np.bool_:
            if not bool(raw):
                raise SolverError(f"route step {u} -> {v} is not an edge")
            continue
        fold = algebra.mul(fold, dtype.type(raw))
    return fold


def format_route(src, dst, path, closure, adjacency, algebra,
                 *, tolerances=None) -> tuple[str, str]:
    """Render one answered route as the canonical CLI line, with a verdict.

    ``path`` is the vertex sequence or ``None`` for an unreachable pair.
    Returns ``(line, verdict)`` where the verdict is one of :data:`ROUTE_OK`,
    :data:`ROUTE_UNREACHABLE` (healthy), :data:`ROUTE_MISMATCH` (the folded
    weight disagrees with the closure entry) or :data:`ROUTE_ERROR` (a step
    of the path is not an edge).  ``tolerances`` are ``np.isclose`` keywords
    for the numeric match.
    """
    algebra = get_algebra(algebra)
    if path is None:
        return f"route {src} -> {dst}: no path", ROUTE_UNREACHABLE
    try:
        fold = fold_route(adjacency, path, algebra)
    except SolverError as exc:
        return f"route {src} -> {dst}: error: {exc}", ROUTE_ERROR
    is_bool = np.dtype(np.asarray(closure).dtype) == np.bool_
    if is_bool:
        match = bool(fold) == bool(closure)
        weight_bit = "reachable"
    else:
        match = bool(np.isclose(float(fold), float(closure), **(tolerances or {})))
        weight_bit = f"weight={float(fold):g} closure={float(closure):g}"
    line = (f"route {src} -> {dst}: {' -> '.join(str(v) for v in path)} "
            f"({len(path) - 1} edge(s), {weight_bit}, "
            f"{'match' if match else 'MISMATCH'})")
    return line, ROUTE_OK if match else ROUTE_MISMATCH


def load_pairs_file(path: str, *, n: int | None = None) -> list[tuple[int, int]]:
    """Parse a query-pairs file: one ``SRC DST`` per line.

    Whitespace- or comma-separated, blank lines and ``#`` comments ignored —
    the format SNAP edge lists use, so a dataset's edge file can double as a
    replay workload.  With ``n`` given, endpoints are range-checked here so
    a bad file fails as a parse error (with a line number) rather than
    mid-replay.
    """
    pairs: list[tuple[int, int]] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, raw in enumerate(handle, start=1):
            text = raw.split("#", 1)[0].strip()
            if not text:
                continue
            fields = text.replace(",", " ").split()
            if len(fields) != 2:
                raise SolverError(
                    f"{path}:{lineno}: expected 'SRC DST', got {raw.strip()!r}")
            try:
                src, dst = int(fields[0]), int(fields[1])
            except ValueError as exc:
                raise SolverError(f"{path}:{lineno}: {exc}") from None
            if n is not None and not (0 <= src < n and 0 <= dst < n):
                raise SolverError(
                    f"{path}:{lineno}: pair ({src}, {dst}) out of range for n={n}")
            pairs.append((src, dst))
    return pairs


def _fmt_latency(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    if seconds >= 1e-3:
        return f"{seconds * 1e3:.2f}ms"
    return f"{seconds * 1e6:.0f}us"


def _fmt_bytes(nbytes) -> str:
    if nbytes is None:
        return "unbounded"
    value = float(nbytes)
    for unit in ("B", "KB", "MB", "GB"):
        if value < 1024 or unit == "GB":
            return f"{value:.0f}{unit}" if unit == "B" else f"{value:.1f}{unit}"
        value /= 1024
    return f"{value:.1f}GB"  # pragma: no cover - unreachable


def render_report(stats: dict) -> str:
    """Render a :meth:`RouteService.stats` snapshot as a human-readable report.

    One block, four lines: the query stream, its latency percentiles, the
    cache's hit/eviction behaviour against its budget, and the per-stage
    cost attribution (the serving pipeline's answer to "where did the time
    go?").
    """
    lines = [
        f"serving report: {stats['queries']} quer"
        f"{'y' if stats['queries'] == 1 else 'ies'} on n={stats['n']} "
        f"[{stats['algebra']}]"
        + (f", {stats['unreachable']} unreachable" if stats["unreachable"] else "")
        + (f", {stats['errors']} ERROR(S)" if stats["errors"] else ""),
        "  latency: "
        + "  ".join(f"{name} {_fmt_latency(stats[key])}" for name, key in (
            ("mean", "latency_mean_s"), ("p50", "latency_p50_s"),
            ("p95", "latency_p95_s"), ("p99", "latency_p99_s"),
            ("max", "latency_max_s")))
        + ("  (sampled)" if stats.get("latency_sampled") else ""),
        f"  cache: {stats['cache_hits']} hit(s) / {stats['cache_misses']} miss(es) "
        f"({stats['cache_hit_rate']:.1%} hit rate), "
        f"{stats['cache_evictions']} eviction(s); "
        f"{stats['cache_rows']} row(s) / {_fmt_bytes(stats['cache_bytes'])} held "
        f"(budget {_fmt_bytes(stats['cache_budget_bytes'])}"
        + (f", max {stats['cache_max_rows']} rows" if stats["cache_max_rows"] else "")
        + ")",
        "  stages: " + " | ".join(
            f"{stage} {stats['stage_counts'][stage]}x "
            f"{_fmt_latency(stats['stage_seconds'][stage])}"
            for stage in stats["stage_counts"]),
    ]
    return "\n".join(lines)
