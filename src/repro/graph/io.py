"""Simple persistence for graphs and distance matrices.

The paper's artifact ships benchmark data as edge lists; these helpers provide
an equivalent plain-text format plus ``.npy`` round-tripping for matrices, and
converters for the two interchange formats external graph collections actually
use — whitespace edge lists (SNAP, DIMACS ``.gr``-style dumps) and MatrixMarket
coordinate files (SuiteSparse) — so downloaded datasets flow straight into the
sparse CSR ingestion path without a densifying detour.
"""

from __future__ import annotations

import os
from typing import Any, NamedTuple

import numpy as np

from repro.common.errors import ValidationError
from repro.common.validation import check_square_matrix
from repro.graph.adjacency import is_symmetric_adjacency


class LoadedGraph(NamedTuple):
    """A loaded adjacency plus the directedness the source file resolved to.

    ``directed`` comes from the file itself — a ``directed=`` comment token,
    MatrixMarket symmetry, or (for opaque binary formats) a symmetry sniff —
    so callers can feed ``layout="auto"`` without a second pass over the data.
    """

    adjacency: Any
    directed: bool


def save_edge_list(adjacency: np.ndarray, path: str | os.PathLike, *,
                   directed: bool = False) -> int:
    """Write the finite, non-diagonal entries of ``adjacency`` as ``u v w`` lines.

    Returns the number of edges written.  For undirected graphs only the upper
    triangle is written.
    """
    arr = check_square_matrix(adjacency)
    n = arr.shape[0]
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n={n} directed={int(directed)}\n")
        rows, cols = np.nonzero(np.isfinite(arr))
        for u, v in zip(rows.tolist(), cols.tolist()):
            if u == v:
                continue
            if not directed and u > v:
                continue
            fh.write(f"{u} {v} {float(arr[u, v])!r}\n")
            count += 1
    return count


def save_matrix(matrix: np.ndarray, path: str | os.PathLike) -> None:
    """Save a dense matrix to ``.npy``."""
    np.save(path, np.asarray(matrix, dtype=np.float64))


def load_matrix(path: str | os.PathLike) -> np.ndarray:
    """Load a dense matrix saved by :func:`save_matrix`."""
    return np.asarray(np.load(path), dtype=np.float64)


def save_sparse_npz(adjacency, path: str | os.PathLike) -> None:
    """Save a SciPy sparse adjacency matrix to ``.npz`` (CSR on disk).

    The on-disk format is :func:`scipy.sparse.save_npz`'s, so files
    round-trip with plain SciPy too; stored entries are edges, unstored
    cells "no edge" (see :mod:`repro.graph.sparse`).
    """
    import scipy.sparse as sp
    if not sp.issparse(adjacency):
        raise ValidationError("save_sparse_npz expects a scipy.sparse matrix")
    sp.save_npz(os.fspath(path), adjacency.tocsr())


def load_sparse_npz(path: str | os.PathLike):
    """Load a ``.npz`` CSR adjacency saved by :func:`save_sparse_npz` (or SciPy)."""
    import scipy.sparse as sp
    matrix = sp.load_npz(os.fspath(path))
    return matrix.tocsr()


# ---------------------------------------------------------------------------
# External interchange formats -> canonical CSR
# ---------------------------------------------------------------------------

def _edges_to_csr(rows, cols, vals, n: int):
    """Build a canonical CSR from COO triples, deduplicating with ``min``.

    ``scipy``'s COO->CSR conversion *sums* duplicate entries — wrong for
    edge weights, where a repeated edge should keep its best (minimum)
    weight.  Duplicates are collapsed here first: lexsort by (row, col),
    then a grouped ``np.minimum.reduceat``.  Self-loops are dropped (the
    canonical CSR stores off-diagonal edges only; the diagonal is implied
    by the algebra's ``one``).
    """
    import scipy.sparse as sp
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.float64)
    keep = rows != cols
    rows, cols, vals = rows[keep], cols[keep], vals[keep]
    if rows.size:
        order = np.lexsort((cols, rows))
        rows, cols, vals = rows[order], cols[order], vals[order]
        first = np.empty(rows.size, dtype=bool)
        first[0] = True
        first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
        starts = np.nonzero(first)[0]
        rows, cols = rows[starts], cols[starts]
        vals = np.minimum.reduceat(vals, starts)
    return sp.csr_matrix((vals, (rows, cols)), shape=(n, n))


def load_external_edges(path: str | os.PathLike, *, directed: bool = False,
                        default_weight: float = 1.0):
    """Load a plain-text edge list (SNAP/DIMACS style) as a canonical CSR.

    Accepts ``u v`` or ``u v w`` lines, whitespace- or comma-separated;
    ``#`` and ``%`` start comments.  Unweighted lines get ``default_weight``.
    Vertex ids are taken verbatim (0-based), with ``n`` inferred as the
    largest id + 1; a comment token ``n=N`` pins it explicitly and
    ``directed=0/1`` overrides the keyword.  This is the reader of
    :func:`save_edge_list`'s format too: its ``# n=N directed=0/1`` header
    restores the vertex count and orientation.  The default
    ``directed=False`` matches :func:`save_edge_list`,
    :func:`repro.graph.adjacency.adjacency_from_edges` and :func:`load_mtx` —
    the repo-wide canonical default.  Undirected edges are mirrored,
    duplicates keep their minimum weight, self-loops are dropped.
    """
    return _load_external_edges_resolved(
        path, directed=directed, default_weight=default_weight)[0]


def _load_external_edges_resolved(path: str | os.PathLike, *,
                                  directed: bool = False,
                                  default_weight: float = 1.0):
    """:func:`load_external_edges` body, also returning resolved directedness."""
    n: int | None = None
    src: list[int] = []
    dst: list[int] = []
    wts: list[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            comment = line[:1] in ("#", "%")
            if comment:
                for token in line[1:].split():
                    if token.startswith("n="):
                        n = int(token[2:])
                    elif token.startswith("directed="):
                        directed = bool(int(token[len("directed="):]))
            if not line or comment:
                continue
            fields = line.replace(",", " ").split()
            if len(fields) not in (2, 3):
                raise ValidationError(
                    f"{path}:{lineno}: expected 'u v [w]', got {raw.strip()!r}")
            try:
                u, v = int(fields[0]), int(fields[1])
                w = float(fields[2]) if len(fields) == 3 else float(default_weight)
            except ValueError as exc:
                raise ValidationError(f"{path}:{lineno}: {exc}") from None
            if u < 0 or v < 0:
                raise ValidationError(
                    f"{path}:{lineno}: vertex ids must be >= 0, got ({u}, {v})")
            src.append(u)
            dst.append(v)
            wts.append(w)
    inferred = 1 + max((max(pair) for pair in zip(src, dst)), default=-1)
    if n is None:
        n = inferred
    elif inferred > n:
        raise ValidationError(
            f"{path}: vertex id {inferred - 1} out of range for declared n={n}")
    if not directed:
        src, dst = src + dst, dst + src
        wts = wts + wts
    return _edges_to_csr(src, dst, wts, n), directed


def load_mtx(path: str | os.PathLike):
    """Load a MatrixMarket coordinate file (``.mtx``) as a canonical CSR.

    Supports the ``coordinate`` layout with ``real``/``integer``/``pattern``
    fields and ``general``/``symmetric`` symmetry — the combinations the
    SuiteSparse collection's graph matrices use.  ``pattern`` entries (no
    stored value) become weight-1 edges; symmetric files are mirrored;
    indices are converted from MatrixMarket's 1-based convention.  A
    ``directed=0/1`` token in a ``%`` comment line records directedness the
    same way edge-list comments do (see :func:`_load_mtx_resolved`).
    """
    return _load_mtx_resolved(path)[0]


def _load_mtx_resolved(path: str | os.PathLike):
    """:func:`load_mtx` body, also returning resolved directedness.

    ``symmetric`` files are undirected by construction.  For ``general``
    files a ``directed=0/1`` comment token wins; without one the stored
    entries are sniffed for symmetry, so a general-symmetry export of an
    undirected graph still reports ``directed=False``.
    """
    directed: bool | None = None
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        if not header.startswith("%%MatrixMarket"):
            raise ValidationError(f"{path}: missing %%MatrixMarket header")
        tokens = header.split()
        if len(tokens) < 5 or tokens[1].lower() != "matrix" \
                or tokens[2].lower() != "coordinate":
            raise ValidationError(
                f"{path}: only 'matrix coordinate' MatrixMarket files are "
                f"supported, got {header.strip()!r}")
        field = tokens[3].lower()
        symmetry = tokens[4].lower()
        if field not in ("real", "integer", "pattern"):
            raise ValidationError(
                f"{path}: unsupported MatrixMarket field {field!r} "
                "(expected real, integer or pattern)")
        if symmetry not in ("general", "symmetric"):
            raise ValidationError(
                f"{path}: unsupported MatrixMarket symmetry {symmetry!r} "
                "(expected general or symmetric)")
        dims = None
        src: list[int] = []
        dst: list[int] = []
        wts: list[float] = []
        for lineno, raw in enumerate(fh, start=2):
            line = raw.strip()
            if line.startswith("%"):
                for token in line.lstrip("%").split():
                    if token.startswith("directed="):
                        directed = bool(int(token[len("directed="):]))
                continue
            if not line:
                continue
            fields = line.split()
            if dims is None:
                if len(fields) != 3:
                    raise ValidationError(
                        f"{path}:{lineno}: expected 'rows cols nnz' size line")
                rows_count, cols_count, _ = (int(f) for f in fields)
                if rows_count != cols_count:
                    raise ValidationError(
                        f"{path}: adjacency must be square, got "
                        f"{rows_count} x {cols_count}")
                dims = rows_count
                continue
            expected = 2 if field == "pattern" else 3
            if len(fields) != expected:
                raise ValidationError(
                    f"{path}:{lineno}: expected {expected} fields, "
                    f"got {raw.strip()!r}")
            u, v = int(fields[0]) - 1, int(fields[1]) - 1
            if not (0 <= u < dims and 0 <= v < dims):
                raise ValidationError(
                    f"{path}:{lineno}: entry ({u + 1}, {v + 1}) out of range "
                    f"for n={dims}")
            w = 1.0 if field == "pattern" else float(fields[2])
            src.append(u)
            dst.append(v)
            wts.append(w)
    if dims is None:
        raise ValidationError(f"{path}: missing MatrixMarket size line")
    if symmetry == "symmetric":
        src, dst = src + dst, dst + src
        wts = wts + wts
        directed = False
    csr = _edges_to_csr(src, dst, wts, dims)
    if directed is None:
        directed = not is_symmetric_adjacency(csr)
    return csr, directed


def load_graph(path: str | os.PathLike) -> LoadedGraph:
    """Load a graph by extension, returning :class:`LoadedGraph`.

    ``.npz`` -> CSR (:func:`load_sparse_npz`), ``.npy`` -> dense
    (:func:`load_matrix`), ``.mtx`` -> CSR (:func:`load_mtx`), anything else
    -> plain-text edge list as CSR (:func:`load_external_edges`).  This is
    the single ingestion front door the CLI's ``--input`` and ``convert``
    commands use.

    The returned tuple carries the source's directedness alongside the
    adjacency: text formats resolve it from their ``directed=`` comment
    tokens (or MatrixMarket symmetry), binary formats (``.npz``/``.npy``)
    sniff structural symmetry — either way a single pass decides how
    ``layout="auto"`` should treat the graph.  A graph with no vertices
    (an empty edge list, say) raises :class:`ValidationError`.
    """
    name = os.fspath(path)
    lower = name.lower()
    if lower.endswith(".npz"):
        csr = load_sparse_npz(name)
        loaded = LoadedGraph(csr, not is_symmetric_adjacency(csr))
    elif lower.endswith(".npy"):
        dense = load_matrix(name)
        loaded = LoadedGraph(dense, not is_symmetric_adjacency(dense))
    elif lower.endswith(".mtx"):
        loaded = LoadedGraph(*_load_mtx_resolved(name))
    else:
        loaded = LoadedGraph(*_load_external_edges_resolved(name))
    if loaded.adjacency.shape[0] == 0:
        raise ValidationError("the graph has no vertices")
    return loaded


def convert_graph(source: str | os.PathLike, target: str | os.PathLike) -> tuple[int, int]:
    """Convert any :func:`load_graph` input into ``.npz`` CSR or ``.npy`` dense.

    Returns ``(n, nnz)`` of the converted graph.  Dense sources become CSR
    by taking their finite off-diagonal entries as edges; CSR sources become
    dense through the canonical expansion (``inf`` for missing edges).
    """
    from repro.graph import sparse as sparse_mod
    graph = load_graph(source).adjacency
    lower = os.fspath(target).lower()
    sparse = sparse_mod.is_sparse(graph)
    if lower.endswith(".npz"):
        if not sparse:
            arr = check_square_matrix(graph)
            mask = np.isfinite(arr) & ~np.eye(arr.shape[0], dtype=bool)
            rows, cols = np.nonzero(mask)
            graph = _edges_to_csr(rows, cols, arr[rows, cols], arr.shape[0])
        save_sparse_npz(graph, target)
        return graph.shape[0], int(graph.nnz)
    if lower.endswith(".npy"):
        if sparse:
            graph = sparse_mod.sparse_to_dense(graph)
        nnz = int(np.isfinite(graph).sum() - graph.shape[0])
        save_matrix(graph, target)
        return graph.shape[0], nnz
    raise ValidationError(
        f"unsupported convert target {os.fspath(target)!r} "
        "(expected .npz sparse CSR or .npy dense)")
