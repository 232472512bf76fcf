"""Dynamic closure maintenance: batched edge updates on a cached solve.

A solved closure answers queries until the graph changes; historically any
change forced a full O(n³) re-closure.  The paper's own building blocks
contain the fix: the rank-1 ``FloydWarshallUpdate`` relaxes the whole closure
through one changed edge in O(n²), so a batch of k insertions costs O(k·n²).
This module holds the driver-side state and kernels behind
:meth:`~repro.core.engine.APSPEngine.update`:

* :class:`ClosureState` — the cached artifacts of one solve (closure,
  adjacency, optional parent matrix and packed-bitset mirror).  A batch
  runs on a private :meth:`~ClosureState.fork` and is published by
  :meth:`~ClosureState.commit`, so arrays a reader already holds are never
  written — every committed batch is a new version, the way each iteration
  of the paper's solvers derives a new RDD; a CSR adjacency stays CSR;
* *improvements* (insertions / weight decreases) as per-edge rank-1 sweeps
  through the dense or packed kernels — exact in any absorptive
  semiring because an optimal path uses a freshly improved edge at most
  once per orientation, so ``D ⊕ (D[:, u] ⊗ w) ⊗ D[v, :]`` *is* the new
  closure;
* *worsenings* (weight increases / deletions) via the restricted path: rows
  whose optimal paths ran through the old edge are detected from the cached
  closure (the tight-edge test of :mod:`repro.linalg.witness`), and only
  those rows are recomputed by a fixpoint over the Bellman equations with
  exact boundary values from the untouched rows;
* parents: a state that keeps a parent matrix derives the rows a batch
  changed once, after it (:func:`repro.linalg.witness.derive_parents`);
* cost-model terms (:func:`repro.cluster.costmodel.update_break_even`) that
  the engine consults to fall back to a full re-closure past the break-even
  batch size.

The decomposition behind the worsening fixpoint: for affected row set ``R``,
any path from ``i ∈ R`` either steps outside ``R`` — at which point the rest
is bounded by the (unchanged) closure row of that outside vertex — or stays
inside ``R`` to its destination.  Hence ``X = (A_RR)* ⊗ B`` with
``B = A[R, ~R] ⊗ D[~R, :] ⊕ I[R, :]``, reached by at most ``|R|`` Jacobi
iterations of ``X ← B ⊕ (A_RR ⊗ X)``.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

import numpy as np

from repro.cluster.costmodel import (full_resolve_seconds, rank1_update_seconds,
                                     update_break_even)
from repro.common.errors import ValidationError
from repro.core.request import EdgeUpdate
from repro.graph import sparse as sparse_mod
from repro.linalg import bitset, witness
from repro.linalg.algebra import get_algebra, validate_dag_weights
from repro.linalg.kernels import fw_rank1_update_inplace
from repro.linalg.semiring import semiring_product, semiring_relax


def coerce_edges(edges) -> list[EdgeUpdate]:
    """Normalize a batch into :class:`~repro.core.request.EdgeUpdate` values.

    Accepts ``EdgeUpdate`` instances, ``(u, v, weight)`` triples and
    ``(u, v)`` pairs (the latter meaning *deletion*, mirroring
    ``EdgeUpdate(u, v, None)``).
    """
    out: list[EdgeUpdate] = []
    for entry in edges:
        if isinstance(entry, EdgeUpdate):
            out.append(entry)
            continue
        try:
            out.append(EdgeUpdate(*entry))
        except TypeError:
            raise ValidationError(
                f"edge update must be an EdgeUpdate or a (u, v[, weight]) "
                f"tuple, got {entry!r}") from None
    return out


def update_batch_for_algebra(n: int, seed: int, algebra="shortest-path",
                             count: int = 1) -> list[EdgeUpdate]:
    """A deterministic batch of *improving* edge updates for an algebra.

    Weights are drawn to dominate the generators' edge-weight ranges under
    the algebra's ⊕ — shorter than any existing shortest-path edge, wider
    than any widest-path edge, more reliable than any probability edge —
    so against a :func:`~repro.graph.generators.graph_for_algebra` graph
    every update classifies as an improvement and takes the rank-1 sweep.
    Longest-path draws ordered ``u < v`` pairs so insertions keep the DAG
    acyclic.  Seeded, so CLI and chaos batches are identical across runs
    and machines.
    """
    name = get_algebra(algebra).name
    rng = np.random.default_rng(seed)
    edges: list[EdgeUpdate] = []
    while len(edges) < count:
        u, v = int(rng.integers(n)), int(rng.integers(n))
        if u == v:
            continue
        if name == "longest-path" and u > v:
            u, v = v, u
        if name == "reachability":
            weight: float | bool = True
        elif name == "most-reliable":
            weight = float(rng.uniform(0.96, 0.999))
        elif name == "widest-path":
            weight = float(rng.uniform(50.0, 100.0))
        elif name == "longest-path":
            weight = float(rng.uniform(20.0, 30.0))
        else:
            weight = float(rng.uniform(0.01, 0.5))
        edges.append(EdgeUpdate(u, v, weight))
    return edges


class ClosureState:
    """The cached artifacts of one solve that dynamic updates maintain.

    One instance is the session's closure for its whole life, but the
    arrays it holds are a *published version*: nothing writes them once they
    are bound here.  An update batch edits a private :meth:`fork` in place
    (rank-1 sweeps, row recomputes, or :meth:`adopt` of a re-solve), and
    :meth:`commit` rebinds this state to the draft — so a
    :class:`~repro.serve.service.RouteService` handed the old arrays keeps
    reading one consistent closure, and a failed batch is simply a dropped
    draft.  ``adjacency`` is the one edge source updates classify against
    and edit, held in the form it was ingested: a prepared dense
    algebra-domain matrix, or a canonical CSR that every edit rebinds to a
    *new* CSR (:func:`~repro.graph.sparse.csr_with_edge`, O(nnz)).
    Packed-storage solves additionally carry a
    :class:`~repro.linalg.bitset.PackedBlock` mirror of the closure so the
    rank-1 sweeps run on words, not bytes.
    """

    def __init__(self, result, adjacency) -> None:
        #: The concrete request the closure was solved with (re-solves reuse it).
        self.request = request = result.request
        self.algebra = get_algebra(request.algebra)
        self.distances = result.distances
        self.parents = result.parents
        self.adjacency = (adjacency if sparse_mod.is_sparse(adjacency)
                          else np.asarray(adjacency))
        self.packed = (bitset.PackedBlock.from_dense(self.distances)
                       if request.storage == "packed" else None)
        self.updates_applied = 0
        self.edges_applied = 0
        self._undirected: bool | None = None

    # ------------------------------------------------------------------
    @property
    def n(self) -> int:
        """Vertex count of the cached closure."""
        return int(self.distances.shape[0])

    @property
    def has_parents(self) -> bool:
        """True when the state maintains a predecessor matrix."""
        return self.parents is not None

    @property
    def undirected(self) -> bool:
        """True when edges are undirected (mutations mirror both cells).

        Triangular-layout solves are undirected by construction; full-grid
        solves are undirected exactly when the user did not declare
        ``directed=True`` and the adjacency is symmetric (sniffed once).
        """
        if self._undirected is None:
            if self.request.layout == "triangular":
                self._undirected = True
            elif self.request.directed:
                self._undirected = False
            else:
                from repro.graph.adjacency import is_symmetric_adjacency
                self._undirected = is_symmetric_adjacency(self.adjacency)
        return self._undirected

    # ------------------------------------------------------------------
    def fork(self) -> "ClosureState":
        """A private draft of this state for one update batch to work on.

        ``distances`` / ``parents`` (and a dense adjacency) are copied —
        O(n²), bounded by the cost of a single rank-1 sweep — so the batch
        may write them freely; a CSR adjacency is held by reference, since
        edits rebind it and never write the old object.
        """
        draft = copy.copy(self)
        draft.distances = self.distances.copy()
        if self.parents is not None:
            draft.parents = self.parents.copy()
        if not sparse_mod.is_sparse(self.adjacency):
            draft.adjacency = self.adjacency.copy()
        if self.packed is not None:
            draft.packed = self.packed.copy()
        return draft

    def adopt(self, result) -> None:
        """Bind a fresh re-solve of this draft's adjacency (resolve fallback)."""
        if self.parents is not None and result.parents is None:
            raise ValidationError(
                "re-solve of a closure with parents returned none")
        self.distances, self.parents = result.distances, result.parents
        if self.packed is not None:
            self.packed = bitset.PackedBlock.from_dense(self.distances)

    def commit(self, draft: "ClosureState") -> None:
        """Publish a finished draft: rebind every field of this state to it.

        The arrays this state held before are never written again, so a
        reader still holding them keeps one consistent version.
        """
        vars(self).update(vars(draft))


@dataclass
class UpdateOutcome:
    """What actually happened while applying (part of) a batch."""

    improvements: int = 0
    worsenings: int = 0
    noops: int = 0
    affected_rows: int = 0
    fallback_reason: str | None = None
    changed: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))


def update_estimates(state: ClosureState, batch_size: int) -> dict:
    """Cost-model verdict for a batch against this state: sweep vs re-solve."""
    orientations = 2 if state.undirected else 1
    kwargs = dict(algebra=state.algebra, dtype=state.request.dtype,
                  storage=state.request.storage)
    per_edge = rank1_update_seconds(state.n, orientations=orientations,
                                    **kwargs)
    resolve = full_resolve_seconds(state.n, **kwargs)
    break_even = update_break_even(state.n, orientations=orientations,
                                   **kwargs)
    return {
        "per_edge_seconds": per_edge,
        "incremental_seconds": per_edge * max(0, int(batch_size)),
        "resolve_seconds": resolve,
        "break_even_edges": break_even,
    }


# ---------------------------------------------------------------------------
# Batch application
# ---------------------------------------------------------------------------
def apply_incremental(state: ClosureState, edges: list[EdgeUpdate], *,
                      allow_fallback: bool = True) -> UpdateOutcome:
    """Apply a batch edge by edge, keeping the closure exact after each.

    Improvements run as rank-1 sweeps; worsenings detect their affected rows
    and recompute only those; a state with parents then derives the parent
    rows of every changed row.  When a worsening's affected set is too large
    for the restricted path to pay off (more than a quarter of all rows) and
    ``allow_fallback`` is set, the remaining edges are folded into the
    adjacency without sweeping and ``fallback_reason`` tells the engine to
    re-solve instead — the state is left adjacency-complete either way.
    """
    algebra, dist = state.algebra, state.distances
    dtype = dist.dtype
    n = state.n
    outcome = UpdateOutcome(changed=np.zeros(n, dtype=bool))
    rtol = witness._tight_rtol(dtype)
    for index, edge in enumerate(edges):
        _check_endpoints(edge, n)
        new = _domain_value(algebra, dtype, edge.weight)
        old = _edge_value(state, edge.u, edge.v)
        kind = _classify(algebra, old, new)
        if kind == "noop":
            outcome.noops += 1
            continue
        if kind == "improve":
            outcome.improvements += 1
            _set_edge(state, edge.u, edge.v, new)
            outcome.changed |= _improve_sweep(state, edge.u, edge.v, new)
            continue
        outcome.worsenings += 1
        affected = _affected_rows(state, edge.u, edge.v, old, rtol)
        _set_edge(state, edge.u, edge.v, new)
        count = int(affected.sum())
        outcome.affected_rows += count
        if count == 0:
            continue
        if allow_fallback and count > max(8, n // 4):
            outcome.fallback_reason = (
                f"worsening ({edge.u}, {edge.v}) touches {count}/{n} rows")
            fold_edges(state, edges[index + 1:], outcome)
            outcome.changed[:] = True
            return outcome
        _recompute_rows(state, affected)
        outcome.changed |= affected
    if state.has_parents and outcome.changed.any():
        # A row whose distances did not move keeps a valid parent row: a
        # parent edge the batch worsened marks its row affected, and one it
        # improved changes its row's distances.
        rows = np.flatnonzero(outcome.changed)
        edges = witness.CsrEdges.of(state.adjacency, algebra, dtype)
        state.parents[rows] = witness.derive_parents(dist, edges, algebra,
                                                     rows)
    return outcome


def fold_edges(state: ClosureState, edges: list[EdgeUpdate],
               outcome: UpdateOutcome) -> UpdateOutcome:
    """Classify and write a batch into the adjacency without touching the closure.

    The resolve path: the engine re-solves from the mutated adjacency
    afterwards, so only the classification counters and the adjacency itself
    are maintained here.
    """
    algebra = state.algebra
    dtype = state.distances.dtype
    for edge in edges:
        _check_endpoints(edge, state.n)
        new = _domain_value(algebra, dtype, edge.weight)
        old = _edge_value(state, edge.u, edge.v)
        kind = _classify(algebra, old, new)
        if kind == "noop":
            outcome.noops += 1
            continue
        if kind == "improve":
            outcome.improvements += 1
        else:
            outcome.worsenings += 1
        _set_edge(state, edge.u, edge.v, new)
    return outcome


# ---------------------------------------------------------------------------
# Per-edge mechanics
# ---------------------------------------------------------------------------
def _check_endpoints(edge: EdgeUpdate, n: int) -> None:
    if edge.u >= n or edge.v >= n:
        raise ValidationError(
            f"edge update ({edge.u}, {edge.v}) out of range for n={n}")


def _domain_value(algebra, dtype, weight):
    """Map a canonical edge weight (or None = delete) into the algebra domain."""
    zero = algebra.zero_like(dtype)
    if weight is None:
        return zero
    if np.dtype(dtype) == np.bool_:
        # Any finite weight is an edge (0.0 included), as at ingestion.
        return np.bool_(np.isfinite(weight))
    value = np.dtype(dtype).type(weight)
    if np.isfinite(value) and algebra.input_validator is not validate_dag_weights:
        algebra.validate_input(np.asarray([value]), "edge weight")
    if not np.isfinite(value):
        # Canonical non-finite means "no edge", exactly as ingestion treats it.
        return zero
    return value


def _classify(algebra, old, new) -> str:
    """``noop`` / ``improve`` (⊕ picks new) / ``worsen`` (⊕ keeps old)."""
    if old == new:
        return "noop"
    combined = algebra.add(np.asarray(old), np.asarray(new))
    return "improve" if combined == new else "worsen"


def _edge_value(state: ClosureState, u: int, v: int):
    """Edge ``(u, v)`` in the algebra's domain and the closure's dtype.

    An unstored CSR cell reads as the algebra's ``zero``; a stored boolean
    entry is an edge whatever its value (the ingestion rule).
    """
    adj = state.adjacency
    if not sparse_mod.is_sparse(adj):
        return adj[u, v]
    dtype = state.distances.dtype
    stored = sparse_mod.csr_edge(adj, u, v)
    if stored is None:
        return state.algebra.zero_like(dtype)
    return np.True_ if dtype == np.bool_ else dtype.type(stored)


def _set_edge(state: ClosureState, u: int, v: int, value) -> None:
    adj = state.adjacency
    if sparse_mod.is_sparse(adj):
        if value == state.algebra.zero_like(state.distances.dtype):
            value = None  # the domain's "no edge" is an unstored cell
        state.adjacency = sparse_mod.csr_with_edge(adj, u, v, value,
                                                   mirror=state.undirected)
        return
    adj[u, v] = value
    if state.undirected:
        adj[v, u] = value


def _improve_sweep(state: ClosureState, u: int, v: int, weight) -> np.ndarray:
    """Rank-1 relaxation through an improved edge; returns the changed-row mask.

    Undirected edges sweep both orientations sequentially — the second sweep
    sees the first's improvements, which is exactly the sequential-batch
    semantics the correctness argument needs.
    """
    algebra, dist = state.algebra, state.distances
    n = state.n
    changed = np.zeros(n, dtype=bool)
    orientations = [(u, v)] + ([(v, u)] if state.undirected else [])
    for a, b in orientations:
        col = algebra.mul(dist[:, a], weight)
        block = dist if state.packed is None else state.packed
        mask = fw_rank1_update_inplace(block, col, dist[b, :], algebra)
        if state.packed is not None and mask.any():
            rows = np.flatnonzero(mask)
            dist[rows] = bitset.unpack_bits(state.packed.words[rows], n)
        changed |= mask
    return changed


def _affected_rows(state: ClosureState, u: int, v: int, old,
                   rtol: float) -> np.ndarray:
    """Rows whose *some* optimal path runs through the (still-old) edge.

    The full tight-edge test ``D[i, u] ⊗ w_old ⊗ D[v, j] == D[i, j]`` over
    all destinations ``j`` — not just ``j == v`` — because subpath
    optimality fails in bottleneck algebras (a widest ``i -> j`` path can
    cross the edge even though ``i -> v`` has a wider detour).  Boolean
    closures use the conservative superset "reaches ``u``" (any tie makes a
    cell tight).  Rows outside the returned mask keep exact values under a
    pure worsening: no better path appears, and their optimal ones avoid
    the edge.
    """
    algebra, dist = state.algebra, state.distances
    dtype = dist.dtype
    zero = algebra.zero_like(dtype)
    n = state.n
    if old == zero:
        return np.zeros(n, dtype=bool)

    def orientation(a: int, b: int) -> np.ndarray:
        if dtype == np.bool_:
            return dist[:, a].copy()
        through = algebra.mul(dist[:, a], old)
        candidate = algebra.mul(through[:, None], dist[b, None, :])
        tight = np.isclose(candidate, dist, rtol=rtol, atol=rtol) \
            & (candidate != zero)
        return tight.any(axis=1)

    affected = orientation(u, v)
    if state.undirected:
        affected |= orientation(v, u)
    return affected


def _recompute_rows(state: ClosureState, affected: np.ndarray) -> None:
    """Fixpoint-recompute the affected closure rows against the new adjacency.

    ``X = (A_RR)* ⊗ B`` with boundary ``B = A[R, ~R] ⊗ D[~R, :] ⊕ I[R, :]``
    (see the module docstring), converging in at most ``|R|`` iterations.
    """
    algebra, dist = state.algebra, state.distances
    adj = state.adjacency
    dtype = dist.dtype
    zero = algebra.zero_like(dtype)
    one = algebra.one_like(dtype)
    n = state.n
    rows = np.flatnonzero(affected)
    others = np.flatnonzero(~affected)
    local = np.arange(rows.size)
    # The affected rows as a dense |R| x n domain panel, from either form; a
    # CSR stores no diagonal, the dense plane has ``one`` there.
    panel = witness._adjacency_row_values(adj, rows, algebra, dtype)
    panel[local, rows] = one
    if others.size:
        boundary = semiring_product(np.ascontiguousarray(panel[:, others]),
                                    dist[others, :], algebra)
    else:
        boundary = np.full((rows.size, n), zero, dtype=dtype)
    boundary[local, rows] = algebra.add(boundary[local, rows],
                                        np.full(rows.size, one, dtype=dtype))
    a_rr = np.ascontiguousarray(panel[:, rows])
    solution = boundary
    for _ in range(rows.size):
        relaxed = semiring_relax(boundary, a_rr, solution, algebra)
        converged = bool(np.array_equal(relaxed, solution))
        solution = relaxed
        if converged:
            break
    dist[rows, :] = solution
    if state.packed is not None:
        state.packed.words[rows] = bitset.pack_bits(dist[rows, :])
        state.packed.invalidate_popcount()
