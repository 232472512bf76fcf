"""Golden table: every ``solver="auto"`` decision the price table makes.

:func:`repro.core.tuner.resolve_auto` is run over every algebra orientation ×
n ∈ {48, 256, 768, 1024, 1536} × dense/CSR input × backend, pricing with
:data:`repro.cluster.fitting.SECONDS_PER_UNIT`.  Each cell's solver, block
size, storage, layout and recommended backend must match
``tuner_decisions.tsv`` exactly, and both predicted walls to 1e-9 relative.
A change to the table or to the cost model moves this golden file;
regenerate it with::

    PYTHONPATH=src python tests/core/test_tuner_decisions.py

and review the diff — every changed row is a changed auto-tuner choice.
"""

from __future__ import annotations

import csv
import functools
import os

import numpy as np
import pytest
import scipy.sparse as sp

from repro.common.config import BACKENDS, EngineConfig
from repro.core.request import SolveRequest
from repro.core.tuner import resolve_auto
from repro.graph.generators import graph_for_algebra
from repro.linalg.algebra import available_algebras, get_algebra

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "tuner_decisions.tsv")

SIZES = (48, 256, 768, 1024, 1536)
FORMS = ("dense", "csr")
KEY = ("algebra", "n", "directed", "form", "backend")
DECISION = ("solver", "block_size", "storage", "layout", "recommended_backend")
WALLS = ("predicted_seconds", "default_predicted_seconds")
COLUMNS = KEY + DECISION + WALLS

#: Longest path needs a DAG, hence directed-only (as in ``test_tuner``).
GRID = [
    (algebra, n, directed, form, backend)
    for algebra in available_algebras()
    for n in SIZES
    for directed in ((True,) if algebra == "longest-path" else (False, True))
    for form in FORMS
    for backend in BACKENDS
]


@functools.lru_cache(maxsize=1)
def inputs(algebra: str, n: int, directed: bool) -> dict:
    """The dense ``graph_for_algebra`` graph and its CSR twin."""
    dense = graph_for_algebra(n, 1, algebra, directed=directed)
    if dense.dtype == np.bool_:
        connected = dense.copy()
    else:
        with np.errstate(invalid="ignore"):
            connected = np.isfinite(dense) & (dense != get_algebra(algebra).zero)
    np.fill_diagonal(connected, False)
    rows, cols = np.nonzero(connected)
    csr = sp.csr_matrix((dense[rows, cols], (rows, cols)), shape=(n, n))
    return {"dense": dense, "csr": csr}


def decide(algebra: str, n: int, directed: bool, form: str,
           backend: str) -> dict:
    """One golden row: the cell's key, its decision and both predicted walls."""
    request = SolveRequest(solver="auto", algebra=algebra, directed=directed)
    _, decision = resolve_auto(request, inputs(algebra, n, directed)[form],
                               config=EngineConfig(backend=backend))
    row = dict(zip(KEY, (algebra, n, directed, form, backend)))
    row.update({name: getattr(decision, name) for name in DECISION + WALLS})
    return row


def load_golden() -> dict:
    with open(GOLDEN_PATH, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh, delimiter="\t"))
    return {tuple(row[name] for name in KEY): row for row in rows}


def cell_id(cell) -> str:
    algebra, n, directed, form, backend = cell
    return (f"{algebra}-n{n}-{'directed' if directed else 'undirected'}"
            f"-{form}-{backend}")


@pytest.fixture(scope="module")
def golden():
    return load_golden()


def test_golden_table_covers_the_grid(golden):
    assert sorted(golden) == sorted(tuple(map(str, cell)) for cell in GRID)


@pytest.mark.parametrize("cell", GRID, ids=cell_id)
def test_decision_matches_golden(cell, golden):
    row = decide(*cell)
    expected = golden[tuple(map(str, cell))]
    assert {name: str(row[name]) for name in DECISION} == \
        {name: expected[name] for name in DECISION}
    for name in WALLS:
        assert row[name] == pytest.approx(float(expected[name]), rel=1e-9), name


if __name__ == "__main__":
    with open(GOLDEN_PATH, "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=COLUMNS, delimiter="\t",
                                lineterminator="\n")
        writer.writeheader()
        for cell in GRID:
            row = decide(*cell)
            writer.writerow({**row, **{name: repr(row[name]) for name in WALLS}})
    print(f"wrote {len(GRID)} rows to {GOLDEN_PATH}")
