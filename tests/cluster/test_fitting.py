"""Price table coverage: every registered kernel has its own rate.

:data:`repro.cluster.fitting.SECONDS_PER_UNIT` is the only place
``solver="auto"`` reads a price from.  Each kernel key the registered
algebras can emit carries its own rate, every feature a built-in plan emits
is priced, no rate is negative, pricing opens no file, and an algebra
registered at runtime is priced per byte at the paper's min-plus rate instead
of failing.
"""

from __future__ import annotations

import builtins
import io
import math
from dataclasses import replace

import numpy as np
import pytest

from repro.cluster import fitting
from repro.cluster.costmodel import MINPLUS_RATE
from repro.common.config import BACKENDS
from repro.core import registry
from repro.core.base import resolve_plan
from repro.core.request import SolveRequest
from repro.core.tuner import resolve_auto
from repro.graph import erdos_renyi_adjacency
from repro.linalg import algebra as algebra_mod
from repro.linalg.algebra import Semiring, algebra_catalog, register_algebra


def registry_ops_keys() -> list[str]:
    """Every ``ops:{algebra}|{dtype}|{storage}`` key the registries can emit."""
    return sorted(f"ops:{algebra.name}|{dtype}|{storage}"
                  for algebra in algebra_catalog()
                  for dtype in algebra.dtypes
                  for storage in algebra.storages)


def registry_plans(n: int = 48, total_cores: int = 2) -> list:
    """One resolved plan per registered solver × algebra × layout × dtype ×
    storage × paths combination the registries accept."""
    plans = []
    for info in registry.solver_catalog():
        for algebra in algebra_catalog():
            if algebra.name not in info.algebras:
                continue
            for layout in sorted(set(info.layouts) & set(algebra.layouts)):
                for dtype in algebra.dtypes:
                    for storage in algebra.storages:
                        for paths in (False, True):
                            if paths and not algebra.supports_witness:
                                continue
                            request = SolveRequest(
                                solver=info.name, algebra=algebra.name,
                                dtype=dtype, storage=storage, layout=layout,
                                paths=paths)
                            plans.append(resolve_plan(
                                request, n, symmetric=True,
                                total_cores=total_cores))
    return plans


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_feature_of_a_registered_plan_has_a_rate(backend):
    """The table prices every feature a built-in plan emits, on every backend."""
    plans = registry_plans()
    assert {plan.request.solver for plan in plans} == \
        set(registry.available_solvers())
    for plan in plans:
        features = fitting.plan_features(plan, backend=backend)
        assert set(features) <= set(fitting.SECONDS_PER_UNIT), plan.request
        assert fitting.predict_plan_seconds(plan, backend=backend) > 0.0


@pytest.mark.parametrize("backend", BACKENDS)
def test_paths_do_not_change_a_plans_features(backend):
    """A paths=True solve is the paths=False one plus a driver-side derive,
    so it is priced the same (no plane doubling)."""
    priced = 0
    for plan in registry_plans():
        if not plan.request.paths:
            continue
        bare = replace(plan, request=replace(plan.request, paths=False))
        assert fitting.plan_features(plan, backend=backend) \
            == fitting.plan_features(bare, backend=backend)
        priced += 1
    assert priced


def test_every_rate_is_finite_and_non_negative():
    for key, rate in fitting.SECONDS_PER_UNIT.items():
        assert isinstance(rate, float) and math.isfinite(rate), key
        assert rate >= 0.0, key


def test_auto_reads_no_file(monkeypatch):
    """``solver="auto"`` prices from the table alone: no file is opened."""
    adjacency = erdos_renyi_adjacency(64, seed=1)
    request = SolveRequest(solver="auto")
    expected = resolve_auto(request, adjacency)

    def refuse(*args, **kwargs):
        raise AssertionError(f"the tuner opened a file: {args!r}")

    monkeypatch.setattr(builtins, "open", refuse)
    monkeypatch.setattr(io, "open", refuse)
    assert resolve_auto(request, adjacency) == expected


def test_every_registered_kernel_has_its_own_rate():
    table_keys = sorted(key for key in fitting.SECONDS_PER_UNIT
                        if key.startswith("ops:"))
    assert table_keys == registry_ops_keys()
    assert len(table_keys) == 10


@pytest.fixture
def clone_algebra(monkeypatch):
    """A clone of (min, +) registered at runtime, gone after the test."""
    monkeypatch.setattr(algebra_mod, "_ALGEBRAS", dict(algebra_mod._ALGEBRAS))
    register_algebra(Semiring(name="clone", add_op=np.minimum, mul_op=np.add,
                              zero=np.inf, one=0.0))
    return "clone"


def test_runtime_algebra_resolves_auto(clone_algebra, monkeypatch):
    """A clone of (min, +) registered at runtime is priced, not refused."""
    blocked_cb = registry._REGISTRY["blocked-cb"]
    monkeypatch.setitem(registry._REGISTRY, "blocked-cb", replace(
        blocked_cb, algebras=blocked_cb.algebras + ("clone",)))

    request, decision = resolve_auto(SolveRequest(solver="auto", algebra="clone"),
                                     erdos_renyi_adjacency(64, seed=1))
    assert request.solver == "blocked-cb" and request.algebra == "clone"
    assert "ops:clone|float64|dense" not in fitting.SECONDS_PER_UNIT
    assert fitting._rate("ops:clone|float64|dense") == 8.0 / MINPLUS_RATE
    assert 0.0 < decision.predicted_seconds <= decision.default_predicted_seconds


def test_runtime_algebra_rate_scales_with_element_bytes(clone_algebra):
    """A kernel key the table lacks is priced per byte at the min-plus rate."""
    assert fitting._rate("ops:clone|float32|dense") == 4.0 / MINPLUS_RATE
    assert fitting._rate("ops:clone|float64|dense") == \
        2.0 * fitting._rate("ops:clone|float32|dense")
