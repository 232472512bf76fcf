"""Tests for the analytic cost model: iteration counts, shapes, and paper anchors."""

import pytest

from repro.cluster.costmodel import CostModel
from repro.common.errors import ConfigurationError
from repro.core.base import SparkAPSPSolver
from repro.core.registry import (register_solver, solver_catalog, solver_shape,
                                 unregister_solver)

HOUR = 3600.0
DAY = 24 * HOUR


@pytest.fixture(scope="module")
def model() -> CostModel:
    return CostModel()


def shape(solver, n, block_size, layout="triangular"):
    """The registered shape of a float64 solve."""
    return solver_shape(solver, n, block_size, layout, 8.0)


class TestIterationCounts:
    """Shape iteration counts must match the 'Iterations' column of Table 2 exactly."""

    @pytest.mark.parametrize("solver,b,expected", [
        ("repeated-squaring", 256, 18432),
        ("repeated-squaring", 1024, 4608),
        ("repeated-squaring", 4096, 1152),
        ("fw-2d", 256, 262144),
        ("fw-2d", 4096, 262144),
        ("blocked-im", 256, 1024),
        ("blocked-im", 1024, 256),
        ("blocked-im", 4096, 64),
        ("blocked-cb", 2048, 128),
    ])
    def test_table2_iteration_column(self, model, solver, b, expected):
        assert shape(solver, 262144, b).iterations == expected

    def test_every_builtin_solver_states_a_shape(self):
        assert {info.name for info in solver_catalog() if info.shape} == \
            {"repeated-squaring", "fw-2d", "blocked-im", "blocked-cb"}

    def test_unknown_solver_rejected(self, model):
        with pytest.raises(ConfigurationError, match="unknown solver"):
            shape("dijkstra", 1024, 64)
        with pytest.raises(ConfigurationError, match="unknown solver"):
            model.project("dijkstra", 1024, 64, 16)

    def test_solver_without_a_shape_rejected(self, model):
        @register_solver
        class Shapeless(SparkAPSPSolver):
            name = "shapeless"

        try:
            with pytest.raises(ConfigurationError, match="shapeless.*no shape"):
                model.project("shapeless", 1024, 64, 16)
        finally:
            unregister_solver("shapeless")


class TestProjectionShapes:
    """The qualitative findings of Table 2 / Figure 3 / Table 3."""

    def test_squaring_and_fw2d_projected_in_days(self, model):
        rs = model.project("repeated-squaring", 262144, 1024, 1024)
        fw = model.project("fw-2d", 262144, 1024, 1024)
        assert rs.projected_total_seconds > 4 * DAY      # 4.9 days at b=1024
        assert fw.projected_total_seconds > 20 * DAY

    def test_blocked_methods_projected_in_hours(self, model):
        cb = model.project("blocked-cb", 262144, 1024, 1024)
        im = model.project("blocked-im", 262144, 1024, 1024)
        assert 4 * HOUR < cb.projected_total_seconds < 16 * HOUR
        assert 4 * HOUR < im.projected_total_seconds < 16 * HOUR

    def test_blocked_methods_dominate_naive_methods(self, model):
        cb = model.project("blocked-cb", 262144, 1024, 1024)
        for slow in ("repeated-squaring", "fw-2d"):
            assert model.project(slow, 262144, 1024, 1024).projected_total_seconds > \
                5 * cb.projected_total_seconds

    def test_cb_beats_im_per_iteration(self, model):
        cb = model.project("blocked-cb", 262144, 1024, 1024)
        im = model.project("blocked-im", 262144, 1024, 1024)
        assert cb.single_iteration_seconds < im.single_iteration_seconds

    def test_paper_anchor_blocked_cb_b1024(self, model):
        # Paper: single iteration ~1m40s, projected 7h08m.  Accept a 2x band.
        proj = model.project("blocked-cb", 262144, 1024, 1024)
        assert 50 < proj.single_iteration_seconds < 200
        assert 3.5 * HOUR < proj.projected_total_seconds < 14 * HOUR

    def test_paper_anchor_blocked_im_b2048(self, model):
        # Paper: single iteration 3m44s, projected 7h59m.
        proj = model.project("blocked-im", 262144, 2048, 1024)
        assert 110 < proj.single_iteration_seconds < 450
        assert 4 * HOUR < proj.projected_total_seconds < 16 * HOUR

    def test_paper_anchor_fw2d_iteration(self, model):
        # Paper: ~16-21 s per iteration, essentially independent of b.
        for b in (256, 1024, 4096):
            single = model.project("fw-2d", 262144, b, 1024).single_iteration_seconds
            assert 8 < single < 40

    def test_fw2d_iteration_time_flat_in_block_size(self, model):
        times = [model.project("fw-2d", 262144, b, 1024).single_iteration_seconds
                 for b in (256, 1024, 4096)]
        assert max(times) / min(times) < 1.2

    def test_block_size_sweet_spot(self, model):
        # Figure 3: totals first drop then rise as b grows (n=131072, p=1024).
        totals = {b: model.project("blocked-cb", 131072, b, 1024).projected_total_seconds
                  for b in (512, 1536, 4096)}
        assert totals[1536] < totals[512]
        assert totals[1536] < totals[4096]

    def test_ph_partitioner_never_beats_md(self, model):
        for b in (1024, 2048):
            md = model.project("blocked-im", 131072, b, 1024, partitioner="MD")
            ph = model.project("blocked-im", 131072, b, 1024, partitioner="PH")
            assert ph.projected_total_seconds >= md.projected_total_seconds

    def test_ph_skew_worst_with_one_partition_per_core(self, model):
        b1 = model.imbalance_factor("PH", 131072, 1024, 1024, partitions_per_core=1)
        b2 = model.imbalance_factor("PH", 131072, 1024, 1024, partitions_per_core=2)
        assert b1 > b2
        assert model.imbalance_factor("MD", 131072, 1024, 1024, 2) == pytest.approx(1.0, abs=0.2)


class TestStorageFeasibility:
    def test_blocked_im_infeasible_for_small_blocks_at_figure3_scale(self, model):
        # Figure 3: IM fails for b < 1024 at n = 131072 on the 32-node cluster.
        assert not model.project("blocked-im", 131072, 512, 1024).feasible
        assert not model.project("blocked-im", 131072, 768, 1024).feasible
        assert model.project("blocked-im", 131072, 1024, 1024).feasible

    def test_blocked_im_infeasible_at_largest_problem(self, model):
        # Table 3: IM cannot finish the n = 262144 / p = 1024 configuration.
        best = model.best_block_size("blocked-im", 262144, 1024)
        assert not best.feasible
        assert best.infeasibility_reason is not None

    def test_blocked_cb_always_feasible(self, model):
        for b in (256, 1024, 4096):
            assert model.project("blocked-cb", 262144, b, 1024).feasible

    def test_spill_grows_with_iteration_count(self, model):
        small_blocks = model.spill_per_node_bytes("blocked-im", 131072, 512, 1024)
        large_blocks = model.spill_per_node_bytes("blocked-im", 131072, 2048, 1024)
        assert small_blocks > large_blocks

    def test_cb_has_no_spill_constraint(self, model):
        assert model.spill_per_node_bytes("blocked-cb", 131072, 512, 1024) == 0.0


class TestWeakScaling:
    """Table 3 / Figure 5 shapes."""

    @pytest.fixture(scope="class")
    def rows(self):
        return CostModel().weak_scaling()

    def test_row_structure(self, rows):
        assert [row["p"] for row in rows] == [64, 128, 256, 512, 1024]
        assert [row["n"] for row in rows] == [16384, 32768, 65536, 131072, 262144]

    def test_cb_faster_than_im_everywhere(self, rows):
        for row in rows:
            if row["blocked-im"].feasible:
                assert row["blocked-cb"].projected_total_seconds <= \
                    row["blocked-im"].projected_total_seconds

    def test_im_fails_only_at_largest_scale(self, rows):
        feasibility = [row["blocked-im"].feasible for row in rows]
        assert feasibility == [True, True, True, True, False]

    def test_spark_beats_naive_mpi_at_scale_but_not_small(self, rows):
        # Paper: FW-2D-GbE wins at p=64 but loses to Blocked-CB at p=1024.
        first, last = rows[0], rows[-1]
        assert first["fw-2d-mpi_seconds"] < first["blocked-cb"].projected_total_seconds
        assert last["fw-2d-mpi_seconds"] > last["blocked-cb"].projected_total_seconds

    def test_optimized_dc_always_fastest(self, rows):
        for row in rows:
            assert row["dc-mpi_seconds"] < row["blocked-cb"].projected_total_seconds
            assert row["dc-mpi_seconds"] < row["fw-2d-mpi_seconds"]

    def test_dc_speedup_over_cb_roughly_paper_factor(self, rows):
        # Paper: ~2.8x at p = 1024.
        last = rows[-1]
        ratio = last["blocked-cb"].projected_total_seconds / last["dc-mpi_seconds"]
        assert 1.5 < ratio < 5.0

    def test_gops_per_core_in_paper_range(self, rows):
        last = rows[-1]
        cm = CostModel()
        gops = cm.gops_per_core(last["n"], last["p"],
                                last["blocked-cb"].projected_total_seconds)
        # Paper: ~0.6 Gop/s/core (78% of the 0.762 sequential reference).
        assert 0.3 < gops < 1.2

    def test_gops_per_core_zero_for_invalid_time(self):
        assert CostModel().gops_per_core(1024, 64, 0.0) == 0.0


class TestBestBlockSize:
    def test_best_block_size_returns_feasible_minimum(self, model):
        best = model.best_block_size("blocked-cb", 131072, 1024)
        assert best.feasible
        candidates = [model.project("blocked-cb", 131072, b, 1024).projected_total_seconds
                      for b in (512, 1024, 1536, 2048)]
        assert best.projected_total_seconds <= min(candidates) + 1e-6

    def test_best_block_size_respects_feasibility(self, model):
        best = model.best_block_size("blocked-im", 131072, 1024)
        assert best.feasible
        assert best.block_size >= 1024


class TestStorageAwareBlockSize:
    """best_block_size prices candidates under the requested storage policy.

    Pins the packed-vs-dense crossover at the paper's largest scale: a dense
    boolean Blocked-IM sweep hits the local-storage spill wall at small
    blocks and has to retreat to a mid-sized block, while the packed-bitset
    sweep (8x smaller elements) stays feasible everywhere and is free to take
    the largest candidate.  Before storage/layout were threaded through the
    per-candidate estimates, both sweeps priced identically and this
    difference was invisible.
    """

    N = 262144
    P = 1024

    def _best(self, model, storage):
        return model.best_block_size("blocked-im", self.N, self.P,
                                     algebra="reachability", dtype="bool",
                                     storage=storage)

    def test_dense_small_blocks_hit_spill_wall(self, model):
        dense = model.project("blocked-im", self.N, 512, self.P,
                              algebra="reachability", dtype="bool",
                              storage="dense")
        packed = model.project("blocked-im", self.N, 512, self.P,
                               algebra="reachability", dtype="bool",
                               storage="packed")
        assert not dense.feasible
        assert packed.feasible

    def test_crossover_picks_different_blocks(self, model):
        dense = self._best(model, "dense")
        packed = self._best(model, "packed")
        assert dense.feasible and packed.feasible
        assert packed.block_size > dense.block_size
        assert (packed.projected_total_seconds
                < dense.projected_total_seconds)

    def test_packed_layout_threads_through_projection(self, model):
        packed = self._best(model, "packed")
        assert packed.layout == "triangular"
        full = model.best_block_size("blocked-im", self.N, self.P,
                                     algebra="reachability", dtype="bool",
                                     storage="packed", layout="full")
        # A full grid stores ~2x the blocks of the triangular one (partly
        # offset by its better load balance); the projection must get
        # slower, not silently price the same work.
        assert full.layout == "full"
        assert (full.projected_total_seconds
                > packed.projected_total_seconds)
