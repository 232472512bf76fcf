"""Tests for the experiment harness (Figures 2/3, Tables 2/3, reporting)."""

import pytest

from repro.experiments import figure2, figure3, table2, table3_figure5
from repro.experiments.report import format_table, rows_to_csv


class TestFigure2:
    def test_measured_rows(self):
        rows = figure2.run_measured(block_sizes=(24, 32, 48), repeats=1)
        assert [r["block_size"] for r in rows] == [24, 32, 48]
        assert all(r["minplus_seconds"] > 0 for r in rows)
        assert all(r["floyd_warshall_seconds"] > 0 for r in rows)

    def test_measured_time_grows_with_block_size(self):
        rows = figure2.run_measured(block_sizes=(32, 128), repeats=1)
        assert rows[-1]["floyd_warshall_seconds"] > rows[0]["floyd_warshall_seconds"]
        assert rows[-1]["minplus_seconds"] > rows[0]["minplus_seconds"]

    def test_projected_rows_follow_cubic_model(self):
        rows = figure2.run_projected(block_sizes=(1000, 2000))
        assert rows[1]["floyd_warshall_seconds"] == pytest.approx(
            8 * rows[0]["floyd_warshall_seconds"])
        assert figure2.check_cubic_growth(rows)

    def test_check_cubic_growth_detects_non_cubic(self):
        rows = [{"block_size": 100, "floyd_warshall_seconds": 1.0},
                {"block_size": 200, "floyd_warshall_seconds": 1.0}]
        assert not figure2.check_cubic_growth(rows)

    def test_check_cubic_growth_trivial_cases(self):
        assert figure2.check_cubic_growth([])
        assert figure2.check_cubic_growth([{"block_size": 10, "floyd_warshall_seconds": 1.0}])


class TestFigure3:
    def test_partition_size_distribution_md_balanced(self):
        row = figure3.partition_size_distribution(131072, 1024, 2048, "MD")
        assert row["q"] == 128
        assert row["max_blocks"] - row["min_blocks"] <= 1

    def test_partition_size_distribution_ph_skewed(self):
        md = figure3.partition_size_distribution(131072, 1024, 2048, "MD")
        ph = figure3.partition_size_distribution(131072, 1024, 2048, "PH")
        assert ph["std_blocks"] > md["std_blocks"]
        assert ph["max_blocks"] > md["max_blocks"]

    def test_run_partition_distribution_rows(self):
        rows = figure3.run_partition_distribution(block_sizes=(1024, 2048))
        assert len(rows) == 4
        assert {r["partitioner"] for r in rows} == {"MD", "PH"}

    def test_projected_rows_cover_grid(self):
        rows = figure3.run_projected(block_sizes=(1024, 2048))
        assert len(rows) == 2 * 2 * 2 * 2
        assert all("total_seconds" in r for r in rows)

    def test_measured_small_sweep_correct(self):
        rows = figure3.run_measured(n=48, block_sizes=(12, 16), check_correctness=True)
        assert len(rows) == 2 * 2 * 2 * 2
        assert all(r["correct"] for r in rows)
        # IM shuffles, CB writes to shared storage instead.
        im_rows = [r for r in rows if r["solver"] == "blocked-im"]
        cb_rows = [r for r in rows if r["solver"] == "blocked-cb"]
        assert all(r["shuffle_bytes"] > 0 for r in im_rows)
        assert all(r["sharedfs_bytes"] > 0 for r in cb_rows)


class TestTable2:
    def test_projected_full_grid(self):
        rows = table2.run_projected(block_sizes=(1024,), solvers=("blocked-cb", "blocked-im"),
                                    partitioners=("MD",))
        assert len(rows) == 2
        for row in rows:
            assert row["iterations"] == 256
            assert row["projected_seconds"] == pytest.approx(
                row["single_seconds"] * row["iterations"])

    def test_projected_ordering_matches_paper(self):
        rows = table2.run_projected(block_sizes=(1024,), partitioners=("MD",))
        by_method = {r["method"]: r for r in rows}
        assert by_method["blocked-cb"]["projected_seconds"] < \
            by_method["repeated-squaring"]["projected_seconds"]
        assert by_method["blocked-cb"]["projected_seconds"] < \
            by_method["fw-2d"]["projected_seconds"]

    def test_measured_rows(self):
        rows = table2.run_measured(n=40, block_sizes=(8,),
                                   solvers=("blocked-cb", "blocked-im"))
        assert len(rows) == 2
        for row in rows:
            assert row["iterations"] == 5
            assert row["single_seconds"] > 0
            assert row["total_seconds"] >= row["single_seconds"]

    def test_measured_repeated_squaring_counts_column_sweeps(self):
        # q = 5 column sweeps per squaring, ceil(log2(39)) = 6 squarings: the
        # projected rows' count, not the squarings the solve reports.
        rows = table2.run_measured(n=40, block_sizes=(8,),
                                   solvers=("repeated-squaring",))
        projected = table2.run_projected(n=40, block_sizes=(8,), partitioners=("MD",),
                                         solvers=("repeated-squaring",))
        assert rows[0]["iterations"] == projected[0]["iterations"] == 30
        assert rows[0]["single_seconds"] == pytest.approx(rows[0]["total_seconds"] / 30)


class TestTable3Figure5:
    def test_projected_structure(self):
        rows = table3_figure5.run_projected(core_counts=(64, 1024))
        assert [r["p"] for r in rows] == [64, 1024]
        assert rows[0]["n"] == 64 * 256
        # IM fails only at the largest configuration (Table 3's "-" entry).
        assert rows[0]["blocked_im"] != "-"
        assert rows[1]["blocked_im"] == "-"
        assert rows[1]["gops_core_cb"] > 0

    def test_measured_weak_scaling_rows(self):
        rows = table3_figure5.run_measured(vertices_per_core=8, core_counts=(4, 8))
        assert len(rows) == 2
        assert all(r["all_correct"] for r in rows)
        assert rows[0]["n"] == 32 and rows[1]["n"] == 64


class TestReport:
    def test_format_table_alignment_and_title(self):
        text = format_table([{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "a" in lines[1] and "b" in lines[1]
        assert len(lines) == 5

    def test_format_table_empty(self):
        assert "(no rows)" in format_table([])

    def test_format_table_column_selection(self):
        text = format_table([{"a": 1, "b": 2}], columns=["b"])
        assert "a" not in text.splitlines()[0]

    def test_format_table_bool_rendering(self):
        text = format_table([{"ok": True}])
        assert "yes" in text

    def test_rows_to_csv(self):
        csv = rows_to_csv([{"x": 1, "y": 2}, {"x": 3, "y": 4}])
        assert csv.splitlines() == ["x,y", "1,2", "3,4"]

    def test_rows_to_csv_empty(self):
        assert rows_to_csv([]) == ""


class TestCli:
    def test_table2_projected(self, capsys):
        from repro.experiments.cli import main
        assert main(["table2", "--mode", "projected"]) == 0
        out = capsys.readouterr().out
        assert "blocked-cb" in out and "repeated-squaring" in out

    def test_figure3_distribution_csv(self, capsys):
        from repro.experiments.cli import main
        assert main(["figure3", "--distribution", "--csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("partitioner,")

    def test_table3_projected(self, capsys):
        from repro.experiments.cli import main
        assert main(["table3", "--mode", "projected"]) == 0
        assert "1024" in capsys.readouterr().out

    def test_solve_command_verifies(self, capsys):
        from repro.experiments.cli import main
        code = main(["solve", "--n", "40", "--solver", "blocked-cb", "--block-size", "8"])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_figure2_measured(self, capsys):
        from repro.experiments.cli import main
        assert main(["figure2", "--mode", "measured"]) == 0
        assert "block_size" in capsys.readouterr().out
