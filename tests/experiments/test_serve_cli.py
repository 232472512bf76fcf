"""Tests for the serving CLI: ``apspark route``, ``apspark serve``, ``convert``."""

import pytest

from repro.core.engine import APSPEngine
from repro.experiments.cli import main

COMMON = ["--n", "32", "--block-size", "8"]


class TestRouteCommand:
    def test_flat_pairs_print_verified_lines(self, capsys):
        assert main(["route", "0", "5", "3", "9", *COMMON]) == 0
        out = capsys.readouterr().out
        assert "route 0 -> 5" in out
        assert "route 3 -> 9" in out
        assert "MISMATCH" not in out

    def test_report_flag_appends_the_analytics_block(self, capsys):
        assert main(["route", "0", "5", *COMMON, "--report"]) == 0
        out = capsys.readouterr().out
        assert "serving report: 1 query on n=32" in out
        assert "latency:" in out and "cache:" in out and "stages:" in out

    def test_odd_pair_list_is_a_usage_error(self, capsys):
        assert main(["route", "0", "5", "3", *COMMON]) == 2
        assert "even-length" in capsys.readouterr().err

    def test_no_queries_is_a_usage_error(self, capsys):
        assert main(["route", *COMMON]) == 2
        assert "no queries" in capsys.readouterr().err

    def test_pairs_file_extends_the_workload(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("1 7\n2 9\n")
        assert main(["route", "0", "5", *COMMON,
                     "--pairs-file", str(pairs)]) == 0
        out = capsys.readouterr().out
        assert "route 1 -> 7" in out and "route 2 -> 9" in out

    def test_out_of_range_pairs_file_fails_before_solving(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("0 99\n")
        assert main(["route", *COMMON, "--pairs-file", str(pairs)]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_algebra_and_cache_knobs(self, capsys):
        assert main(["route", "0", "9", "1", "4", *COMMON,
                     "--algebra", "reachability", "--cache-rows", "2"]) == 0
        assert "reachable" in capsys.readouterr().out


class TestServeCommand:
    def test_replay_prints_the_report(self, capsys):
        assert main(["serve", *COMMON, "--queries", "40", "--sources", "4",
                     "--cache-rows", "2"]) == 0
        out = capsys.readouterr().out
        assert "serving report: 40 queries on n=32" in out
        assert "eviction" in out and "max 2 rows" in out

    def test_verify_reports_the_fold_summary(self, capsys):
        assert main(["serve", *COMMON, "--queries", "30", "--verify"]) == 0
        assert "30/30 folded route(s) match" in capsys.readouterr().out

    def test_csv_emits_one_flat_row(self, capsys):
        assert main(["serve", *COMMON, "--queries", "20", "--csv"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 2                       # header + one row
        header = out[0].split(",")
        assert "queries" in header
        assert "cache_hit_rate" in header
        assert "stage_row_solve_s" in header
        assert "stage_seconds" not in header       # no nested dicts in CSV

    def test_zero_queries_is_a_usage_error(self, capsys):
        assert main(["serve", *COMMON, "--queries", "0"]) == 2
        assert "no queries" in capsys.readouterr().err

    def test_pairs_file_replay(self, tmp_path, capsys):
        pairs = tmp_path / "pairs.txt"
        pairs.write_text("0 1\n0 2\n0 3\n")
        assert main(["serve", *COMMON, "--pairs-file", str(pairs)]) == 0
        assert "3 queries" in capsys.readouterr().out

    def test_cache_budget_kb_bounds_the_cache(self, capsys):
        assert main(["serve", *COMMON, "--queries", "64", "--sources", "16",
                     "--cache-budget-kb", "0.25"]) == 0
        out = capsys.readouterr().out
        assert "budget 256B" in out

    def test_one_byte_cache_budget_is_accepted(self, capsys):
        assert main(["serve", *COMMON, "--queries", "8", "--sources", "4",
                     "--cache-budget-kb", "0.001"]) == 0
        assert "budget 1B" in capsys.readouterr().out


class TestBadInputFailsBeforeSolving:
    """Bad sizes and cache bounds are usage errors caught before any solve."""

    @pytest.fixture(autouse=True)
    def no_solve(self, monkeypatch):
        def solve(*args, **kwargs):
            raise AssertionError("solved despite a usage error")
        monkeypatch.setattr(APSPEngine, "solve", solve)

    @pytest.mark.parametrize("argv,message", [
        (["serve", "--n", "48", "--queries", "5", "--cache-rows", "0"],
         "--cache-rows"),
        (["route", "0", "1", "--n", "48", "--cache-rows", "-2"], "--cache-rows"),
        (["serve", "--n", "48", "--queries", "5", "--cache-budget-kb", "0"],
         "--cache-budget-kb"),
        (["serve", "--n", "48", "--queries", "5", "--cache-budget-kb", "-1"],
         "--cache-budget-kb"),
        (["serve", "--n", "0"], "n must be positive"),
        (["route", "0", "1", "--n", "0"], "n must be positive"),
        (["solve", "--n", "0"], "n must be positive"),
        (["route", "0", "1", "--n", "48", "--cache-rows", "0"], "--cache-rows"),
        (["serve", "--n", "48", "--queries", "5", "--cache-rows", "-3"],
         "--cache-rows"),
        (["route", "0", "1", "--n", "48", "--cache-budget-kb", "0"],
         "--cache-budget-kb"),
        (["route", "0", "1", "--n", "48", "--cache-budget-kb", "-0.5"],
         "--cache-budget-kb"),
        (["serve", "--n", "48", "--queries", "5", "--cache-budget-kb", "0.0001"],
         "--cache-budget-kb"),
        (["solve", "--n", "-4"], "n must be positive"),
    ], ids=["serve-cache-rows-0", "route-cache-rows-negative",
            "serve-cache-budget-0", "serve-cache-budget-negative",
            "serve-n-0", "route-n-0", "solve-n-0",
            "route-cache-rows-0", "serve-cache-rows-negative",
            "route-cache-budget-0", "route-cache-budget-negative",
            "serve-cache-budget-under-one-byte", "solve-n-negative"])
    def test_usage_error_exits_2(self, argv, message, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


class TestEmptyInputGraph:
    """An ``--input`` graph with no vertices is a usage error in every
    subcommand that loads one."""

    @pytest.mark.parametrize("argv", [
        ["solve"], ["route", "0", "1"], ["serve", "--queries", "5"],
        ["update", "--batch", "1"],
    ], ids=["solve", "route", "serve", "update"])
    def test_empty_edge_list_exits_2(self, argv, tmp_path, monkeypatch, capsys):
        def solve(*args, **kwargs):
            raise AssertionError("solved an empty graph")
        monkeypatch.setattr(APSPEngine, "solve", solve)
        empty = tmp_path / "empty.txt"
        empty.write_text("# no edges\n")
        assert main(argv + ["--input", str(empty)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no vertices" in err


class TestZeroWeightEdges:
    """A 0-weight edge is an edge: served under reachability, verified by
    the float64 shortest-path oracle."""

    @pytest.fixture
    def zero_edge(self, tmp_path):
        path = tmp_path / "zero-edge.txt"
        path.write_text("0 1 0\n1 2 1.0\n")
        return str(path)

    def test_reachability_route_over_a_zero_weight_edge(self, zero_edge,
                                                         capsys):
        assert main(["route", "0", "2", "--input", zero_edge,
                     "--algebra", "reachability"]) == 0
        assert "0 -> 1 -> 2" in capsys.readouterr().out

    def test_solve_verifies_against_the_oracle(self, zero_edge, capsys):
        assert main(["solve", "--input", zero_edge]) == 0
        assert "MISMATCH" not in capsys.readouterr().out


class TestConvertCommand:
    def test_edge_list_to_npz_then_served(self, tmp_path, capsys):
        src = tmp_path / "demo.txt"
        # directed=0 mirrors the edges: the default blocked-cb solver only
        # accepts symmetric (undirected) adjacencies.
        src.write_text("# directed=0\n0 1 2.5\n1 2 1.0\n2 3 4.0\n0 3 9.5\n")
        npz = tmp_path / "demo.npz"
        assert main(["convert", str(src), str(npz)]) == 0
        assert "n=4, nnz=8" in capsys.readouterr().out
        assert main(["route", "0", "3", "--input", str(npz),
                     "--block-size", "4"]) == 0
        out = capsys.readouterr().out
        assert "route 0 -> 3" in out and "match" in out

    def test_bad_target_extension_fails(self, tmp_path, capsys):
        src = tmp_path / "demo.txt"
        src.write_text("0 1 1.0\n")
        with pytest.raises(SystemExit):
            main(["convert", str(src)])            # target is required
        assert main(["convert", str(src), str(tmp_path / "x.json")]) != 0
