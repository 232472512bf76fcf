"""Tests for the paper-machine constants and the kernel measurements."""

import pytest

from repro.cluster import costmodel
from repro.cluster.calibration import measure_kernel_times
from repro.cluster.costmodel import CostModel
from repro.experiments import figure2


class TestPaperMachine:
    def test_paper_machine_dimensions(self):
        assert costmodel.NUM_NODES == 32
        assert costmodel.NODE_CORES == 32
        assert costmodel.NUM_NODES * costmodel.NODE_CORES == 1024
        assert costmodel.LOCAL_STORAGE_BYTES == 1024 * costmodel.GIB

    def test_defaults_are_gbe_and_gpfs(self):
        assert costmodel.NETWORK_BANDWIDTH == 125 * 1024 ** 2
        assert costmodel.BROADCAST_BANDWIDTH == 125 * 1024 ** 2


class TestKernelRates:
    def test_paper_rates(self):
        assert costmodel.FLOYD_WARSHALL_RATE == pytest.approx(0.762e9)

    def test_sequential_reference_t1(self):
        # The paper reports T1 = 0.022 s for n = 256 (0.762 Gop/s).
        assert CostModel().sequential_seconds(256) == pytest.approx(0.022, rel=0.01)

    def test_cubic_scaling(self):
        rows = {row["block_size"]: row
                for row in figure2.run_projected(block_sizes=(256, 512, 1000, 2000))}
        assert rows[2000]["floyd_warshall_seconds"] == pytest.approx(
            8 * rows[1000]["floyd_warshall_seconds"])
        assert rows[512]["minplus_seconds"] > rows[256]["minplus_seconds"]

    def test_measure_kernel_times_rows(self):
        rows = measure_kernel_times(block_sizes=(32, 48), repeats=1)
        assert len(rows) == 2
        for row in rows:
            assert row["minplus_seconds"] > 0
            assert row["floyd_warshall_seconds"] > 0
