"""Tests for the cluster machine model and the kernel calibration."""

import pytest

from repro.cluster.calibration import KernelCalibration, measure_kernel_times
from repro.cluster.model import (
    ClusterSpec,
    NetworkSpec,
    NodeSpec,
    SparkOverheadSpec,
    paper_cluster,
    GIB,
)
from repro.common.errors import ConfigurationError


class TestClusterSpec:
    def test_paper_cluster_dimensions(self):
        cluster = paper_cluster()
        assert cluster.num_nodes == 32
        assert cluster.node.cores == 32
        assert cluster.total_cores == 1024
        assert cluster.node.local_storage_bytes == 1024 * GIB

    def test_invalid_nodes(self):
        with pytest.raises(ConfigurationError):
            ClusterSpec(num_nodes=0)

    def test_invalid_cores(self):
        with pytest.raises(ConfigurationError):
            NodeSpec(cores=0)

    def test_defaults_are_gbe_and_gpfs(self):
        assert NetworkSpec().bandwidth_per_node == 125 * 1024 ** 2
        assert SparkOverheadSpec().broadcast_bandwidth == 125 * 1024 ** 2

    def test_total_cores_multiplies_nodes_by_node_cores(self):
        assert ClusterSpec(num_nodes=3, node=NodeSpec(cores=5)).total_cores == 15

    def test_paper_cluster_is_the_default_spec(self):
        assert paper_cluster() == ClusterSpec()


class TestKernelCalibration:
    def test_paper_rates(self):
        cal = KernelCalibration.paper()
        assert cal.floyd_warshall_rate == pytest.approx(0.762e9)
        assert cal.source == "paper"

    def test_sequential_reference_t1(self):
        # The paper reports T1 = 0.022 s for n = 256 (0.762 Gop/s).
        cal = KernelCalibration.paper()
        assert cal.sequential_apsp_seconds(256) == pytest.approx(0.022, rel=0.01)

    def test_cubic_scaling(self):
        cal = KernelCalibration.paper()
        assert cal.floyd_warshall_seconds(2000) == pytest.approx(
            8 * cal.floyd_warshall_seconds(1000))
        assert cal.minplus_seconds(512) > cal.minplus_seconds(256)

    def test_measure_kernel_times_rows(self):
        rows = measure_kernel_times(block_sizes=(32, 48), repeats=1)
        assert len(rows) == 2
        for row in rows:
            assert row["minplus_seconds"] > 0
            assert row["floyd_warshall_seconds"] > 0

    def test_measured_calibration(self):
        cal = KernelCalibration.measure(block_sizes=(48, 64), repeats=1)
        assert cal.source == "measured"
        assert cal.floyd_warshall_rate > 0
        assert cal.minplus_rate > 0
        assert cal.dc_optimized_rate >= cal.floyd_warshall_rate
