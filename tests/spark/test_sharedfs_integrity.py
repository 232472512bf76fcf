"""Staging-integrity tests: atomic writes, checksums, bounded re-staging.

The impure channel of the paper (shared-fs block staging) hardened: every
write is atomic (temp + rename) and checksummed; readers detect
corruption and missing files and repair them from the driver's bounded
lineage registry; worker copies escalate to the driver via
:class:`StagingError`; only a genuinely unrecoverable loss surfaces the
paper's :class:`LineageError` caveat.
"""

import os
import pickle

import numpy as np
import pytest

from repro.common.errors import LineageError, StagingError
from repro.spark.faults import FaultInjector, FaultPlan
from repro.spark.metrics import EngineMetrics
from repro.spark.sharedfs import _FOOTER, _MAGIC, SharedFileSystem


@pytest.fixture
def fs(tmp_path):
    return SharedFileSystem(str(tmp_path), metrics=EngineMetrics())


def _corrupt(path):
    with open(path, "r+b") as fh:
        head = fh.read(8)
        fh.seek(0)
        fh.write(bytes(b ^ 0xFF for b in head))


class TestFooterAndAtomicity:
    def test_roundtrip_with_footer(self, fs):
        value = np.arange(12.0).reshape(3, 4)
        path = fs.write("block", value)
        with open(path, "rb") as fh:
            data = fh.read()
        crc, length, magic = _FOOTER.unpack(data[-_FOOTER.size:])
        assert magic == _MAGIC
        assert length == len(data) - _FOOTER.size
        np.testing.assert_array_equal(fs.read("block"), value)

    def test_no_temp_files_left_behind(self, fs):
        for i in range(5):
            fs.write(f"b{i}", np.ones(4))
        leftovers = [f for f in os.listdir(fs.root) if ".tmp-" in f]
        assert leftovers == []

    def test_byte_accounting_excludes_footer(self, fs):
        value = np.arange(6.0)
        fs.write("acct", value)
        payload = len(pickle.dumps(("ndarray", value),
                                   protocol=pickle.HIGHEST_PROTOCOL))
        assert fs.metrics.as_dict()["sharedfs_bytes_written"] == payload


class TestCorruptionDetectionAndRestage:
    def test_corrupt_block_detected_and_restaged(self, fs):
        value = np.arange(8.0)
        path = fs.write("blk", value)
        _corrupt(path)
        np.testing.assert_array_equal(fs.read("blk"), value)
        snap = fs.metrics.as_dict()
        assert snap["sharedfs_integrity_failures"] == 1
        assert snap["sharedfs_restages"] == 1

    def test_missing_block_restaged(self, fs):
        value = np.full(4, 7.0)
        path = fs.write("gone", value)
        os.remove(path)
        np.testing.assert_array_equal(fs.read("gone"), value)
        assert fs.metrics.as_dict()["sharedfs_restages"] == 1

    def test_truncated_block_detected(self, fs):
        path = fs.write("short", np.arange(64.0))
        size = os.path.getsize(path)
        with open(path, "r+b") as fh:
            fh.truncate(size // 2)
        np.testing.assert_array_equal(fs.read("short"), np.arange(64.0))

    def test_restage_is_bounded_per_name(self, tmp_path):
        fs = SharedFileSystem(str(tmp_path), metrics=EngineMetrics(),
                              restage_limit=2)
        path = fs.write("flaky", np.ones(3))
        for _ in range(2):
            os.remove(path)
            fs.read("flaky")  # repaired
        os.remove(path)
        with pytest.raises(LineageError):
            fs.read("flaky")  # third loss exceeds the bound

    def test_restage_after_concurrent_repair_costs_nothing(self, fs):
        """A reader arriving after the block was repaired consumes no attempt."""
        path = fs.write("shared", np.arange(4.0))
        _corrupt(path)
        assert fs.restage(path) is True       # actual repair
        for _ in range(10):                   # block is valid: all free
            assert fs.restage(path) is True
        assert fs.metrics.as_dict()["sharedfs_restages"] == 1

    def test_lineage_registry_is_bounded(self, tmp_path):
        fs = SharedFileSystem(str(tmp_path), metrics=EngineMetrics(),
                              lineage_limit=2)
        paths = [fs.write(f"b{i}", np.full(2, float(i))) for i in range(4)]
        os.remove(paths[0])
        with pytest.raises(LineageError):
            fs.read("b0")  # evicted from the bounded registry
        os.remove(paths[3])
        np.testing.assert_array_equal(fs.read("b3"), np.full(2, 3.0))


class TestUnrecoverableLoss:
    def test_drop_removes_lineage_so_read_raises_lineage_error(self, fs):
        fs.write("victim", np.ones(4))
        fs.drop("victim")
        with pytest.raises(LineageError):
            fs.read("victim")

    def test_worker_copy_raises_staging_error_for_driver_repair(self, fs):
        value = np.arange(5.0)
        path = fs.write("wblk", value)
        worker = pickle.loads(pickle.dumps(fs))
        assert worker._worker is True
        np.testing.assert_array_equal(worker.read("wblk"), value)
        os.remove(path)
        with pytest.raises(StagingError) as excinfo:
            worker.read("wblk")
        # Driver-side repair: the name travels in the exception.
        assert fs.restage(excinfo.value.name) is True
        np.testing.assert_array_equal(worker.read("wblk"), value)


class TestWriteFaultInjection:
    def test_corrupt_write_fault_applies_and_recovers(self, tmp_path):
        inj = FaultInjector(FaultPlan(corrupt_write_indices={0}))
        fs = SharedFileSystem(str(tmp_path), metrics=EngineMetrics(),
                              fault_injector=inj)
        value = np.arange(4.0)
        fs.write("c", value)
        np.testing.assert_array_equal(fs.read("c"), value)
        assert inj.counters()["corrupted_writes"] == 1
        assert fs.metrics.as_dict()["sharedfs_integrity_failures"] == 1

    def test_drop_write_fault_applies_and_recovers(self, tmp_path):
        inj = FaultInjector(FaultPlan(drop_write_indices={1}))
        fs = SharedFileSystem(str(tmp_path), metrics=EngineMetrics(),
                              fault_injector=inj)
        fs.write("a", np.ones(2))
        path_b = fs.write("b", np.full(2, 2.0))
        assert not os.path.exists(path_b)
        np.testing.assert_array_equal(fs.read("b"), np.full(2, 2.0))
        assert inj.counters()["dropped_writes"] == 1


class TestMaintenance:
    def test_clear_resets_everything(self, fs):
        fs.write("x", np.ones(2))
        fs.read("x")
        fs.clear()
        assert [f for f in os.listdir(fs.root) if f.endswith(".blk")] == []
        with pytest.raises(LineageError):
            fs.read("x")
