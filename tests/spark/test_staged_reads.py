"""Staged reads: one decode per block per task, and writes that are atomic without fsync.

The impure solvers read the blocks they staged through
``SharedFileSystem.task_reader``, built inside each partition function: a
task reads and CRC-checks a staged block at most once, however many of its
records use it.  A staged write is a temp file renamed into place; the
rename, not an fsync, keeps a partial block from ever being visible.
"""

import os
import pickle

import numpy as np
import pytest

from repro.common.config import BACKENDS, EngineConfig
from repro.common.errors import LineageError, StagingError
from repro.core import building_blocks as bb
from repro.core.engine import APSPEngine
from repro.core.request import SolveRequest
from repro.graph.generators import erdos_renyi_adjacency
from repro.linalg.blocks import BlockGrid
from repro.sequential.floyd_warshall import floyd_warshall_reference
from repro.spark.metrics import EngineMetrics
from repro.spark.sharedfs import SharedFileSystem


@pytest.fixture
def fs(tmp_path):
    return SharedFileSystem(str(tmp_path), metrics=EngineMetrics())


def _payload_bytes(value) -> int:
    return len(pickle.dumps(("ndarray", value), protocol=pickle.HIGHEST_PROTOCOL))


class TestTaskReader:
    def test_each_block_decoded_once(self, fs):
        a, b = np.arange(16.0), np.ones(8)
        path_a, path_b = fs.write("a", a), fs.write("b", b)
        read = fs.task_reader()
        for _ in range(5):
            np.testing.assert_array_equal(read(path_a), a)
            np.testing.assert_array_equal(read(path_b), b)
        assert fs.metrics.as_dict()["sharedfs_bytes_read"] == \
            _payload_bytes(a) + _payload_bytes(b)

    def test_a_new_reader_reads_again(self, fs):
        value = np.arange(4.0)
        path = fs.write("v", value)
        fs.task_reader()(path)
        fs.task_reader()(path)
        assert fs.metrics.as_dict()["sharedfs_bytes_read"] == 2 * _payload_bytes(value)

    def test_first_read_still_verifies_and_restages(self, fs):
        value = np.arange(8.0)
        path = fs.write("blk", value)
        with open(path, "r+b") as fh:
            head = fh.read(8)
            fh.seek(0)
            fh.write(bytes(b ^ 0xFF for b in head))
        read = fs.task_reader()
        np.testing.assert_array_equal(read(path), value)
        np.testing.assert_array_equal(read(path), value)
        snap = fs.metrics.as_dict()
        assert snap["sharedfs_integrity_failures"] == 1
        assert snap["sharedfs_restages"] == 1

    def test_worker_reader_raises_staging_error(self, fs):
        path = fs.write("w", np.ones(3))
        worker = pickle.loads(pickle.dumps(fs))
        os.remove(path)
        with pytest.raises(StagingError):
            worker.task_reader()(path)

    def test_dropped_block_raises_lineage_error(self, fs):
        fs.write("victim", np.ones(4))
        fs.drop("victim")
        with pytest.raises(LineageError):
            fs.task_reader()("victim")


class TestAtomicWriteWithoutFsync:
    def test_write_does_not_fsync(self, fs, monkeypatch):
        def refuse(fd):
            raise AssertionError("staged write called os.fsync")
        monkeypatch.setattr(os, "fsync", refuse)
        np.testing.assert_array_equal(fs.read(fs.write("x", np.ones(2))), np.ones(2))

    def test_failed_rename_leaves_nothing_visible(self, fs, monkeypatch):
        def fail(src, dst):
            raise OSError("injected failure before the rename")
        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="injected"):
            fs.write("torn", np.arange(64.0))
        monkeypatch.undo()
        assert os.listdir(fs.root) == []
        assert not fs.exists("torn")
        worker = pickle.loads(pickle.dumps(fs))
        with pytest.raises(StagingError):
            worker.read("torn")
        with pytest.raises(LineageError):
            fs.read("torn")

    def test_failed_rewrite_keeps_the_previous_block(self, fs, monkeypatch):
        before = np.arange(16.0)
        fs.write("blk", before)

        def fail(src, dst):
            raise OSError("injected failure before the rename")
        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            fs.write("blk", np.zeros(16))
        monkeypatch.undo()
        np.testing.assert_array_equal(fs.read("blk"), before)
        assert [f for f in os.listdir(fs.root) if ".tmp-" in f] == []


class TestBlockedCbReadVolume:
    """A blocked-cb solve reads each staged block once per task, on every backend."""

    N, B = 128, 16

    def _per_record_bytes(self) -> int:
        """Bytes read when every record decodes its staged blocks itself."""
        grid = BlockGrid(self.N // self.B)
        block = _payload_bytes(np.zeros((self.B, self.B)))
        total = 0
        for pivot in range(grid.q):
            records = [(key, None) for key in grid.keys()]
            rowcol = sum(map(bb.off_diagonal_in_row_or_column(pivot), records))
            others = sum(map(bb.not_in_block_row_or_column(pivot), records))
            total += (rowcol + 2 * others) * block
        return total

    def _staged_once_bytes(self) -> int:
        """Bytes read when each staged block is decoded once per pivot."""
        grid = BlockGrid(self.N // self.B)
        block = _payload_bytes(np.zeros((self.B, self.B)))
        rowcol = sum(map(bb.off_diagonal_in_row_or_column(0),
                         [(key, None) for key in grid.keys()]))
        return grid.q * (1 + rowcol) * block

    def test_serial_reads_less_than_per_record_and_backends_agree(self):
        adjacency = erdos_renyi_adjacency(self.N, seed=3)
        reference = floyd_warshall_reference(adjacency)
        request = SolveRequest(solver="blocked-cb", block_size=self.B,
                               partitioner="MD")
        read = {}
        for backend in BACKENDS:
            config = EngineConfig(backend=backend, num_executors=2,
                                  cores_per_executor=2)
            with APSPEngine(config) as engine:
                result = engine.solve(adjacency, request)
            assert np.allclose(result.distances, reference)
            read[backend] = result.metrics["sharedfs_bytes_read"]
        assert self._staged_once_bytes() <= read["serial"] < self._per_record_bytes()
        assert read["threads"] == read["serial"]
        assert read["processes"] == read["serial"]
