"""Tests for repro.common.config."""

import os

import pytest

from repro.common.config import EngineConfig, default_config, BACKENDS
from repro.common.errors import ConfigurationError


class TestEngineConfig:
    def test_default_config_is_serial(self):
        cfg = default_config()
        assert cfg.backend == "serial"
        assert cfg.total_cores == 8

    def test_total_cores(self):
        cfg = EngineConfig(num_executors=3, cores_per_executor=5)
        assert cfg.total_cores == 15

    def test_parallelism_defaults_to_total_cores(self):
        cfg = EngineConfig(num_executors=4, cores_per_executor=4)
        assert cfg.parallelism == 16

    def test_parallelism_has_floor_of_two(self):
        cfg = EngineConfig(num_executors=1, cores_per_executor=1)
        assert cfg.parallelism >= 2

    def test_invalid_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(backend="mpi")

    def test_invalid_executors_rejected(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(num_executors=0)

    def test_invalid_cores_rejected(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(cores_per_executor=0)

    def test_negative_storage_rejected(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(local_storage_bytes=-1)

    def test_none_storage_allowed(self):
        cfg = EngineConfig(local_storage_bytes=None)
        assert cfg.local_storage_bytes is None

    def test_replace_returns_modified_copy(self):
        cfg = EngineConfig(num_executors=4)
        cfg2 = cfg.replace(num_executors=8)
        assert cfg.num_executors == 4
        assert cfg2.num_executors == 8

    def test_replace_validates(self):
        cfg = EngineConfig()
        with pytest.raises(ConfigurationError):
            cfg.replace(backend="bogus")

    def test_resolve_shared_fs_dir_creates_tempdir_without_mutation(self):
        import shutil

        cfg = EngineConfig()
        path = cfg.resolve_shared_fs_dir()
        try:
            assert os.path.isdir(path)
            # The config is not mutated: the caller owns the temp dir.
            assert cfg.shared_fs_dir is None
        finally:
            shutil.rmtree(path, ignore_errors=True)

    def test_resolve_shared_fs_dir_respects_explicit_dir(self, tmp_path):
        target = str(tmp_path / "gpfs")
        cfg = EngineConfig(shared_fs_dir=target)
        assert cfg.resolve_shared_fs_dir() == target
        assert os.path.isdir(target)

    def test_backends_constant(self):
        assert "serial" in BACKENDS and "threads" in BACKENDS
