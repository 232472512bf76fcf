"""The compiled dense kernel's loader: cache keys, the build race, the fallback report.

Bit-identity of the kernel itself is checked against NumPy in
``test_payload_conformance.py::TestKernelsAgree``.  The cache tests build
into a fresh directory next to the real cache (``XDG_CACHE_HOME`` points
the child processes at it), never under the repository or ``TMPDIR``, and
remove it afterwards.
"""

from __future__ import annotations

import logging
import os
import shutil
import subprocess
import sys
import uuid
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import APSPEngine, SolveRequest
from repro.common.config import EngineConfig
from repro.graph.generators import erdos_renyi_adjacency
from repro.linalg import native
from repro.linalg.witness import witness_block
from repro.sequential.floyd_warshall import floyd_warshall_reference

SRC = str(Path(repro.__file__).resolve().parents[1])

needs_compiler = pytest.mark.skipif(shutil.which(native.COMPILER) is None,
                                    reason="no C compiler on PATH")


@pytest.fixture
def cache_root():
    """An empty ``XDG_CACHE_HOME`` beside the real cache, removed afterwards."""
    root = native.cache_dir() / f"test-{uuid.uuid4().hex}"
    try:
        root.mkdir(parents=True)
    except OSError as exc:
        pytest.skip(f"the cache location is not writable: {exc}")
    yield root
    shutil.rmtree(root, ignore_errors=True)


def start_loader(cache_root: Path) -> subprocess.Popen:
    """A fresh interpreter that loads the kernel and prints its report."""
    env = dict(os.environ, XDG_CACHE_HOME=str(cache_root),
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    code = ("from repro.linalg import native; r = native.describe(); "
            "print(r['linalg_kernel'], r.get('linalg_kernel_reason', ''))")
    return subprocess.Popen([sys.executable, "-c", code], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def report_of(proc: subprocess.Popen) -> str:
    out, err = proc.communicate(timeout=600)
    assert proc.returncode == 0, err
    return out.strip()


def compiler_version() -> str:
    return subprocess.run([native.COMPILER, "--version"], capture_output=True,
                          text=True, check=True).stdout


class TestCache:
    @needs_compiler
    def test_two_first_uses_race_to_one_library(self, cache_root):
        procs = [start_loader(cache_root) for _ in range(2)]
        assert [report_of(p) for p in procs] == ["native", "native"]
        built = sorted(p.name for p in (cache_root / "apspark").iterdir())
        key = native.build_key(native.source(), compiler_version())
        assert built == [native.library_path(cache_root, key).name]

    def test_key_follows_source_compiler_flags_and_cpu(self):
        source, version = b"int f(void) { return 0; }", "cc 1.0"
        key = native.build_key(source, version, cpu="cpu-a")
        assert key == native.build_key(source, version, cpu="cpu-a")
        assert len({key,
                    native.build_key(source + b"\n", version, cpu="cpu-a"),
                    native.build_key(source, "cc 1.1", cpu="cpu-a"),
                    native.build_key(source, version, ("-O2",), cpu="cpu-a"),
                    native.build_key(source, version, cpu="cpu-b")}) == 5

    @needs_compiler
    def test_a_stale_library_is_never_loaded(self, cache_root):
        # A library built from an older source sits in the cache; it is not
        # a loadable object, so loading it would report the fallback.
        directory = cache_root / "apspark"
        directory.mkdir()
        stale = native.library_path(directory, native.build_key(
            native.source() + b"/* an older revision */", compiler_version()))
        stale.write_bytes(b"not a shared object")
        assert report_of(start_loader(cache_root)) == "native"
        assert stale.read_bytes() == b"not a shared object"
        assert len(list(directory.glob("relax-*.so"))) == 2

    @needs_compiler
    def test_an_unloadable_build_falls_back_with_the_reason(self, cache_root):
        directory = cache_root / "apspark"
        directory.mkdir()
        current = native.library_path(
            directory, native.build_key(native.source(), compiler_version()))
        current.write_bytes(b"not a shared object")
        kernel, reason = report_of(start_loader(cache_root)).split(" ", 1)
        assert kernel == "numpy"
        assert reason.startswith(f"loading {current.name} failed")


class TestReport:
    def test_a_solve_reports_the_native_kernel(self):
        if native.kernel() is None:
            pytest.skip(f"the compiled kernel did not load: {native.describe()}")
        adj = erdos_renyi_adjacency(48, seed=2)
        with APSPEngine(EngineConfig(backend="serial")) as engine:
            result = engine.solve(adj, SolveRequest(block_size=16))
            stats = engine.stats()
        for record in (result.metrics, stats):
            assert record["linalg_kernel"] == "native"
            assert "linalg_kernel_reason" not in record

    def test_a_missing_compiler_falls_back_to_numpy_and_says_why(self, caplog):
        adj = erdos_renyi_adjacency(64, seed=5)
        request = SolveRequest(solver="blocked-cb", block_size=16)
        with caplog.at_level(logging.WARNING, logger=native.__name__), \
                native._forced(compiler="/nonexistent/bin/cc") as report:
            with APSPEngine(EngineConfig(backend="serial")) as engine:
                results = [engine.solve(adj, request) for _ in range(2)]
                stats = engine.stats()
        assert report["linalg_kernel"] == "numpy"
        reason = report["linalg_kernel_reason"]
        assert reason.startswith("no C compiler found") and "\n" not in reason
        for record in (*(r.metrics for r in results), stats):
            assert record["linalg_kernel"] == "numpy"
            assert record["linalg_kernel_reason"] == reason
        reference = floyd_warshall_reference(adj)
        for result in results:
            assert np.allclose(result.distances, reference)
        warned = [r for r in caplog.records if r.name == native.__name__]
        assert len(warned) == 1 and reason in warned[0].getMessage()

    def test_forcing_numpy_is_undone_on_exit(self):
        before = native.describe()
        with native._forced("numpy") as report:
            assert report["linalg_kernel"] == "numpy"
            assert native.kernel() is None
        assert native.describe() == before


class TestWitnessedCalls:
    """Witnessed operands that do not fit raise before any pointer is passed."""

    @staticmethod
    def block(rows, cols, dtype=np.float64, *, single_plane=False):
        return witness_block(np.ones((rows, cols), dtype), 0, 0, "shortest-path",
                             single_plane=single_plane)

    def test_misfits_raise(self):
        loaded = native.kernel()
        if loaded is None:
            pytest.skip(f"the compiled kernel did not load: {native.describe()}")
        a, b, out = self.block(3, 4), self.block(4, 5), self.block(3, 5)
        misfits = [
            (out, a, self.block(3, 5), None),                      # inner 4 vs 3
            (self.block(3, 4), a, b, None),                        # out shape
            (out, a, b, self.block(5, 3)),                         # base shape
            (out, a, self.block(4, 5, np.float32), None),          # dtypes
            (out, a, self.block(4, 5, single_plane=True), None),   # plane-ness
            (self.block(3, 5), self.block(3, 0), self.block(0, 5), None),  # k = 0
        ]
        for target, left, right, base in misfits:
            with pytest.raises(ValueError, match="do not fit"):
                loaded.witness_relax(0, np.inf, target, left, right, base)
        with pytest.raises(ValueError, match="square"):
            loaded.witness_fw(0, self.block(3, 4))
