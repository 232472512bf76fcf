"""The compiled dense kernel: build ``relax.c`` once, cache it, load it.

:class:`~repro.linalg.payload.DenseOps` runs its float products, relaxes,
rank-1 passes and in-block Floyd-Warshall sweeps, and
:class:`~repro.linalg.payload.WitnessOps` its products, relaxes and sweeps,
through the C kernels in ``relax.c`` whenever this module could load them,
and through NumPy otherwise.  Both give the same bits (see ``relax.c``);
which one runs in this process is reported by :func:`describe`, and a
fallback is logged once.

The source ships inside the package (read through :mod:`importlib.resources`)
and is compiled on first use with the system ``cc`` into
``$XDG_CACHE_HOME/apspark`` (``~/.cache/apspark`` when unset).  A build is
keyed by the source hash, ``cc --version``, the flags and the CPU identity
(``-march=native`` code only runs on the CPU it was built for), so a changed
source or a different machine never loads a stale library.  Each process
compiles to a private temporary name and renames the result into place with
:func:`os.replace`, so concurrent first uses (worker processes, parallel test
runs) race harmlessly and leave one library per key.  A ``ctypes`` call
releases the GIL, so the ``threads`` backend's workers run kernels in
parallel.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import logging
import os
import platform
import shutil
import subprocess
import threading
import uuid
from importlib import resources
from pathlib import Path

import numpy as np

#: Compiler flags.  ``-ffp-contract=off`` keeps every ⊗ a single rounding;
#: no fast-math flag is ever added: it would break NaN propagation.
FLAGS = ("-O3", "-march=native", "-ffp-contract=off", "-fPIC", "-shared")

#: The compiler ``relax.c`` is built with.
COMPILER = "cc"

#: Kernel code of each numeric algebra, by its ``(⊕, ⊗)`` ufuncs.
ALGEBRA_CODES = {
    (np.minimum, np.add): 0,        # shortest-path
    (np.maximum, np.minimum): 1,    # widest-path
    (np.maximum, np.multiply): 2,   # most-reliable
    (np.maximum, np.add): 3,        # longest-path
}

_DTYPE_CODES = {np.dtype(np.float64): 0, np.dtype(np.float32): 1}

_log = logging.getLogger(__name__)


class _Planes(ctypes.Structure):
    """``relax.c``'s ``planes``: a witnessed block's three planes and strides."""

    _fields_ = [("values", ctypes.c_void_p), ("parents", ctypes.c_void_p),
                ("succs", ctypes.c_void_p), ("ldv", ctypes.c_ssize_t),
                ("ldp", ctypes.c_ssize_t), ("lds", ctypes.c_ssize_t)]


class Kernel:
    """The loaded library, called on ndarrays and witnessed blocks."""

    def __init__(self, lib: ctypes.CDLL) -> None:
        ptr, size, code = ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_int
        planes = ctypes.POINTER(_Planes)
        self._relax = lib.apspark_relax
        self._relax.argtypes = [code, code, ptr, size, ptr, size, ptr, size,
                                ptr, size, size, size, size]
        self._relax.restype = code
        self._fw = lib.apspark_fw
        self._fw.argtypes = [code, code, ptr, size, size]
        self._fw.restype = code
        self._witness_relax = lib.apspark_witness_relax
        self._witness_relax.argtypes = [code, code, ctypes.c_double, planes,
                                        planes, planes, planes, size, size, size]
        self._witness_relax.restype = code
        self._witness_fw = lib.apspark_witness_fw
        self._witness_fw.argtypes = [code, code, planes, size]
        self._witness_fw.restype = code

    def relax(self, algebra: int, out: np.ndarray, a: np.ndarray, b: np.ndarray,
              base: np.ndarray | None = None) -> None:
        """``out = base ⊕ (a ⊗ b)`` (``out = a ⊗ b`` without a base).

        All operands share one float dtype; ``out`` overlaps none of them.
        """
        (m, k), n = a.shape, b.shape[1]
        operands = (a, b, out) if base is None else (a, b, out, base)
        if b.shape[0] != k or out.shape != (m, n) \
                or (base is not None and base.shape != (m, n)) \
                or len({x.dtype for x in operands}) != 1:
            raise ValueError("relax operands "
                             + ", ".join(f"{x.shape} {x.dtype}" for x in operands)
                             + " do not fit")
        a, lda = _row_major(a)
        b, ldb = _row_major(b)
        work, ldc = _row_major(out, target=True)
        d, ldd = (None, 0) if base is None else _row_major(base)
        status = self._relax(algebra, _DTYPE_CODES[a.dtype], work.ctypes.data,
                             ldc, None if d is None else d.ctypes.data, ldd,
                             a.ctypes.data, lda, b.ctypes.data, ldb, m, k, n)
        _check(status)
        if work is not out:
            out[...] = work

    def fw(self, algebra: int, block: np.ndarray) -> None:
        """Close the square ``block`` in place, one sweep per pivot."""
        if block.shape[0] != block.shape[1]:
            raise ValueError(f"Floyd-Warshall needs a square block, got {block.shape}")
        work, ld = _row_major(block, target=True)
        _check(self._fw(algebra, _DTYPE_CODES[block.dtype], work.ctypes.data,
                        ld, block.shape[0]))
        if work is not block:
            block[...] = work

    def witness_relax(self, algebra: int, zero: float, out, a, b,
                      base=None) -> None:
        """``out = base ⊕ (a ⊗ b)`` on witnessed blocks, pointers composed.

        ``out``'s planes are fresh C-ordered arrays of the result's shape; the
        value planes share one float dtype and ``a.values`` is ``(m, k)``
        with ``k >= 1``; ``out`` carries ``succs`` exactly when every operand
        does.  ``zero`` is the algebra's "no path" value.
        """
        (m, k), n = a.values.shape, b.values.shape[1]
        operands = [x for x in (a, b, out, base) if x is not None]
        if not k or b.values.shape[0] != k or out.values.shape != (m, n) \
                or (base is not None and base.values.shape != (m, n)) \
                or len({x.values.dtype for x in operands}) != 1 \
                or len({x.succs is None for x in operands}) != 1:
            raise ValueError("witnessed relax operands " + ", ".join(
                f"{x.values.shape} {x.values.dtype}"
                f"{' one-plane' if x.succs is None else ''}" for x in operands)
                + " do not fit")
        held = []       # the C-ordered arrays the structures point into
        planes = [_planes(x, held) for x in (out, base, a, b)]
        _check(self._witness_relax(
            algebra, _DTYPE_CODES[a.values.dtype], zero, planes[0],
            planes[1], planes[2], planes[3], m, k, n))

    def witness_fw(self, algebra: int, block) -> None:
        """Close the square witnessed ``block`` in place, pointers carried."""
        n = block.values.shape[0]
        if block.values.shape != (n, n):
            raise ValueError(
                f"Floyd-Warshall needs a square block, got {block.values.shape}")
        held = []
        planes = _planes(block, held, target=True)
        _check(self._witness_fw(algebra, _DTYPE_CODES[block.values.dtype],
                                planes, n))
        for plane, work in zip((block.values, block.parents, block.succs), held):
            if work is not plane:
                plane[...] = work


def _planes(block, held: list, *, target: bool = False):
    """The ``planes`` structure of a witnessed ``block`` (``None``: NULL).

    Each plane goes through :func:`_row_major`; the arrays it returns are
    appended to ``held``, which must outlive the call.
    """
    if block is None:
        return None
    fields = {}
    for name, stride, plane in (("values", "ldv", block.values),
                                ("parents", "ldp", block.parents),
                                ("succs", "lds", block.succs)):
        if plane is None:
            continue
        work, fields[stride] = _row_major(plane, target=target)
        fields[name] = work.ctypes.data
        held.append(work)
    return ctypes.byref(_Planes(**fields))


def _row_major(x: np.ndarray, *, target: bool = False) -> tuple[np.ndarray, int]:
    """``x`` (or a C-ordered copy of it) and its row stride in elements.

    The kernels need unit-stride rows; a mirror ``.T`` view or a column-
    strided sub-block is copied, ``O(b²)`` against the kernel's ``O(b³)``.
    The stride of a length-1 axis is never used.  A read-only ``target``
    is copied too, so writing the result back raises as NumPy would.
    """
    item = x.itemsize
    rows, cols = x.shape
    if x.flags.aligned and (cols <= 1 or x.strides[1] == item) \
            and (rows <= 1 or x.strides[0] % item == 0) \
            and (x.flags.writeable or not target):
        return x, (x.strides[0] // item if rows > 1 else cols)
    return np.array(x, order="C"), cols


def _check(status: int) -> None:
    if status:
        raise MemoryError("the compiled kernel could not allocate its scratch row")


def cache_dir() -> Path:
    """Where builds are cached: ``$XDG_CACHE_HOME/apspark`` or ``~/.cache/apspark``."""
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache")
    return Path(root) / "apspark"


def source() -> bytes:
    """The shipped ``relax.c``."""
    return resources.files("repro.linalg").joinpath("relax.c").read_bytes()


def cpu_identity() -> str:
    """The CPU model and feature flags ``-march=native`` compiles for."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as fh:
            lines = [line for line in fh.read().split("\n\n")[0].splitlines()
                     if line.startswith(("vendor_id", "model name", "flags"))]
    except OSError:
        lines = []
    return "\n".join([platform.machine(), platform.processor(), *lines])


def build_key(source_bytes: bytes, compiler_version: str,
              flags=FLAGS, cpu: str | None = None) -> str:
    """The cache key of one build: source hash + compiler + flags + CPU."""
    digest = hashlib.sha256()
    for part in (hashlib.sha256(source_bytes).hexdigest(), compiler_version,
                 " ".join(flags), cpu_identity() if cpu is None else cpu):
        digest.update(part.encode() + b"\0")
    return digest.hexdigest()[:24]


def library_path(directory: Path, key: str) -> Path:
    """The cached library of build ``key``."""
    return directory / f"relax-{key}.so"


def _build(compiler: str, directory: Path) -> tuple[Kernel | None, str | None]:
    """Compile (unless cached) and load; ``(None, reason)`` on any failure."""
    try:
        code = source()
    except OSError as exc:
        return None, f"the kernel source relax.c is not installed ({exc})"
    exe = shutil.which(compiler)
    if exe is None:
        return None, f"no C compiler found ({compiler!r} is not on PATH)"
    try:
        version = subprocess.run([exe, "--version"], capture_output=True,
                                 text=True, timeout=60, check=True).stdout
    except (OSError, subprocess.SubprocessError) as exc:
        return None, f"no C compiler found ({compiler!r} --version failed: {exc})"
    path = library_path(directory, build_key(code, version))
    if not path.exists():
        tmp = path.with_name(f".{path.name}.{os.getpid()}-{uuid.uuid4().hex}.tmp")
        try:
            directory.mkdir(parents=True, exist_ok=True)
            proc = subprocess.run([exe, *FLAGS, "-x", "c", "-", "-o", str(tmp)],
                                  input=code, capture_output=True, timeout=600)
            if proc.returncode:
                detail = proc.stderr.decode(errors="replace").strip().splitlines()
                return None, ("compiling relax.c failed: "
                              + (detail[0] if detail else f"exit {proc.returncode}"))
            os.replace(tmp, path)
        except (OSError, subprocess.SubprocessError) as exc:
            return None, f"compiling relax.c failed: {exc}"
        finally:
            with contextlib.suppress(OSError):
                tmp.unlink()
    try:
        return Kernel(ctypes.CDLL(str(path))), None
    except (OSError, AttributeError) as exc:
        return None, f"loading {path.name} failed: {exc}"


_lock = threading.Lock()
_state: tuple[Kernel | None, str | None] | None = None


def _resolve(compiler: str = COMPILER) -> tuple[Kernel | None, str | None]:
    kernel, reason = _build(compiler, cache_dir())
    if kernel is None:
        _log.warning("dense kernels run on NumPy: %s", reason)
    return kernel, reason


def kernel() -> Kernel | None:
    """The compiled kernel, building it on first use; ``None`` means NumPy."""
    global _state
    if _state is None:
        with _lock:
            if _state is None:
                _state = _resolve()
    return _state[0]


def kernel_for(algebra, dtype: np.dtype) -> tuple[Kernel, int] | None:
    """The kernel and the algebra's code in it, or ``None`` when NumPy runs
    (no kernel loaded, a bool/other dtype, or an algebra it does not know)."""
    if dtype not in _DTYPE_CODES:
        return None
    code = ALGEBRA_CODES.get((algebra.add_op, algebra.mul_op))
    if code is None:
        return None
    loaded = kernel()
    return None if loaded is None else (loaded, code)


def describe() -> dict:
    """``{"linalg_kernel": "native"}``, or ``"numpy"`` with the reason."""
    kernel()
    loaded, reason = _state
    if loaded is not None:
        return {"linalg_kernel": "native"}
    return {"linalg_kernel": "numpy", "linalg_kernel_reason": reason}


@contextlib.contextmanager
def _forced(which: str | None = None, *, compiler: str | None = None):
    """Test hook: run the block with NumPy (``"numpy"``), or with the kernel
    state a fresh build with ``compiler`` gives; the previous state returns
    on exit.  Worker processes are not affected."""
    global _state
    previous = _state
    with _lock:
        if which == "numpy":
            _state = (None, "NumPy forced by a test")
        elif which is None and compiler is not None:
            _state = _resolve(compiler)
        else:
            raise ValueError(f"unknown forcing {which!r}")
    try:
        yield describe()
    finally:
        _state = previous
