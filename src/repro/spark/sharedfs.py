"""Shared persistent storage used as an out-of-band broadcast channel.

The Repeated Squaring and Blocked Collect/Broadcast solvers are *impure*: they
move data between the driver and the executors by writing NumPy blocks to a
shared file system (GPFS in the paper's cluster) instead of shuffling them
through Spark (Sections 4.2 and 4.5).  :class:`SharedFileSystem` backs that
channel with a local directory and tracks bytes written/read.

Staging integrity
-----------------
Every staged object is written atomically — serialized to a temp file, then
renamed into place — and carries a footer (CRC32 + payload length + magic)
that readers verify, so a torn or corrupted block is detected rather than
deserialized into garbage.  The rename is the guarantee: a reader sees the
whole block or no block under the name, never a partial one.  Nothing is
fsynced: staged blocks live for one session on one host, so they need not
survive a crash of the host.

A task reads through :meth:`SharedFileSystem.task_reader`, which decodes (and
CRC-checks) each staged block at most once per task.  The driver keeps a
*bounded* lineage registry of recently staged values (references, not
copies): when a reader finds a block missing or corrupt, the block is
re-staged from that registry (at most :attr:`restage_limit` times per name)
and the read succeeds.  A worker-process copy holds no registry; it raises
:class:`~repro.common.errors.StagingError`, which the scheduler repairs
driver-side before retrying the task.  Only when the value has left the
registry too — an explicit :meth:`drop`, or eviction past the bound — does
the failure surface as :class:`~repro.common.errors.LineageError`, the
paper's impure-solver caveat.
"""

from __future__ import annotations

import os
import pickle
import shutil
import struct
import threading
import uuid
import zlib
from collections import OrderedDict
from typing import Callable

import numpy as np

from repro.common.errors import LineageError, StagingError
from repro.spark.metrics import EngineMetrics

#: Footer magic marking a complete, checksummed staged block.
_MAGIC = b"APSPBLK1"
#: Footer layout: CRC32 (uint32 LE) + payload length (uint64 LE) + magic.
_FOOTER = struct.Struct("<IQ8s")

#: Default bound on the driver's staged-value lineage registry (entries).
DEFAULT_LINEAGE_LIMIT = 256
#: Default bound on re-stages per staged name before giving up.
DEFAULT_RESTAGE_LIMIT = 3


def _encode(value) -> bytes:
    """Serialize a staged value with its integrity footer."""
    if isinstance(value, np.ndarray):
        payload = pickle.dumps(("ndarray", value), protocol=pickle.HIGHEST_PROTOCOL)
    else:
        payload = pickle.dumps(("object", value), protocol=pickle.HIGHEST_PROTOCOL)
    return payload + _FOOTER.pack(zlib.crc32(payload), len(payload), _MAGIC)


def _decode(data: bytes):
    """Verify the footer and return ``(value, payload_bytes)``; raise ``ValueError``."""
    if len(data) < _FOOTER.size:
        raise ValueError("staged block truncated before footer")
    crc, length, magic = _FOOTER.unpack(data[-_FOOTER.size:])
    payload = data[:-_FOOTER.size]
    if magic != _MAGIC or length != len(payload):
        raise ValueError("staged block footer malformed")
    if zlib.crc32(payload) != crc:
        raise ValueError("staged block failed checksum verification")
    kind, value = pickle.loads(payload)
    return value, len(payload)


class SharedFileSystem:
    """A directory-backed key/value store for NumPy arrays and picklable objects."""

    def __init__(self, root: str, metrics: EngineMetrics | None = None,
                 fault_injector=None,
                 lineage_limit: int = DEFAULT_LINEAGE_LIMIT,
                 restage_limit: int = DEFAULT_RESTAGE_LIMIT) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        self.metrics = metrics or EngineMetrics()
        self.lineage_limit = max(0, int(lineage_limit))
        self.restage_limit = max(0, int(restage_limit))
        self._faults = fault_injector
        self._worker = False
        self._lock = threading.Lock()
        self._index: dict[str, str] = {}
        self._names: dict[str, str] = {}  # path -> name (restage lookup)
        self._lineage: OrderedDict[str, object] = OrderedDict()
        self._restage_counts: dict[str, int] = {}

    # -- pickling (processes backend) --------------------------------------------
    def __getstate__(self) -> dict:
        """Ship only the directory and the name index across process boundaries.

        The metrics object, its lock, the fault injector, and the lineage
        registry stay behind; the unpickled copy binds to the per-process
        worker collector so reads performed inside a worker are accounted and
        returned to the driver as a delta (see :mod:`repro.spark.remote`).
        Holding no lineage, a worker copy reports integrity failures as
        :class:`~repro.common.errors.StagingError` for the driver to repair.
        """
        with self._lock:
            return {"root": self.root, "index": dict(self._index)}

    def __setstate__(self, state: dict) -> None:
        from repro.spark.remote import worker_metrics
        self.root = state["root"]
        self.metrics = worker_metrics()
        self.lineage_limit = 0
        self.restage_limit = 0
        self._faults = None
        self._worker = True
        self._lock = threading.Lock()
        self._index = dict(state["index"])
        self._names = {}
        self._lineage = OrderedDict()
        self._restage_counts = {}

    def _path_for(self, name: str) -> str:
        safe = name.replace("/", "_").replace(" ", "_")
        return os.path.join(self.root, f"{safe}-{uuid.uuid4().hex[:8]}.blk")

    # -- write -----------------------------------------------------------------
    @staticmethod
    def _write_atomic(path: str, data: bytes) -> None:
        """Write-temp + rename: readers never observe a torn block.

        A failed write removes its temp file, so nothing is left visible
        under ``path`` or beside it.
        """
        tmp = f"{path}.tmp-{uuid.uuid4().hex[:8]}"
        try:
            with open(tmp, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.remove(tmp)
            raise

    def write(self, name: str, value) -> str:
        """Serialize ``value`` under ``name`` atomically and return the file path."""
        data = _encode(value)
        path = self._path_for(name)
        self._write_atomic(path, data)
        with self._lock:
            self._index[name] = path
            self._names[path] = name
            if self.lineage_limit > 0:
                self._lineage[name] = value
                self._lineage.move_to_end(name)
                while len(self._lineage) > self.lineage_limit:
                    self._lineage.popitem(last=False)
        self.metrics.sharedfs_written(len(data) - _FOOTER.size)
        self._apply_write_faults(path)
        return path

    def _apply_write_faults(self, path: str) -> None:
        """Chaos hooks: corrupt or delete the block just staged at ``path``."""
        if self._faults is None:
            return
        write_id = self._faults.next_write_id()
        if self._faults.drop_write(write_id):
            if os.path.exists(path):
                os.remove(path)
        elif self._faults.corrupt_write(write_id):
            with open(path, "r+b") as fh:
                head = fh.read(16)
                fh.seek(0)
                fh.write(bytes(b ^ 0xFF for b in head))

    def write_blocks(self, prefix: str, blocks: dict) -> dict:
        """Write a dictionary of blocks, returning ``{key: path}``.

        This is the "store its blocks in a shared file system available to
        driver and executor nodes" step of Algorithms 1 and 4.
        """
        return {key: self.write(f"{prefix}-{key}", value) for key, value in blocks.items()}

    # -- read ------------------------------------------------------------------
    def _load(self, path: str):
        """Read+verify one staged block; raise :class:`StagingError` on any defect."""
        name = self._names.get(path, path)
        if not os.path.exists(path):
            raise StagingError(f"staged block {name!r} is missing", name=path)
        with open(path, "rb") as fh:
            data = fh.read()
        try:
            value, payload_bytes = _decode(data)
        except Exception as exc:
            raise StagingError(f"staged block {name!r} is corrupt: {exc}",
                               name=path, corrupt=True) from exc
        self.metrics.sharedfs_read(payload_bytes)
        return value

    def read(self, name_or_path: str):
        """Read a value previously written under ``name`` or by exact path.

        A missing or corrupt block is repaired in place from the driver's
        lineage registry when possible (bounded by :attr:`restage_limit`);
        worker copies raise :class:`StagingError` for the driver-side repair
        hook, and a genuinely unrecoverable block raises
        :class:`LineageError` — the paper's impure-solver fault caveat.
        """
        path = self._resolve(name_or_path)
        try:
            return self._load(path)
        except StagingError as exc:
            self.metrics.sharedfs_integrity_failure()
            if self.restage(path):
                return self._load(path)
            if self._worker:
                raise  # the driver may still hold the value in lineage
            raise LineageError(
                f"shared-filesystem object {name_or_path!r} is "
                f"{'corrupt' if exc.corrupt else 'missing'} and cannot be "
                "re-staged from lineage; impure solvers cannot recover such "
                "data") from exc

    def task_reader(self) -> Callable[[str], object]:
        """Return :meth:`read` memoized per staged name or path: one decode per block.

        Scope it to one task — build it inside the partition function — so
        its blocks go when the task ends and it needs no bound or
        invalidation.  Every block is still CRC-checked on its first read,
        and a repair (re-stage or :class:`StagingError`) happens there.
        """
        blocks: dict[str, object] = {}

        def read(name_or_path: str):
            if name_or_path not in blocks:
                blocks[name_or_path] = self.read(name_or_path)
            return blocks[name_or_path]
        return read

    @staticmethod
    def _footer_valid(path: str) -> bool:
        """Cheap on-disk integrity probe (footer + CRC, no unpickling)."""
        try:
            with open(path, "rb") as fh:
                data = fh.read()
            crc, length, magic = _FOOTER.unpack(data[-_FOOTER.size:])
            payload = data[:-_FOOTER.size]
            return (magic == _MAGIC and length == len(payload)
                    and zlib.crc32(payload) == crc)
        except Exception:
            return False

    def restage(self, name_or_path: str) -> bool:
        """Rewrite a lost/corrupt block from the lineage registry; True on success.

        Bounded: each name is re-staged at most :attr:`restage_limit` times —
        a block that keeps disappearing points at a real defect and must
        eventually surface instead of looping forever.  Repairs are
        serialized under the lock, and a caller that arrives after another
        reader already repaired the block sees a valid file and succeeds
        without consuming a restage attempt — N concurrent readers of one
        corrupt block cost one repair, not N.
        """
        path = self._resolve(name_or_path)
        with self._lock:
            if self._footer_valid(path):
                return True  # a concurrent reader repaired it already
            name = self._names.get(path)
            if name is None or name not in self._lineage:
                return False
            if self._restage_counts.get(name, 0) >= self.restage_limit:
                return False
            self._restage_counts[name] = self._restage_counts.get(name, 0) + 1
            value = self._lineage[name]
            self._write_atomic(path, _encode(value))
        self.metrics.sharedfs_restaged()
        return True

    def _resolve(self, name_or_path: str) -> str:
        with self._lock:
            if name_or_path in self._index:
                return self._index[name_or_path]
        return name_or_path

    def exists(self, name_or_path: str) -> bool:
        """True when a staged name (or path) is present."""
        return os.path.exists(self._resolve(name_or_path))

    # -- maintenance -------------------------------------------------------------
    def drop(self, name_or_path: str) -> None:
        """Delete a stored object *including* its lineage entry.

        This is the unrecoverable-loss hook of the impure-solver tests: after
        ``drop`` the value is gone from disk and from the registry, so a
        subsequent read surfaces :class:`LineageError` exactly as the paper
        describes.
        """
        path = self._resolve(name_or_path)
        with self._lock:
            name = self._names.get(path)
            if name is not None:
                self._lineage.pop(name, None)
        if os.path.exists(path):
            os.remove(path)

    def clear(self) -> None:
        """Remove every object stored so far."""
        with self._lock:
            self._index.clear()
            self._names.clear()
            self._lineage.clear()
            self._restage_counts.clear()
        for entry in os.listdir(self.root):
            full = os.path.join(self.root, entry)
            if os.path.isfile(full) and (entry.endswith(".blk") or ".blk.tmp-" in entry):
                os.remove(full)

    def close(self, *, remove_root: bool = False) -> None:
        """Release per-instance resources (directory is owned by the context)."""
        if remove_root and os.path.isdir(self.root):
            shutil.rmtree(self.root, ignore_errors=True)

    def __repr__(self) -> str:
        return f"SharedFileSystem(root={self.root!r}, objects={len(self._index)})"
