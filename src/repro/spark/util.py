"""Small helpers shared by the engine: record size estimation and key extraction."""

from __future__ import annotations

import pickle
import sys

import numpy as np


def estimate_size(obj) -> int:
    """Estimate the serialized size of a record in bytes.

    NumPy arrays are counted by their buffer size (they dominate all traffic
    in the APSP workloads); containers are summed recursively; everything else
    falls back to ``pickle`` length.  The estimate feeds the shuffle-spill and
    collect/broadcast accounting, so it only needs to be proportional to the
    real volume, not exact.
    """
    # Exact-type fast path for what block records are made of; subclasses and
    # everything else take the isinstance ladder below (same answers).
    kind = type(obj)
    if kind is np.ndarray:
        return int(obj.nbytes)
    if kind is tuple or kind is list:
        total = 8
        for item in obj:
            total += estimate_size(item)
        return total
    if kind is int or kind is float:
        return 8
    if obj is None:
        return 1
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, str):
        return len(obj.encode("utf-8"))
    if isinstance(obj, (int, float, bool, np.integer, np.floating)):
        return 8
    if isinstance(obj, (tuple, list)):
        return sum(estimate_size(x) for x in obj) + 8
    if isinstance(obj, dict):
        return sum(estimate_size(k) + estimate_size(v) for k, v in obj.items()) + 8
    try:
        return len(pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL))
    except Exception:
        return sys.getsizeof(obj)


def record_key(record):
    """Return the key of a key-value record (``record[0]``).

    Raises ``TypeError`` with a clear message when the record is not a pair,
    mirroring pySpark's behaviour for by-key operations on non-pair RDDs.
    """
    if not isinstance(record, (tuple, list)) or len(record) != 2:
        raise TypeError(
            f"by-key operation requires (key, value) records, got {type(record).__name__}: {record!r}")
    return record[0]
