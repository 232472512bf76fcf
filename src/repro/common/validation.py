"""Input-validation helpers shared by solvers and generators."""

from __future__ import annotations

import numpy as np

from repro.common.errors import ValidationError

#: Dtypes preserved (not upcast) when a caller asks for ``dtype=None``.
_NATIVE_KINDS = ("f", "b")  # floating and boolean


def check_positive_int(value: int, name: str) -> int:
    """Validate that ``value`` is a positive integer and return it."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise ValidationError(f"{name} must be an integer, got {type(value).__name__}")
    if value <= 0:
        raise ValidationError(f"{name} must be positive, got {value}")
    return int(value)


def check_square_matrix(matrix: np.ndarray, name: str = "matrix", *,
                        dtype: np.dtype | str | None = np.float64) -> np.ndarray:
    """Validate that ``matrix`` is a 2-D square array and return it.

    ``dtype`` controls the identity/dtype policy:

    * a concrete dtype (default ``float64`` for backward compatibility)
      casts the result to that dtype;
    * ``None`` *preserves* floating and boolean dtypes (so ``float32``
      pipelines keep their halved memory traffic and the boolean algebra its
      bool blocks) and upcasts anything else — integers, object arrays — to
      ``float64``.
    """
    arr = np.asarray(matrix)
    if arr.ndim != 2:
        raise ValidationError(f"{name} must be 2-dimensional, got ndim={arr.ndim}")
    if arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"{name} must be square, got shape {arr.shape}")
    if arr.size == 0:
        raise ValidationError(f"{name} must be non-empty")
    if dtype is None:
        if arr.dtype.kind in _NATIVE_KINDS:
            return arr
        return np.asarray(arr, dtype=np.float64)
    return np.asarray(arr, dtype=dtype)


def check_block_size(block_size: int, n: int) -> int:
    """Validate a block-decomposition parameter ``b`` against problem size ``n``."""
    b = check_positive_int(block_size, "block_size")
    check_positive_int(n, "n")
    if b > n:
        raise ValidationError(f"block_size ({b}) must not exceed n ({n})")
    return b
