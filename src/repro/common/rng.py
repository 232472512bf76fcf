"""Deterministic random-number-generation helpers.

Everything stochastic in the library (graph generation, fault injection,
synthetic blocks for benchmarks) goes through :func:`make_rng` so that runs
are reproducible given a seed.
"""

from __future__ import annotations

import numpy as np


def make_rng(seed: int | np.random.Generator | None = 0) -> np.random.Generator:
    """Return a NumPy :class:`~numpy.random.Generator`.

    Accepts an integer seed, an existing generator (returned unchanged), or
    ``None`` (non-deterministic entropy).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def derive_seed(seed: int, *components: int) -> int:
    """Derive a stable 63-bit seed from a base seed and integer components."""
    mask = (1 << 64) - 1
    h = (int(seed) * 0x9E3779B97F4A7C15) & mask
    for c in components:
        h ^= (int(c) + 0x9E3779B97F4A7C15 + ((h << 6) & mask) + (h >> 2)) & mask
        h &= mask
    return h & 0x7FFFFFFFFFFFFFFF
