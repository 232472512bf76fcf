"""Shared utilities: errors, configuration, RNG, timing, and validation."""

from repro.common.errors import (
    ReproError,
    ConfigurationError,
    StorageExhaustedError,
    SolverError,
    ValidationError,
    FaultInjectedError,
)
from repro.common.config import EngineConfig, default_config
from repro.common.rng import make_rng
from repro.common.timing import Timer, Stopwatch, format_seconds
from repro.common.validation import (
    check_square_matrix,
    check_block_size,
    check_positive_int,
)

__all__ = [
    "ReproError",
    "ConfigurationError",
    "StorageExhaustedError",
    "SolverError",
    "ValidationError",
    "FaultInjectedError",
    "EngineConfig",
    "default_config",
    "make_rng",
    "Timer",
    "Stopwatch",
    "format_seconds",
    "check_square_matrix",
    "check_block_size",
    "check_positive_int",
]
