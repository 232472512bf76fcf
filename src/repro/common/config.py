"""Engine-wide configuration.

The :class:`EngineConfig` dataclass collects the knobs shared by the
mini-Spark engine and the solvers: execution backend, number of worker
threads ("cores"), number of simulated executors ("nodes"), shuffle spill
accounting, and the shared-filesystem directory used by the impure solvers.
"""

from __future__ import annotations

import dataclasses
import os
import tempfile
from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError
from repro.common.retry import BackoffPolicy

#: Execution backends supported by the scheduler.
BACKENDS = ("serial", "threads", "processes")


@dataclass
class EngineConfig:
    """Configuration of the mini-Spark engine.

    Parameters
    ----------
    backend:
        ``"serial"`` runs tasks one by one on the driver thread (fully
        deterministic, easiest to debug); ``"threads"`` runs tasks of a stage
        concurrently on a thread pool (NumPy/BLAS kernels release the GIL, so
        this gives real parallelism for the compute-heavy block kernels);
        ``"processes"`` additionally ships picklable task payloads to a
        process pool for GIL-free multi-core execution — tasks that cannot
        be pickled (closure-heavy lineage) transparently fall back to the
        driver's thread pool, so every solver stays correct.
    num_executors:
        Number of simulated executor processes (paper: one per node, 32).
    cores_per_executor:
        Worker threads per executor (paper: 32).  The product
        ``num_executors * cores_per_executor`` plays the role of ``p``.
    local_storage_bytes:
        Per-executor local storage capacity available for shuffle spills
        (paper: 1 TB SSD per node).  Every shuffle write is charged against
        the executor that produced it, and exceeding the capacity raises
        :class:`~repro.common.errors.StorageExhaustedError`; ``None``
        disables the capacity check (the accounting stays on).
    shared_fs_dir:
        Directory backing the shared-filesystem broadcast channel (paper:
        GPFS).  ``None`` means "create a temporary directory on first use".
    retry:
        The :class:`~repro.common.retry.BackoffPolicy` governing every retry
        site (task re-execution, worker-crash recovery, staged-block repair).
        A policy with the default seed 0 is re-seeded deterministically from
        :attr:`seed` by the scheduler so distinct engine sessions decorrelate.
    task_timeout_seconds:
        Explicit soft per-task timeout, armed from a stage's start.  ``None``
        derives it per stage from the walls of the stage's finished tasks
        (:data:`~repro.spark.scheduler.SOFT_TIMEOUT_MULTIPLIER` × their
        median, floored at
        :data:`~repro.spark.scheduler.MIN_DERIVED_SOFT_TIMEOUT`), armed once
        one task has finished, so a one-task stage is never speculated.
    speculation:
        Launch one speculative copy of a task whose soft timeout expired, on
        the stage's own pool (``threads``/``processes`` backends); first
        result wins.
    stage_timeout_seconds:
        Hard deadline for one stage.  Expiry raises a diagnosable
        :class:`~repro.common.errors.TaskTimeoutError` instead of hanging.
    """

    backend: str = "serial"
    num_executors: int = 4
    cores_per_executor: int = 2
    local_storage_bytes: int | None = None
    shared_fs_dir: str | None = None
    seed: int = 1234
    retry: BackoffPolicy = field(default_factory=BackoffPolicy)
    task_timeout_seconds: float | None = None
    speculation: bool = True
    stage_timeout_seconds: float | None = None

    def __post_init__(self) -> None:
        if self.backend not in BACKENDS:
            raise ConfigurationError(
                f"unknown backend {self.backend!r}; expected one of {BACKENDS}")
        if self.num_executors < 1:
            raise ConfigurationError("num_executors must be >= 1")
        if self.cores_per_executor < 1:
            raise ConfigurationError("cores_per_executor must be >= 1")
        if self.local_storage_bytes is not None and self.local_storage_bytes < 0:
            raise ConfigurationError("local_storage_bytes must be >= 0 or None")
        if self.task_timeout_seconds is not None and self.task_timeout_seconds <= 0:
            raise ConfigurationError("task_timeout_seconds must be > 0 or None")
        if self.stage_timeout_seconds is not None and self.stage_timeout_seconds <= 0:
            raise ConfigurationError("stage_timeout_seconds must be > 0 or None")

    @property
    def total_cores(self) -> int:
        """Total simulated cores ``p`` available to the engine."""
        return self.num_executors * self.cores_per_executor

    @property
    def parallelism(self) -> int:
        """Default number of partitions used when none is requested."""
        return max(2, self.total_cores)

    def resolve_shared_fs_dir(self) -> str:
        """Return a usable shared-filesystem directory without mutating the config.

        When :attr:`shared_fs_dir` is set it is created (if needed) and
        returned.  Otherwise a fresh temporary directory is returned — the
        *caller* owns it and is responsible for cleaning it up; the config is
        deliberately left untouched so that a config shared across several
        contexts or engine sessions never smuggles one session's temp dir
        (and its lifetime) into another.
        :class:`~repro.spark.context.SparkContext` implements exactly that
        ownership: it removes the temp dir on ``stop()``.
        """
        if self.shared_fs_dir is None:
            return tempfile.mkdtemp(prefix="apspark-sharedfs-")
        os.makedirs(self.shared_fs_dir, exist_ok=True)
        return self.shared_fs_dir

    def replace(self, **kwargs) -> "EngineConfig":
        """Return a copy of this config with the given fields replaced."""
        return dataclasses.replace(self, **kwargs)


def default_config() -> EngineConfig:
    """Return a small, deterministic configuration suitable for tests."""
    return EngineConfig(backend="serial", num_executors=4, cores_per_executor=2)
