"""Exception hierarchy for the APSPark reproduction.

All library-raised exceptions derive from :class:`ReproError` so that callers
can catch one type at the API boundary.  Specific subclasses are raised where
the distinction is actionable — most importantly
:class:`StorageExhaustedError`, which models the paper's observation that the
Blocked In-Memory solver fails when shuffle spills exceed the cluster's local
storage capacity (Section 5.2).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ConfigurationError(ReproError):
    """An engine, cluster, or solver configuration value is invalid."""


class ValidationError(ReproError):
    """An input (matrix, graph, block size, ...) fails validation."""


class SolverError(ReproError):
    """A solver could not complete (other than by storage exhaustion)."""


class StorageExhaustedError(SolverError):
    """Local (per-node) storage capacity was exceeded by shuffle spills.

    The paper reports this failure mode for the Blocked In-Memory solver at
    small block sizes / large core counts (Section 5.2 and Table 3, the ``–``
    entry for p = 1024).  The shuffle manager raises this when accumulated
    spill volume on any simulated node exceeds
    :attr:`repro.common.config.EngineConfig.local_storage_bytes`; the
    projector's wall is :data:`repro.cluster.costmodel.LOCAL_STORAGE_BYTES`.
    """

    def __init__(self, message: str, *, node: int | None = None,
                 required_bytes: int | None = None,
                 capacity_bytes: int | None = None) -> None:
        super().__init__(message)
        self.node = node
        self.required_bytes = required_bytes
        self.capacity_bytes = capacity_bytes


class FaultInjectedError(ReproError):
    """Raised by the fault-injection hooks to simulate a task/executor failure."""

    def __init__(self, message: str = "injected fault", *, task_id: int | None = None) -> None:
        super().__init__(message)
        self.task_id = task_id


class WorkerCrashError(SolverError):
    """A worker process died mid-task (real or injected).

    On the ``processes`` backend this wraps ``BrokenProcessPool``: the pool
    that hosted the attempt is garbage, the scheduler rebuilds it, and the
    attempt is retried — lineage recomputation, since the task's input was
    materialized on the driver when the stage was built.  On in-process
    backends the fault injector raises it directly to simulate the same
    executor-loss event.
    """

    def __init__(self, message: str = "worker process died", *,
                 task_id: int | None = None) -> None:
        super().__init__(message)
        self.task_id = task_id


class TaskTimeoutError(SolverError):
    """A stage exceeded its hard deadline (diagnosable fail-fast).

    Carries enough context to debug the hang: which stage kind, how many of
    its tasks completed, and the deadline that was blown.  Distinct from the
    *soft* per-task timeout, which never raises — it launches a speculative
    copy instead.
    """

    def __init__(self, message: str, *, stage_kind: str | None = None,
                 completed: int | None = None, total: int | None = None,
                 timeout_seconds: float | None = None) -> None:
        super().__init__(message)
        self.stage_kind = stage_kind
        self.completed = completed
        self.total = total
        self.timeout_seconds = timeout_seconds


class StagingError(ReproError):
    """A staged shared-filesystem block is missing or failed checksum verification.

    Retryable *if* the driver still holds the staged value in its bounded
    lineage registry (the block is then re-staged and the task re-run);
    otherwise it escalates to :class:`LineageError`, the paper's impure-solver
    caveat.  ``name`` is the key or path the reader asked for.
    """

    def __init__(self, message: str, *, name: str | None = None,
                 corrupt: bool = False) -> None:
        super().__init__(message)
        self.name = name
        self.corrupt = corrupt


class LineageError(ReproError):
    """A lost partition could not be recomputed from lineage.

    This is the behaviour the paper calls *impure*: solvers that stash data in
    a shared file system outside of RDD lineage are not guaranteed to recover
    from task failures.
    """
