"""Deterministic fault injection for the engine.

Spark's headline feature is lineage-based fault tolerance; the paper
distinguishes *pure* solvers (recoverable) from *impure* ones (side effects
through the shared file system break recoverability).  The fault injector
lets tests and the ``apspark chaos`` driver schedule four kinds of fault —
plain task failures, worker-process crashes, straggler delays (which trip the
soft timeout and trigger speculation), and corrupted/lost staged blocks — and
verify that pure lineage recomputes correctly while impure channels recover
through the bounded re-stage path or surface
:class:`~repro.common.errors.LineageError`.

Every decision is a pure function of ``(plan, task id or write index)``: the
rate draws are seeded per-index through :func:`~repro.common.rng.derive_seed`
rather than consumed from a shared stream, so the schedule is identical no
matter how the thread pool interleaves task startup — the property the
``apspark chaos --seed S`` reproducibility contract rests on.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.common.errors import ConfigurationError, FaultInjectedError
from repro.common.rng import derive_seed, make_rng


@dataclass
class FaultPlan:
    """Describes which task executions and staged writes should fail, and how.

    Parameters
    ----------
    fail_task_indices:
        Global task-launch indices (0-based, counted across the whole context
        lifetime) that should raise a plain
        :class:`~repro.common.errors.FaultInjectedError` on their *first*
        attempt.
    crash_task_indices:
        Task indices whose first attempt should die as a *worker crash*: on
        the ``processes`` backend the scheduler kills a real worker process
        (producing a genuine ``BrokenProcessPool``); on in-process backends a
        :class:`~repro.common.errors.WorkerCrashError` is raised instead.
    delay_task_indices:
        Task indices whose first execution sleeps ``delay_seconds`` before
        running — a straggler.  With speculation enabled the soft timeout
        fires and a (non-delayed) copy races the original.
    delay_seconds:
        Straggler sleep duration.
    corrupt_write_indices:
        Shared-filesystem write indices (0-based, counted per context) whose
        on-disk bytes are corrupted after a successful write — readers detect
        the checksum mismatch and trigger the re-stage path.
    drop_write_indices:
        Write indices whose file is deleted right after the write — readers
        find it missing (the paper's "files missing when a task is
        rescheduled" hazard).
    failure_rate / crash_rate:
        Probability of failing/crashing any task's first attempt (checked
        after the explicit indices), decided per task id deterministically.
        Retries are never re-failed so runs terminate.
    max_failures:
        Upper bound on the total number of injected task faults of all kinds.
    """

    fail_task_indices: frozenset[int] = frozenset()
    crash_task_indices: frozenset[int] = frozenset()
    delay_task_indices: frozenset[int] = frozenset()
    delay_seconds: float = 0.05
    corrupt_write_indices: frozenset[int] = frozenset()
    drop_write_indices: frozenset[int] = frozenset()
    failure_rate: float = 0.0
    crash_rate: float = 0.0
    max_failures: int = 1 << 30
    seed: int = 0

    def __post_init__(self) -> None:
        # Accept any iterable of ints for the index sets (tests pass sets,
        # the chaos driver passes sorted lists) but store frozensets so the
        # plan is safely shareable across threads.
        for name in ("fail_task_indices", "crash_task_indices",
                     "delay_task_indices", "corrupt_write_indices",
                     "drop_write_indices"):
            value = getattr(self, name)
            if not isinstance(value, frozenset):
                object.__setattr__(self, name, frozenset(int(v) for v in value))
        for name in ("failure_rate", "crash_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"{name} must be within [0, 1], got {rate}")
        if self.delay_seconds < 0.0:
            raise ConfigurationError(
                f"delay_seconds must be >= 0, got {self.delay_seconds}")


def _rate_hit(seed: int, kind: int, index: int, rate: float) -> bool:
    """Deterministic per-index Bernoulli draw (order-independent)."""
    if rate <= 0.0:
        return False
    if rate >= 1.0:
        return True
    return bool(make_rng(derive_seed(seed, kind, index)).random() < rate)


@dataclass
class _Counters:
    """Mutable injection tallies, kept separate so ``FaultPlan`` stays shareable."""

    injected: int = 0
    crashes: int = 0
    delays: int = 0
    corrupted_writes: int = 0
    dropped_writes: int = 0
    failed_once: set[int] = field(default_factory=set)


class FaultInjector:
    """Runtime hook consulted by the scheduler and shared fs before each action."""

    def __init__(self, plan: FaultPlan | None = None) -> None:
        self.plan = plan or FaultPlan()
        self._lock = threading.Lock()
        self._task_counter = 0
        self._write_counter = 0
        self._c = _Counters()

    @property
    def injected_failures(self) -> int:
        """Number of task faults injected so far (plain failures + crashes)."""
        return self._c.injected

    @property
    def injected_crashes(self) -> int:
        """Number of worker crashes injected so far."""
        return self._c.crashes

    @property
    def injected_delays(self) -> int:
        """Number of straggler delays injected so far."""
        return self._c.delays

    def counters(self) -> dict:
        """Snapshot of the injection tallies (for chaos-run reconciliation)."""
        with self._lock:
            return {
                "injected_failures": self._c.injected,
                "injected_crashes": self._c.crashes,
                "injected_delays": self._c.delays,
                "corrupted_writes": self._c.corrupted_writes,
                "dropped_writes": self._c.dropped_writes,
            }

    def next_task_id(self) -> int:
        """Allocate a unique task id for fault bookkeeping."""
        with self._lock:
            tid = self._task_counter
            self._task_counter += 1
            return tid

    # -- task faults -----------------------------------------------------------
    def maybe_fail(self, task_id: int, attempt: int) -> None:
        """Raise :class:`FaultInjectedError` if this attempt should fail."""
        if attempt > 0:
            return  # only first attempts fail, so retried work always completes
        plan = self.plan
        with self._lock:
            if self._c.injected >= plan.max_failures:
                return
            should_fail = task_id in plan.fail_task_indices
            if not should_fail and task_id not in self._c.failed_once:
                should_fail = _rate_hit(plan.seed, 1, task_id, plan.failure_rate)
            if should_fail:
                self._c.injected += 1
                self._c.failed_once.add(task_id)
        if should_fail:
            raise FaultInjectedError(f"injected failure in task {task_id}", task_id=task_id)

    def crash_requested(self, task_id: int, attempt: int) -> bool:
        """True when this attempt should die as a worker crash (first attempts only)."""
        if attempt > 0:
            return False
        plan = self.plan
        with self._lock:
            if self._c.injected >= plan.max_failures:
                return False
            should_crash = task_id in plan.crash_task_indices
            if not should_crash and task_id not in self._c.failed_once:
                should_crash = _rate_hit(plan.seed, 2, task_id, plan.crash_rate)
            if should_crash:
                self._c.injected += 1
                self._c.crashes += 1
                self._c.failed_once.add(task_id)
            return should_crash

    def delay_requested(self, task_id: int, attempt: int) -> float:
        """Straggler sleep (seconds) for this attempt; 0.0 for none.

        Only the first execution of a task is delayed, so the speculative
        copy (same task id, same attempt, second execution) runs at full
        speed and wins the race.
        """
        if attempt > 0:
            return 0.0
        plan = self.plan
        if task_id not in plan.delay_task_indices:
            return 0.0
        with self._lock:
            key = -(task_id + 1)  # distinct namespace from failed_once task ids
            if key in self._c.failed_once:
                return 0.0
            self._c.failed_once.add(key)
            self._c.delays += 1
        return max(0.0, float(plan.delay_seconds))

    # -- staging faults --------------------------------------------------------
    def next_write_id(self) -> int:
        """Allocate a unique staged-write index for fault bookkeeping."""
        with self._lock:
            wid = self._write_counter
            self._write_counter += 1
            return wid

    def corrupt_write(self, write_id: int) -> bool:
        """True when this staged write's on-disk bytes should be corrupted."""
        hit = write_id in self.plan.corrupt_write_indices
        if hit:
            with self._lock:
                self._c.corrupted_writes += 1
        return hit

    def drop_write(self, write_id: int) -> bool:
        """True when this staged write's file should be deleted after writing."""
        hit = write_id in self.plan.drop_write_indices
        if hit:
            with self._lock:
                self._c.dropped_writes += 1
        return hit
