"""Stage/task scheduler with pluggable execution backends and fault tolerance.

Stages are lists of independent tasks (one per partition).  The scheduler runs
them serially, on a thread pool, or — for tasks carrying a picklable payload
(:class:`~repro.spark.remote.RemoteTask`) — on a process pool, consults the
fault injector before every attempt, retries failed attempts with
deterministic-jitter exponential backoff (lineage-based recomputation happens
simply by re-running the task closure), and records stage timings in the
metrics.

Backend execution model
-----------------------
``serial``
    Tasks run one by one on the driver thread.
``threads``
    Tasks of a stage run concurrently on a thread pool; NumPy kernels release
    the GIL so the block math genuinely parallelizes.
``processes``
    A coordination thread per task drives execution; tasks that are
    :class:`RemoteTask` payloads are shipped to a lazily-created
    ``ProcessPoolExecutor`` (true multi-core, no GIL), and their worker-side
    metric deltas are merged back into the driver's counters.  Plain closure
    tasks keep running on the coordination threads, so solvers that cannot
    express picklable payloads remain correct.

Fault tolerance
---------------
Three failure classes are survived per attempt:

* **Worker death** — a ``BrokenProcessPool`` (real or injected via
  :meth:`FaultInjector.crash_requested`) retires the broken pool under a
  generation counter (concurrent victims retire it once), a fresh pool is
  built lazily, and only the in-flight tasks re-run — that *is* lineage
  recomputation here, because every task's input was materialized on the
  driver when the stage was built.  Counted as ``worker_restarts`` /
  ``tasks_recomputed``.
* **Stragglers** — the stage's wait loop watches every task's current
  attempt.  An attempt running past the soft timeout (explicit config, else
  :data:`SOFT_TIMEOUT_MULTIPLIER` × the median wall of the stage's finished
  tasks, as Spark's task-set manager does, armed once one has finished) gets
  one speculative copy on the same pool; the first result wins and the
  loser is cancelled (threads can't be killed, so a *running* loser is
  simply discarded when it finishes).  A hard stage deadline
  (``stage_timeout_seconds``) instead fails fast with a diagnosable
  :class:`~repro.common.errors.TaskTimeoutError`.
* **Lost staging** — a :class:`~repro.common.errors.StagingError` from a
  worker-side shared-fs read is repaired through registered driver-side
  hooks (re-stage from the bounded lineage registry) and the task retried;
  an unrepairable loss escalates to
  :class:`~repro.common.errors.LineageError`, the paper's impure caveat.
"""

from __future__ import annotations

import importlib
import multiprocessing
import os
import statistics
import sys
import threading
import time
from concurrent.futures import (FIRST_COMPLETED, BrokenExecutor, Future,
                                ProcessPoolExecutor, ThreadPoolExecutor, wait)
from typing import Callable, Sequence

from repro.common.config import EngineConfig
from repro.common.errors import (FaultInjectedError, LineageError, SolverError,
                                 StagingError, TaskTimeoutError,
                                 WorkerCrashError)
from repro.common.rng import derive_seed
from repro.spark.faults import FaultInjector
from repro.spark.metrics import EngineMetrics
from repro.spark.remote import RemoteTask, pack_payload, run_packed

#: Maximum attempts per task (Spark's default ``spark.task.maxFailures`` is 4).
#: Kept as the default of :class:`~repro.common.retry.BackoffPolicy.max_attempts`.
MAX_TASK_ATTEMPTS = 4

#: Floor for a soft timeout derived from sibling tasks: local task walls for
#: test-sized problems are sub-millisecond, and speculating on them would
#: double work for nothing.  Only genuine stalls should trip the derived
#: timeout; an explicit ``task_timeout_seconds`` is honoured verbatim.
MIN_DERIVED_SOFT_TIMEOUT = 0.25

#: Factor applied to the median wall of a stage's finished tasks to obtain the
#: soft timeout (stragglers slower than this trigger speculation).
SOFT_TIMEOUT_MULTIPLIER = 4.0


def _mp_context():
    """A start method that is safe in a threaded driver (never plain fork)."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "forkserver" if "forkserver" in methods else "spawn")


def _sanitize_main_for_spawn() -> None:
    """Drop a pseudo ``__main__.__file__`` (e.g. ``<stdin>``) before spawning.

    When the driver is fed from a pipe or heredoc, CPython's spawn/forkserver
    child preparation would try to re-run ``__main__`` from the non-existent
    path ``<stdin>`` and kill every worker with ``BrokenProcessPool``.  Our
    remote payloads are always importable module-level callables, so the
    child never needs ``__main__`` re-executed from such a pseudo-file.
    """
    main = sys.modules.get("__main__")
    main_file = getattr(main, "__file__", None)
    if main_file is not None and os.path.basename(main_file).startswith("<"):
        main.__file__ = None


def _die_worker() -> None:  # pragma: no cover - executes in a worker process
    """Kill the hosting worker process without cleanup (injected crash)."""
    os._exit(86)


class _Once:
    """A pool work item that lets go of its call before its future resolves.

    A ``ThreadPoolExecutor`` worker drops its finished work item — and so the
    task closure and, through it, the task's RDDs — only after it has
    delivered the result, racing the driver that already holds it.  Clearing the
    call while it runs means a finished stage holds nothing of its tasks, so
    an RDD (and the shuffle buckets its finalizer releases) dies as soon as
    the driver drops it.  An attempt that lost a speculation race and is
    still running keeps its task until it finishes.
    """

    __slots__ = ("fn", "args")

    def __init__(self, fn: Callable, *args) -> None:
        self.fn = fn
        self.args = args

    def __call__(self):
        fn, args = self.fn, self.args
        self.fn = self.args = None
        return fn(*args)


class TaskScheduler:
    """Runs stages of independent tasks on the configured backend."""

    def __init__(self, config: EngineConfig, metrics: EngineMetrics,
                 fault_injector: FaultInjector | None = None) -> None:
        self.config = config
        self.metrics = metrics
        self.faults = fault_injector or FaultInjector()
        retry = config.retry
        if retry.seed == 0:
            # Decorrelate sessions deterministically: jitter derives from the
            # engine seed unless the policy was explicitly seeded.
            retry = retry.reseed(derive_seed(config.seed, 0xB0FF))
        self.retry = retry
        self._stage_counter = 0
        self._pool: ThreadPoolExecutor | None = None
        self._proc_pool: ProcessPoolExecutor | None = None
        self._proc_pool_lock = threading.Lock()
        self._proc_pool_generation = 0
        self._repair_hooks: list[Callable[[StagingError], bool]] = []
        self._abandoned = False
        if config.backend in ("threads", "processes"):
            self._pool = ThreadPoolExecutor(max_workers=max(1, config.total_cores),
                                            thread_name_prefix="apspark-exec")

    # ------------------------------------------------------------------
    @property
    def supports_remote(self) -> bool:
        """True when :class:`RemoteTask` payloads are shipped to worker processes."""
        return self.config.backend == "processes"

    def _process_pool(self) -> ProcessPoolExecutor:
        """The worker-process pool, created lazily on first remote dispatch.

        Worker startup (forkserver/spawn imports the package) is paid once per
        pool *generation*; a pool broken by worker death is retired (see
        :meth:`_retire_process_pool`) and the next dispatch builds a fresh one
        here — the recovery half of worker-crash tolerance.  Each worker
        imports the package before it takes a task, so a worker still
        starting holds no task: otherwise it would import while unpickling
        its first one, which would look like a straggler beside siblings run
        by a worker that was already up.
        """
        with self._proc_pool_lock:
            if self._proc_pool is None:
                _sanitize_main_for_spawn()
                workers = max(1, min(self.config.total_cores,
                                     max(2, os.cpu_count() or 1)))
                self._proc_pool = ProcessPoolExecutor(
                    max_workers=workers, mp_context=_mp_context(),
                    initializer=importlib.import_module, initargs=("repro",))
            return self._proc_pool

    def _retire_process_pool(self, generation: int) -> None:
        """Discard a broken process pool (once per generation) for lazy rebuild.

        Every in-flight task on a dead pool observes ``BrokenProcessPool``
        concurrently; the generation counter makes sure only the first
        observer retires the pool (and counts the ``worker_restart``), so a
        single worker death never cascades into several rebuilds.
        """
        with self._proc_pool_lock:
            if self._proc_pool is None or self._proc_pool_generation != generation:
                return
            pool, self._proc_pool = self._proc_pool, None
            self._proc_pool_generation += 1
        self.metrics.worker_restarted()
        pool.shutdown(wait=False, cancel_futures=True)

    # ------------------------------------------------------------------ hooks
    def add_repair_hook(self, hook: Callable[[StagingError], bool]) -> None:
        """Register a driver-side repairer for worker-reported staging losses."""
        self._repair_hooks.append(hook)

    def _repair_staging(self, exc: StagingError) -> bool:
        """Try every repair hook; True when one restored the staged block."""
        for hook in self._repair_hooks:
            try:
                if hook(exc):
                    return True
            except Exception:  # noqa: BLE001 — a failing repairer is a failed repair
                continue
        return False

    def _soft_timeout(self, walls: Sequence[float]) -> float | None:
        """The stage's soft per-task timeout; ``None`` while it is unarmed.

        An explicit ``task_timeout_seconds`` holds as given.  Otherwise the
        timeout is :data:`SOFT_TIMEOUT_MULTIPLIER` × the median of ``walls``
        (the stage's finished tasks), floored at
        :data:`MIN_DERIVED_SOFT_TIMEOUT`, so it arms once one task of the
        stage has finished: a one-task stage has no sibling to measure.
        """
        if not self.config.speculation:
            return None
        if self.config.task_timeout_seconds is not None:
            return self.config.task_timeout_seconds
        if not walls:
            return None
        return max(MIN_DERIVED_SOFT_TIMEOUT,
                   SOFT_TIMEOUT_MULTIPLIER * statistics.median(walls))

    # ------------------------------------------------------------------ execution
    def _invoke(self, task: Callable[[], object]) -> object:
        """Execute one task attempt on the right executor for this backend.

        A :class:`RemoteTask` whose full payload (function *and* arguments)
        pickles is shipped to the process pool; anything else — including a
        payload whose records turn out to be unshippable — runs in-process,
        so the fallback guarantee holds at the data level, not just for the
        function.  Retried attempts re-ship the same payload: its input was
        materialized on the driver when the stage was built, so replaying it
        is exactly the lineage recomputation of this simulator.  A dead
        worker (``BrokenProcessPool``) retires the pool and resurfaces as a
        retryable :class:`WorkerCrashError`.
        """
        if isinstance(task, RemoteTask) and self.supports_remote:
            payload = pack_payload(task.fn, task.args)
            if payload is not None:
                with self._proc_pool_lock:
                    generation = self._proc_pool_generation
                try:
                    future = self._process_pool().submit(run_packed, payload)
                    result, delta = future.result()
                except BrokenExecutor as exc:
                    self._retire_process_pool(generation)
                    raise WorkerCrashError(
                        f"worker process died mid-task: {exc or type(exc).__name__}"
                    ) from exc
                self.metrics.merge_delta(delta)
                return task.finish(result)
        return task()

    def _injected_crash(self, task_id: int) -> None:
        """Kill a real worker (processes backend) or simulate executor loss.

        On the ``processes`` backend this submits :func:`_die_worker` to the
        live pool — the worker's ``os._exit`` breaks the pool for real, so
        recovery exercises the genuine ``BrokenProcessPool`` path, not a
        stand-in exception.
        """
        if self.supports_remote:
            with self._proc_pool_lock:
                generation = self._proc_pool_generation
            try:
                self._process_pool().submit(_die_worker).result()
            except BrokenExecutor as exc:
                self._retire_process_pool(generation)
                raise WorkerCrashError(
                    f"injected worker crash for task {task_id}",
                    task_id=task_id) from exc
        raise WorkerCrashError(
            f"injected worker crash for task {task_id} (simulated executor loss)",
            task_id=task_id)

    def _run_task(self, task: Callable[[], object],
                  started: list | None = None, index: int = 0) -> object:
        """Run a single task with fault injection, backoff, and retry.

        Each attempt stamps the start of its work (the injected straggler
        delay, then the task) into ``started[index]`` when given: the stage's
        wait loop measures the soft timeout from it.  Injected failures and
        crashes happen before the stamp, so no copy races them.
        """
        task_id = self.faults.next_task_id()
        last_error: Exception | None = None
        attempts = max(1, self.retry.max_attempts)
        for attempt in range(attempts):
            try:
                self.metrics.task_launched()
                if attempt > 0:
                    if started is not None:
                        started[index] = None
                    self.metrics.task_retried()
                    if isinstance(last_error, (WorkerCrashError, StagingError)):
                        # Re-running after lost work *is* the lineage
                        # recomputation of this simulator.
                        self.metrics.task_recomputed()
                    self.retry.sleep(attempt, key=task_id)
                self.faults.maybe_fail(task_id, attempt)
                if self.faults.crash_requested(task_id, attempt):
                    self._injected_crash(task_id)
                delay = self.faults.delay_requested(task_id, attempt)
                if started is not None:
                    started[index] = time.monotonic()
                if delay > 0.0:
                    time.sleep(delay)
                return self._invoke(task)
            except FaultInjectedError as exc:
                self.metrics.task_failed()
                last_error = exc
                continue
            except WorkerCrashError as exc:
                self.metrics.task_failed()
                last_error = exc
                continue
            except StagingError as exc:
                self.metrics.task_failed()
                if not self._repair_staging(exc):
                    raise LineageError(
                        f"task {task_id} lost staged block {exc.name!r} and no "
                        "driver-side lineage could re-stage it; impure solvers "
                        "cannot recover such data") from exc
                last_error = exc
                continue
        raise SolverError(
            f"task {task_id} failed {attempts} times") from last_error

    def _gather(self, kind: str, tasks: Sequence[Callable[[], object]],
                deadline: float | None) -> list:
        """Run a stage's tasks on the pool, speculate on stragglers, collect.

        The one place that watches a stage: it waits for the first attempt
        to finish, or for the next soft or hard deadline.  An attempt running
        past :meth:`_soft_timeout` (measured from the start ``_run_task``
        stamped) gets one copy on the same pool.  A task is decided by its
        first successful attempt, or by its primary failing (after its own
        retries); a copy's failure decides nothing.  A queued loser is
        cancelled, a running one is discarded when it finishes.  Every task
        is decided before the first failure (in task order) is raised, so
        sibling tasks finish and record their metrics and the pool is free
        for the next stage.  The exception is
        the hard stage deadline: blowing it abandons the stage (queued
        attempts cancelled, the scheduler marked so :meth:`shutdown` will
        not wait on hung threads) and raises a diagnosable
        :class:`TaskTimeoutError`.
        """
        started: list[float | None] = [None] * len(tasks)
        primaries = [self._pool.submit(_Once(self._run_task, task, started, index))
                     for index, task in enumerate(tasks)]
        live = {future: index for index, future in enumerate(primaries)}
        copies: dict[int, tuple[float, Future]] = {}    # index -> (launched, copy)
        outcomes: dict[int, tuple[bool, object]] = {}   # index -> (ok, result/error)
        walls: list[float] = []
        # An explicit timeout holds from the start.  A derived one arms when
        # the first task finishes, and an attempt begun earlier is timed from
        # then: whatever slowed it (a worker starting up) slowed that task too.
        armed = 0.0 if self.config.task_timeout_seconds is not None else None
        while len(outcomes) < len(tasks):
            now = time.monotonic()
            wake = deadline
            soft = self._soft_timeout(walls)
            if soft is not None:
                for index, start in enumerate(started):
                    if index in outcomes or index in copies:
                        continue
                    if start is not None and now - max(start, armed) >= soft:
                        self.metrics.speculation_launched()
                        copy = self._pool.submit(_Once(self._invoke, tasks[index]))
                        copies[index] = (now, copy)
                        live[copy] = index
                        continue
                    # A queued task starts no earlier than now.
                    due = (now if start is None else max(start, armed)) + soft
                    wake = due if wake is None else min(wake, due)
            done, _ = wait(live, return_when=FIRST_COMPLETED,
                           timeout=None if wake is None else max(0.0, wake - now))
            if not done and deadline is not None and time.monotonic() >= deadline:
                for future in live:
                    future.cancel()
                self.metrics.task_timed_out()
                self._abandoned = True
                timeout = self.config.stage_timeout_seconds
                raise TaskTimeoutError(
                    f"stage {kind!r} exceeded its hard timeout of {timeout}s "
                    f"with {len(outcomes)}/{len(tasks)} tasks complete",
                    stage_kind=kind, completed=len(outcomes), total=len(tasks),
                    timeout_seconds=timeout)
            finished = time.monotonic()
            for future in done:
                index = live.pop(future, None)
                if index is None:                   # a loser let go below
                    continue
                launched, copy = copies.get(index, (None, None))
                is_copy = future is copy
                error = future.exception()
                if error is not None and is_copy:
                    continue                        # the primary retries on its own
                if error is not None:
                    outcomes[index] = (False, error)
                else:
                    outcomes[index] = (True, future.result())
                    walls.append(finished - (launched if is_copy else started[index]))
                    armed = finished if armed is None else armed
                    if is_copy:
                        self.metrics.speculation_won()
                loser = primaries[index] if is_copy else copy
                if loser is not None and live.pop(loser, None) is not None:
                    loser.cancel()
        for index in range(len(tasks)):
            ok, value = outcomes[index]
            if not ok:
                raise value
        return [outcomes[index][1] for index in range(len(tasks))]

    def run_stage(self, kind: str, tasks: Sequence[Callable[[], object]]) -> list:
        """Run all ``tasks`` and return their results in order."""
        self._stage_counter += 1
        stage_id = self._stage_counter
        hard = self.config.stage_timeout_seconds
        deadline = (time.monotonic() + hard) if hard is not None else None
        start = time.perf_counter()
        try:
            if self._pool is not None:
                results = self._gather(kind, tasks, deadline)
            else:
                results = []
                for index, task in enumerate(tasks):
                    if deadline is not None and time.monotonic() > deadline:
                        self.metrics.task_timed_out()
                        raise TaskTimeoutError(
                            f"stage {kind!r} exceeded its hard timeout of "
                            f"{hard}s with {index}/{len(tasks)} tasks complete",
                            stage_kind=kind, completed=index, total=len(tasks),
                            timeout_seconds=hard)
                    results.append(self._run_task(task))
        finally:
            # Record the stage even when it fails so metric snapshots taken
            # around a failing solve stay internally consistent.
            duration = time.perf_counter() - start
            self.metrics.stage_finished(stage_id, kind, len(tasks), duration)
        return results

    def shutdown(self) -> None:
        """Stop worker pools and release scheduler resources.

        Always reaps both pools (task threads, worker processes), so it
        waits for a speculated loser still running.  After a hard-timeout
        abandonment the thread pool is shut down without waiting — a
        genuinely hung task must not be able to block ``stop()``; queued work
        is cancelled either way.
        """
        waits = not self._abandoned
        if self._pool is not None:
            self._pool.shutdown(wait=waits, cancel_futures=True)
            self._pool = None
        with self._proc_pool_lock:
            pool, self._proc_pool = self._proc_pool, None
        if pool is not None:
            pool.shutdown(wait=waits, cancel_futures=True)
