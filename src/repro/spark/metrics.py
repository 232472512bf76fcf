"""Engine metrics: the observable quantities the paper's analysis hinges on.

The qualitative claims of Sections 4 and 5 — Repeated Squaring's all-to-all
product shuffle, the Blocked In-Memory solver's shuffle spills exceeding
local SSD capacity, the Collect/Broadcast solver trading shuffles for driver
collects and shared-filesystem traffic — are all statements about measurable
data movement.  :class:`EngineMetrics` records those quantities per run so
tests can assert them and the cost model can consume them.
"""

from __future__ import annotations

import threading
from collections import defaultdict, deque
from dataclasses import dataclass

#: How many of the most recent :class:`StageRecord` entries a context keeps.
#: ``num_stages`` counts every stage; the records are a window, so a
#: long-lived context's stage history stays bounded.
STAGE_RECORDS_KEPT = 256


@dataclass
class StageRecord:
    """One executed stage: its kind, task count, and wall-clock duration."""

    stage_id: int
    kind: str
    num_tasks: int
    duration: float


class EngineMetrics:
    """Thread-safe accumulator of engine counters.

    Attributes are grouped by subsystem:

    * tasks/stages — ``tasks_launched``, ``tasks_failed``, ``tasks_retried``,
      ``num_stages``, and ``stages``: the last :data:`STAGE_RECORDS_KEPT`
      stage records
    * fault tolerance — ``tasks_recomputed``, ``worker_restarts``,
      ``speculative_launched``/``speculative_wins``, ``task_timeouts``,
      ``sharedfs_restages``/``sharedfs_integrity_failures``
    * shuffle — ``shuffle_count``, ``shuffle_records``, ``shuffle_bytes``,
      ``spilled_bytes_per_executor`` (cumulative local-storage usage per node)
    * live state — ``live_shuffles``, ``live_shuffle_bytes``: gauges of the
      shuffles the :class:`~repro.spark.shuffle.ShuffleManager` still holds
      (written and not yet released); unlike the counters above they go
      down, and :meth:`reset` leaves them alone
    * driver traffic — ``collect_count``, ``collect_bytes``, ``broadcast_count``,
      ``broadcast_bytes``
    * shared filesystem — ``sharedfs_files_written``, ``sharedfs_bytes_written``,
      ``sharedfs_bytes_read``
    """

    def __init__(self) -> None:
        # Re-entrant: a shuffle's release runs as a finalizer, which the
        # cyclic collector may fire inside one of these critical sections.
        self._lock = threading.RLock()
        self.live_shuffles = 0
        self.live_shuffle_bytes = 0
        self.reset()

    def reset(self) -> None:
        """Zero all counters (the live-state gauges describe held data and stay)."""
        with getattr(self, "_lock", threading.Lock()):
            self.tasks_launched = 0
            self.tasks_failed = 0
            self.tasks_retried = 0
            self.tasks_recomputed = 0
            self.worker_restarts = 0
            self.speculative_launched = 0
            self.speculative_wins = 0
            self.task_timeouts = 0
            self.num_stages = 0
            self.stages: deque[StageRecord] = deque(maxlen=STAGE_RECORDS_KEPT)
            self.shuffle_count = 0
            self.shuffle_records = 0
            self.shuffle_bytes = 0
            self.spilled_bytes_per_executor: dict[int, int] = defaultdict(int)
            self.collect_count = 0
            self.collect_bytes = 0
            self.broadcast_count = 0
            self.broadcast_bytes = 0
            self.sharedfs_files_written = 0
            self.sharedfs_bytes_written = 0
            self.sharedfs_bytes_read = 0
            self.sharedfs_restages = 0
            self.sharedfs_integrity_failures = 0
            self.cached_partitions = 0
            self.cached_bytes = 0

    # -- task / stage accounting -------------------------------------------------
    def task_launched(self, count: int = 1) -> None:
        """Count one launched task."""
        with self._lock:
            self.tasks_launched += count

    def task_failed(self) -> None:
        """Count one failed task."""
        with self._lock:
            self.tasks_failed += 1

    def task_retried(self) -> None:
        """Count one task retry."""
        with self._lock:
            self.tasks_retried += 1

    def task_recomputed(self) -> None:
        """Count one lineage recomputation (retry caused by lost work, not an injected fault)."""
        with self._lock:
            self.tasks_recomputed += 1

    def worker_restarted(self) -> None:
        """Count one worker-pool rebuild after a worker-process death."""
        with self._lock:
            self.worker_restarts += 1

    def speculation_launched(self) -> None:
        """Count one speculative task copy launched after a soft timeout."""
        with self._lock:
            self.speculative_launched += 1

    def speculation_won(self) -> None:
        """Count one speculative copy finishing before its straggling original."""
        with self._lock:
            self.speculative_wins += 1

    def task_timed_out(self) -> None:
        """Count one hard-deadline expiry (stage failed fast)."""
        with self._lock:
            self.task_timeouts += 1

    def stage_finished(self, stage_id: int, kind: str, num_tasks: int, duration: float) -> None:
        """Count one finished stage and keep its record (and wall time)."""
        with self._lock:
            self.num_stages += 1
            self.stages.append(StageRecord(stage_id, kind, num_tasks, duration))

    # -- shuffle accounting --------------------------------------------------------
    def shuffle_started(self) -> None:
        """Count the start of one shuffle (and hold it live until released)."""
        with self._lock:
            self.shuffle_count += 1
            self.live_shuffles += 1

    def shuffle_retained(self, nbytes: int) -> None:
        """Count one map output's bytes as held by a live shuffle."""
        with self._lock:
            self.live_shuffle_bytes += nbytes

    def shuffle_released(self, nbytes: int) -> None:
        """Drop one released shuffle (holding ``nbytes``) from the live gauges."""
        with self._lock:
            self.live_shuffles -= 1
            self.live_shuffle_bytes -= nbytes

    def shuffle_write(self, executor: int, records: int, nbytes: int) -> None:
        """Record shuffle records/bytes written by an executor."""
        with self._lock:
            self.shuffle_records += records
            self.shuffle_bytes += nbytes
            self.spilled_bytes_per_executor[executor] += nbytes

    @property
    def total_spilled_bytes(self) -> int:
        """Shuffle bytes spilled, summed over executors."""
        with self._lock:
            return sum(self.spilled_bytes_per_executor.values())

    def max_spilled_bytes(self) -> int:
        """Largest cumulative spill on any single executor (the capacity that matters)."""
        with self._lock:
            return max(self.spilled_bytes_per_executor.values(), default=0)

    # -- driver traffic ------------------------------------------------------------
    def collect_performed(self, nbytes: int) -> None:
        """Record one driver collect of the given size."""
        with self._lock:
            self.collect_count += 1
            self.collect_bytes += nbytes

    def broadcast_performed(self, nbytes: int) -> None:
        """Record one broadcast of the given size."""
        with self._lock:
            self.broadcast_count += 1
            self.broadcast_bytes += nbytes

    # -- shared filesystem ---------------------------------------------------------
    def sharedfs_written(self, nbytes: int) -> None:
        """Record bytes written to the shared file system."""
        with self._lock:
            self.sharedfs_files_written += 1
            self.sharedfs_bytes_written += nbytes

    def sharedfs_read(self, nbytes: int) -> None:
        """Record bytes read from the shared file system."""
        with self._lock:
            self.sharedfs_bytes_read += nbytes

    def sharedfs_restaged(self) -> None:
        """Count one staged block rewritten from the driver's lineage registry."""
        with self._lock:
            self.sharedfs_restages += 1

    def sharedfs_integrity_failure(self) -> None:
        """Count one staged block found missing or corrupt by a reader."""
        with self._lock:
            self.sharedfs_integrity_failures += 1

    # -- caching ---------------------------------------------------------------------
    def partition_cached(self, nbytes: int) -> None:
        """Record one cached partition of the given size."""
        with self._lock:
            self.cached_partitions += 1
            self.cached_bytes += nbytes

    def merge_delta(self, delta: dict) -> None:
        """Fold a counter delta (from :func:`metrics_delta`) into this accumulator.

        Used by the ``processes`` backend: a worker process accumulates
        counters (e.g. shared-filesystem reads) against its own collector and
        ships the delta back with the task result; the driver merges it here
        so per-solve metric deltas stay accurate across process boundaries.
        Only counters this object already knows are merged.  A worker runs
        no stage and holds no shuffle, so its ``num_stages`` and live-state
        deltas are 0.
        """
        with self._lock:
            for key, value in delta.items():
                if key == "spilled_bytes_per_executor" and isinstance(value, dict):
                    for executor, nbytes in value.items():
                        self.spilled_bytes_per_executor[int(executor)] += nbytes
                elif (isinstance(value, (int, float)) and not isinstance(value, bool)
                        and isinstance(getattr(self, key, None), (int, float))):
                    setattr(self, key, getattr(self, key) + value)

    def as_dict(self) -> dict:
        """Snapshot of all counters and gauges as a plain dictionary (for reports and tests).

        Through :func:`metrics_delta`, a gauge's delta is the net change over
        the window (e.g. the shuffles a solve left held).
        """
        with self._lock:
            return {
                "tasks_launched": self.tasks_launched,
                "tasks_failed": self.tasks_failed,
                "tasks_retried": self.tasks_retried,
                "tasks_recomputed": self.tasks_recomputed,
                "worker_restarts": self.worker_restarts,
                "speculative_launched": self.speculative_launched,
                "speculative_wins": self.speculative_wins,
                "task_timeouts": self.task_timeouts,
                "num_stages": self.num_stages,
                "shuffle_count": self.shuffle_count,
                "shuffle_records": self.shuffle_records,
                "shuffle_bytes": self.shuffle_bytes,
                "spilled_bytes_per_executor": dict(self.spilled_bytes_per_executor),
                "collect_count": self.collect_count,
                "collect_bytes": self.collect_bytes,
                "broadcast_count": self.broadcast_count,
                "broadcast_bytes": self.broadcast_bytes,
                "sharedfs_files_written": self.sharedfs_files_written,
                "sharedfs_bytes_written": self.sharedfs_bytes_written,
                "sharedfs_bytes_read": self.sharedfs_bytes_read,
                "sharedfs_restages": self.sharedfs_restages,
                "sharedfs_integrity_failures": self.sharedfs_integrity_failures,
                "cached_partitions": self.cached_partitions,
                "cached_bytes": self.cached_bytes,
                "live_shuffles": self.live_shuffles,
                "live_shuffle_bytes": self.live_shuffle_bytes,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        d = self.as_dict()
        body = ", ".join(f"{k}={v}" for k, v in d.items() if not isinstance(v, dict))
        return f"EngineMetrics({body})"


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of a sequence (``q`` in ``[0, 1]``).

    The serving analytics' latency percentiles (p50/p95/p99) come through
    here; pure-Python on purpose so the metrics layer stays dependency-free
    and the result is exact for the small/medium sample counts a serving
    session accumulates.  Raises ``ValueError`` on an empty sequence or an
    out-of-range ``q``.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile q must be in [0, 1], got {q}")
    ordered = sorted(float(v) for v in values)
    if not ordered:
        raise ValueError("quantile of an empty sequence")
    pos = (len(ordered) - 1) * q
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def latency_summary(values, percentiles: tuple[float, ...] = (0.5, 0.95, 0.99)) -> dict:
    """Count/mean/max plus the requested percentiles of a latency sample.

    Returns ``{"count", "mean_s", "max_s", "p50_s", "p95_s", "p99_s"}``
    (percentile keys follow ``p<percent>_s``); all timing values are 0.0
    for an empty sample so reports can render before the first query lands.
    """
    ordered = sorted(float(v) for v in values)
    summary: dict = {"count": len(ordered)}
    if not ordered:
        summary["mean_s"] = summary["max_s"] = 0.0
        for p in percentiles:
            summary[f"p{int(round(p * 100))}_s"] = 0.0
        return summary
    summary["mean_s"] = sum(ordered) / len(ordered)
    summary["max_s"] = ordered[-1]
    for p in percentiles:
        summary[f"p{int(round(p * 100))}_s"] = quantile(ordered, p)
    return summary


def metrics_delta(before: dict, after: dict) -> dict:
    """Counter-wise difference of two :meth:`EngineMetrics.as_dict` snapshots.

    A long-lived context (one :class:`~repro.core.engine.APSPEngine` session)
    accumulates counters across many solves; subtracting the snapshot taken
    when a solve started attributes data movement to that solve alone.
    Numeric counters subtract; nested dicts (per-executor spills) subtract
    key-wise; anything else is taken from ``after`` verbatim.
    """
    delta: dict = {}
    for key, after_value in after.items():
        before_value = before.get(key)
        if isinstance(after_value, (int, float)) and isinstance(before_value, (int, float)):
            delta[key] = after_value - before_value
        elif isinstance(after_value, dict):
            prior = before_value if isinstance(before_value, dict) else {}
            delta[key] = {k: v - prior.get(k, 0) for k, v in after_value.items()
                          if v - prior.get(k, 0)}
        else:
            delta[key] = after_value
    return delta
