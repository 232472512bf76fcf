"""Broadcast variables.

The 2D Floyd-Warshall solver (Algorithm 2) broadcasts the pivot column to all
executors each iteration through Spark's ``broadcast``; the blocked solvers
avoid ``broadcast`` in favour of the shared file system because pySpark tasks
each hold their own deserialized copy of broadcast variables (Section 4.5).
Our in-process engine shares one object, but it still *accounts* the traffic a
real cluster would incur: ``num_executors * size`` bytes per broadcast.
"""

from __future__ import annotations

from repro.spark.util import estimate_size


class Broadcast:
    """A read-only value shared with all tasks."""

    _next_id = 0

    def __init__(self, value, metrics=None, num_executors: int = 1) -> None:
        self.value = value
        self.nbytes = estimate_size(value)
        self.id = Broadcast._next_id
        Broadcast._next_id += 1
        if metrics is not None:
            metrics.broadcast_performed(self.nbytes * max(1, num_executors))

    def __repr__(self) -> str:
        return f"Broadcast(id={self.id}, {self.nbytes} bytes)"
