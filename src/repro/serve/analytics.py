"""Request-level serving analytics: latency percentiles + per-stage attribution.

Aggregate wall time alone cannot tell you *which* stage of a route query is
the bottleneck — a slow p99 could be cold-row solves or long path walks.
Following the two-level analytics idiom (aggregate stats over the whole
query stream, cost attribution per pipeline stage), :class:`ServeAnalytics`
records both:

* per-query latency, summarized as p50/p95/p99 percentiles over a bounded
  reservoir (a heavy-traffic session must not grow memory with query count);
* per-stage cost — ``row_solve`` (the tight-edge BFS that derives a parent
  row on a cache miss) and ``path_walk`` (the pointer chase answering the
  query) — as both cumulative seconds and invocation counts.

Cache behaviour (hits/misses/evictions) lives with the cache itself;
:meth:`RouteService.stats` merges the two views into one report.
"""

from __future__ import annotations

import random

from repro.spark.metrics import latency_summary

#: The serving pipeline's stages, in execution order.
STAGES = ("row_solve", "path_walk")

#: Default latency-reservoir capacity: enough for exact percentiles on any
#: bench/CI workload, bounded for production-length sessions.
DEFAULT_RESERVOIR = 8192


class ServeAnalytics:
    """Accumulator for one serving session's query stream.

    Latencies are kept in a fixed-size reservoir (uniform sampling once the
    capacity is exceeded, seeded for reproducibility) so percentile quality
    degrades gracefully instead of memory growing with traffic.  Stage
    seconds/counts and the query counters are exact regardless of sampling.
    """

    def __init__(self, reservoir: int = DEFAULT_RESERVOIR) -> None:
        if reservoir < 1:
            raise ValueError("reservoir capacity must be >= 1")
        self._capacity = int(reservoir)
        self._latencies: list[float] = []
        self._rng = random.Random(0)
        self.queries = 0
        self.unreachable = 0
        self.errors = 0
        self.stage_seconds: dict[str, float] = {s: 0.0 for s in STAGES}
        self.stage_counts: dict[str, int] = {s: 0 for s in STAGES}

    # ------------------------------------------------------------------
    def record_query(self, seconds: float, *, stages: dict[str, float] | None = None,
                     unreachable: bool = False, error: bool = False) -> None:
        """Record one answered query: its latency and its per-stage breakdown.

        ``stages`` maps stage name to seconds spent in that stage for *this*
        query; a stage absent from the dict did not run.  Unknown stage
        names raise — a typo would silently vanish from the attribution
        report otherwise.
        """
        self.queries += 1
        if unreachable:
            self.unreachable += 1
        if error:
            self.errors += 1
        if len(self._latencies) < self._capacity:
            self._latencies.append(float(seconds))
        else:
            # Reservoir sampling: keep each of the first `queries` samples
            # with equal probability in a fixed-size buffer.
            slot = self._rng.randrange(self.queries)
            if slot < self._capacity:
                self._latencies[slot] = float(seconds)
        for name, spent in (stages or {}).items():
            if name not in self.stage_seconds:
                raise ValueError(f"unknown serving stage {name!r}; "
                                 f"expected one of {', '.join(STAGES)}")
            self.stage_seconds[name] += float(spent)
            self.stage_counts[name] += 1

    # ------------------------------------------------------------------
    def latency(self) -> dict:
        """Latency summary (count/mean/max/p50/p95/p99) over the reservoir."""
        return latency_summary(self._latencies)

    def as_dict(self) -> dict:
        """Full analytics snapshot: counters, percentiles, stage attribution.

        ``stage_seconds``/``stage_counts`` always carry every stage (zeros
        for stages that never ran) so reports and tests can rely on the
        shape; ``latency_sampled`` flags when the reservoir overflowed and
        percentiles became estimates.
        """
        latency = self.latency()
        return {
            "queries": self.queries,
            "unreachable": self.unreachable,
            "errors": self.errors,
            "latency_mean_s": latency["mean_s"],
            "latency_max_s": latency["max_s"],
            "latency_p50_s": latency["p50_s"],
            "latency_p95_s": latency["p95_s"],
            "latency_p99_s": latency["p99_s"],
            "latency_sampled": self.queries > self._capacity,
            "stage_seconds": dict(self.stage_seconds),
            "stage_counts": dict(self.stage_counts),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ServeAnalytics(queries={self.queries}, "
                f"unreachable={self.unreachable}, errors={self.errors})")
