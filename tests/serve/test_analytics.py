"""Tests for the serving analytics stream: percentiles, stages, reservoir."""

import pytest

from repro.serve import STAGES, ServeAnalytics


class TestRecordQuery:
    def test_counters(self):
        analytics = ServeAnalytics()
        analytics.record_query(0.1)
        analytics.record_query(0.2, unreachable=True)
        analytics.record_query(0.3, error=True)
        snap = analytics.as_dict()
        assert snap["queries"] == 3
        assert snap["unreachable"] == 1
        assert snap["errors"] == 1

    def test_latency_percentiles_exact_below_capacity(self):
        analytics = ServeAnalytics()
        for ms in range(1, 101):                    # 1ms .. 100ms
            analytics.record_query(ms / 1000)
        snap = analytics.as_dict()
        assert snap["latency_mean_s"] == pytest.approx(0.0505)
        assert snap["latency_max_s"] == pytest.approx(0.1)
        assert snap["latency_p50_s"] == pytest.approx(0.0505)
        assert snap["latency_p95_s"] == pytest.approx(0.09505, rel=1e-3)
        assert snap["latency_sampled"] is False

    def test_stage_attribution_sums_seconds_and_counts(self):
        analytics = ServeAnalytics()
        analytics.record_query(0.5, stages={"row_solve": 0.4, "path_walk": 0.1})
        analytics.record_query(0.2, stages={"path_walk": 0.2})
        snap = analytics.as_dict()
        assert snap["stage_seconds"]["row_solve"] == pytest.approx(0.4)
        assert snap["stage_seconds"]["path_walk"] == pytest.approx(0.3)
        assert snap["stage_counts"] == {"row_solve": 1, "path_walk": 2}

    def test_stage_shape_is_complete_even_when_idle(self):
        snap = ServeAnalytics().as_dict()
        assert tuple(snap["stage_seconds"]) == STAGES
        assert tuple(snap["stage_counts"]) == STAGES
        assert all(v == 0.0 for v in snap["stage_seconds"].values())

    def test_unknown_stage_rejected(self):
        with pytest.raises(ValueError, match="unknown serving stage"):
            ServeAnalytics().record_query(0.1, stages={"warp_drive": 1.0})


class TestReservoir:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            ServeAnalytics(reservoir=0)

    def test_overflow_flags_sampling_and_bounds_memory(self):
        analytics = ServeAnalytics(reservoir=8)
        for _ in range(100):
            analytics.record_query(0.001)
        snap = analytics.as_dict()
        assert snap["queries"] == 100               # exact despite sampling
        assert snap["latency_sampled"] is True
        assert len(analytics._latencies) == 8
        assert snap["latency_p99_s"] == pytest.approx(0.001)

    def test_sampling_is_seeded_and_reproducible(self):
        def run():
            analytics = ServeAnalytics(reservoir=4)
            for i in range(50):
                analytics.record_query(i / 1000)
            return analytics.as_dict()["latency_p50_s"]
        assert run() == run()
