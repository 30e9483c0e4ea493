"""The metrics registry: fixed-bucket histograms."""

import pytest

from repro.errors import ReproError
from repro.obs import (
    BYTES_BUCKETS,
    Histogram,
    MetricsRegistry,
    ROWS_BUCKETS,
)


class TestHistogram:
    def test_bucketing_is_inclusive_upper_bound(self):
        histogram = Histogram("h", (1.0, 10.0))
        for value in (0.5, 1.0, 5.0, 10.0, 11.0):
            histogram.observe(value)
        assert histogram.counts == [2, 2, 1]  # le_1, le_10, overflow
        assert histogram.count == 5
        assert histogram.min == 0.5
        assert histogram.max == 11.0
        assert histogram.mean == pytest.approx(27.5 / 5)

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(ReproError):
            Histogram("h", (10.0, 1.0))
        with pytest.raises(ReproError):
            Histogram("h", ())

    def test_to_dict_shape(self):
        histogram = Histogram("h", (1.0,))
        histogram.observe(0.5)
        data = histogram.to_dict()
        assert data["count"] == 1
        assert data["buckets"] == {"le_1": 1, "overflow": 0}

    def test_empty_histogram_mean_is_zero(self):
        assert Histogram("h", (1.0,)).mean == 0.0


class TestHistogramQuantiles:
    def test_empty_histogram_quantile_is_none(self):
        assert Histogram("h", (1.0,)).quantile(0.5) is None

    def test_out_of_range_q_rejected(self):
        histogram = Histogram("h", (1.0,))
        histogram.observe(0.5)
        with pytest.raises(ReproError):
            histogram.quantile(-0.1)
        with pytest.raises(ReproError):
            histogram.quantile(1.1)

    def test_single_observation_every_quantile(self):
        histogram = Histogram("h", (1.0, 10.0))
        histogram.observe(3.0)
        for q in (0.0, 0.5, 0.95, 1.0):
            assert histogram.quantile(q) == 3.0

    def test_q_zero_is_observed_min_q_one_is_observed_max(self):
        histogram = Histogram("h", (1.0, 10.0, 100.0))
        for value in (2.0, 7.0, 40.0):
            histogram.observe(value)
        assert histogram.quantile(0.0) == 2.0
        assert histogram.quantile(1.0) == 40.0

    def test_all_observations_in_one_bucket_stay_clamped(self):
        # A wide bucket (10, 100] must not interpolate outside the data.
        histogram = Histogram("h", (10.0, 100.0))
        for value in (50.0, 51.0, 52.0):
            histogram.observe(value)
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert 50.0 <= histogram.quantile(q) <= 52.0

    def test_observed_min_of_zero_beats_bucket_edge_fallback(self):
        # Regression: "self.min or 0.0" treated an observed 0.0 minimum
        # as missing; the contract is q=0 -> observed min, always.
        histogram = Histogram("h", (1.0, 10.0))
        histogram.observe(0.0)
        histogram.observe(0.5)
        assert histogram.quantile(0.0) == 0.0
        assert histogram.quantile(1.0) == 0.5
        assert 0.0 <= histogram.quantile(0.5) <= 0.5

    def test_interpolates_inside_a_bucket(self):
        histogram = Histogram("h", (0.0, 100.0))
        for value in (10.0, 20.0, 30.0, 90.0):
            histogram.observe(value)
        # All four fall in (0, 100]; the estimate interpolates linearly
        # across that bucket and stays inside the observed range.
        p50 = histogram.quantile(0.5)
        assert 10.0 <= p50 <= 90.0

    def test_quantiles_clamped_to_observed_extremes(self):
        histogram = Histogram("h", (0.0, 1000.0))
        histogram.observe(5.0)
        histogram.observe(7.0)
        assert histogram.quantile(0.99) <= 7.0
        assert histogram.quantile(0.01) >= 5.0

    def test_quantiles_are_monotonic(self):
        histogram = Histogram("h", (1.0, 10.0, 100.0))
        for value in (0.5, 2.0, 3.0, 40.0, 90.0, 400.0):
            histogram.observe(value)
        p50 = histogram.quantile(0.5)
        p95 = histogram.quantile(0.95)
        p99 = histogram.quantile(0.99)
        assert p50 <= p95 <= p99 <= histogram.max

    def test_to_dict_includes_percentiles(self):
        histogram = Histogram("h", (1.0, 10.0))
        data = histogram.to_dict()
        assert data["p50"] is None  # empty
        histogram.observe(2.0)
        data = histogram.to_dict()
        assert set(("p50", "p95", "p99")) <= set(data)
        assert data["p50"] == 2.0


class TestRegistry:
    def test_histogram_existing_bounds_win(self):
        registry = MetricsRegistry()
        first = registry.histogram("h", BYTES_BUCKETS)
        again = registry.histogram("h", ROWS_BUCKETS)
        assert again is first
        assert again.bounds == tuple(float(b) for b in BYTES_BUCKETS)

    def test_to_dict_sorted_and_json_friendly(self):
        import json

        registry = MetricsRegistry()
        registry.histogram("b", (1.0,)).observe(0.5)
        registry.histogram("a", (1.0,)).observe(2.0)
        data = registry.to_dict()
        assert list(data) == ["histograms"]
        assert list(data["histograms"]) == ["a", "b"]
        assert data["histograms"]["a"]["buckets"] == {"le_1": 0, "overflow": 1}
        json.dumps(data)  # must be serialisable as exported
