"""Tests for MetricSeries."""

import pickle

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.telemetry import MetricSeries


class TestMetricSeries:
    def test_empty_series_raises(self):
        series = MetricSeries("empty")
        with pytest.raises(ValueError):
            _ = series.median

    def test_len_and_bool(self):
        series = MetricSeries()
        assert not series
        series.add(1.0)
        assert series and len(series) == 1

    def test_median_of_known_values(self):
        series = MetricSeries()
        series.extend([1, 2, 3, 4, 5])
        assert series.median == 3

    def test_percentiles_monotone(self):
        series = MetricSeries()
        series.extend(range(100))
        assert series.percentile(5) <= series.median <= series.p99

    def test_mean_std(self):
        series = MetricSeries()
        series.extend([2, 4, 6, 8])
        assert series.mean == 5
        assert series.std == pytest.approx(np.std([2, 4, 6, 8]))

    def test_cv_zero_mean(self):
        series = MetricSeries()
        series.extend([0, 0])
        assert series.cv == 0.0

    def test_cv_positive(self):
        series = MetricSeries()
        series.extend([1, 3])
        assert series.cv == pytest.approx(1.0 / 2.0)

    def test_summary_fields_consistent(self):
        series = MetricSeries()
        series.extend(np.linspace(0, 10, 101))
        summary = series.summary()
        assert summary.p25 <= summary.median <= summary.p75

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=200))
    def test_percentile_bounds_property(self, values):
        series = MetricSeries()
        series.extend(values)
        low, high = min(values), max(values)
        assert low <= series.median <= high
        assert low <= series.p99 <= high

    @given(st.lists(st.floats(min_value=0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=200))
    def test_mean_within_bounds_property(self, values):
        series = MetricSeries()
        series.extend(values)
        assert min(values) - 1e-9 <= series.mean <= max(values) + 1e-9


class TestBulkAndPickle:
    def test_extend_with_times_matches_add(self):
        one, bulk = MetricSeries("s"), MetricSeries("s")
        values, times = [3.0, 1.0, 2.0] * 40, [0.5, 1.5, 2.5] * 40
        for value, time in zip(values, times):
            one.add(value, time=time)
        bulk.extend(values, times)
        assert bulk.values.tobytes() == one.values.tobytes()
        assert bulk.times.tobytes() == one.times.tobytes()

    def test_extend_without_times_leaves_them_nan(self):
        series = MetricSeries()
        series.extend([1.0, 2.0])
        assert np.isnan(series.times).all()

    def test_extend_needs_one_time_per_value(self):
        with pytest.raises(ValueError):
            MetricSeries().extend([1.0, 2.0], [0.5])

    def test_equal_series_pickle_to_identical_bytes(self):
        grown = MetricSeries("lat")
        for index in range(70):  # past the first buffer: spare capacity
            grown.add(float(index % 7), time=float(index))
        assert grown.median == 3.0  # fills the sorted cache
        bulk = MetricSeries("lat")
        bulk.extend([float(index % 7) for index in range(70)],
                    [float(index) for index in range(70)])
        assert pickle.dumps(grown) == pickle.dumps(bulk)

    def test_round_trip_keeps_values_times_and_percentiles(self):
        series = MetricSeries("lat")
        for index in range(100):
            series.add(index * 0.5, time=index * 2.0)
        before = (series.values.tobytes(), series.times.tobytes(),
                  series.percentile(37.5), series.p99)
        copy = pickle.loads(pickle.dumps(series))
        assert copy.name == "lat"
        assert (copy.values.tobytes(), copy.times.tobytes(),
                copy.percentile(37.5), copy.p99) == before
        copy.add(1.0, time=1.0)  # the restored buffer still grows
        assert len(copy) == 101

    def test_empty_round_trip_can_grow(self):
        copy = pickle.loads(pickle.dumps(MetricSeries("none")))
        assert len(copy) == 0
        copy.add(2.0)
        assert copy.median == 2.0
