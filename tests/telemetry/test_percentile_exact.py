"""The incremental percentile must be bit-identical to numpy's linear one.

MetricSeries.percentile() is on the straggler watchdog's hot path and was
rewritten around an incrementally maintained sorted list; any deviation
from ``np.percentile(..., method="linear")`` would silently shift p90
thresholds and with them every mitigation decision downstream.
"""

import numpy as np
import pytest

from repro.telemetry import MetricSeries

pytestmark = pytest.mark.quick

QUANTILES = (0, 1, 5, 25, 50, 75, 90, 95, 99, 99.9, 100)


def _assert_bit_identical(values):
    series = MetricSeries("exactness")
    for value in values:
        series.add(value)
    data = np.asarray(values, dtype=float)
    for q in QUANTILES:
        assert series.percentile(q) == float(np.percentile(data, q)), \
            f"q={q} diverges on {len(values)} samples"


def test_small_series():
    _assert_bit_identical([3.0])
    _assert_bit_identical([2.0, 1.0])
    _assert_bit_identical([5.5, -1.25, 3.0])


def test_random_series_across_sizes():
    rng = np.random.default_rng(7)
    for size in (4, 17, 64, 257, 1000):
        _assert_bit_identical(list(rng.lognormal(0.0, 1.5, size)))


def test_incremental_queries_interleaved_with_adds():
    # The watchdog pattern: query after every add. The insort path and
    # the bulk re-sort path must agree with numpy at every prefix.
    rng = np.random.default_rng(11)
    samples = list(rng.normal(10.0, 3.0, 300))
    series = MetricSeries("interleaved")
    for index, value in enumerate(samples):
        series.add(value)
        if index % 7 == 0:
            prefix = np.asarray(samples[:index + 1])
            assert series.percentile(90) == float(np.percentile(prefix, 90))


def test_bursts_merge_into_the_sorted_cache():
    # Bursts longer than the insort path takes (16) are merged into the
    # cached sorted list instead of re-sorting the whole history; every
    # prefix must still match numpy, through add and extend alike, with
    # repeated values so equal samples straddle the cache and the tail.
    rng = np.random.default_rng(19)
    series = MetricSeries("bursts")
    samples = []
    for burst in range(40):
        size = int(rng.integers(1, 60))
        values = list(np.round(rng.lognormal(0.0, 1.0, size), 1))
        if burst % 3:
            for value in values:
                series.add(value)
        else:
            series.extend(values)
        samples.extend(values)
        data = np.asarray(samples)
        for q in (0, 50, 90, 99, 100):
            assert series.percentile(q) == float(np.percentile(data, q)), \
                f"q={q} diverges after burst {burst} of {size}"


def test_duplicates_and_constant_series():
    _assert_bit_identical([2.0] * 50)
    _assert_bit_identical([1.0, 1.0, 2.0, 2.0, 2.0, 3.0])


def test_empty_and_out_of_range():
    series = MetricSeries("empty")
    with pytest.raises(ValueError):
        series.percentile(50)
    series.add(1.0)
    with pytest.raises(ValueError):
        series.percentile(101)
    with pytest.raises(ValueError):
        series.percentile(-1)
