"""Latency/scalar metric collection.

:class:`MetricSeries` accumulates scalar samples and answers the statistics
the paper's figures report: median, p99, mean, percentile bands for box and
violin plots. Percentiles use linear interpolation (numpy's default), and an
empty series raises rather than returning NaN so bugs surface early.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, List, Optional

import numpy as np

__all__ = ["MetricSeries", "DistributionSummary"]


@dataclass(frozen=True)
class DistributionSummary:
    """The summary statistics the paper's plots are built from."""

    mean: float
    std: float
    p5: float
    p25: float
    median: float
    p75: float
    p95: float
    p99: float


class MetricSeries:
    """A named series of scalar samples with optional timestamps.

    Samples live in an amortized-growth numpy buffer so the statistics
    below (recomputed per invocation by e.g. the straggler watchdog) never
    pay a list-to-array conversion on the hot path.
    """

    def __init__(self, name: str = ""):
        self.name = name
        self._buffer = np.empty(64, dtype=float)
        self._time_buffer = np.empty(64, dtype=float)
        self._count = 0
        #: Sorted copy of the samples, maintained lazily for percentiles.
        self._sorted: List[float] = []

    def add(self, value: float, time: float = math.nan) -> None:
        count = self._count
        buffer = self._buffer
        if count == buffer.shape[0]:
            self._buffer = buffer = np.concatenate(
                [buffer, np.empty(buffer.shape[0], dtype=float)])
            self._time_buffer = np.concatenate(
                [self._time_buffer,
                 np.empty(self._time_buffer.shape[0], dtype=float)])
        buffer[count] = value
        self._time_buffer[count] = time
        self._count = count + 1

    def extend(self, values: Iterable[float],
               times: Optional[Iterable[float]] = None) -> None:
        """Append samples in bulk, with their ``times`` (same length;
        NaN when omitted, as for :meth:`add`)."""
        values = _column(values)
        count = self._count
        end = count + values.shape[0]
        if times is not None:
            times = _column(times)
            if times.shape != values.shape:
                raise ValueError(f"{times.shape[0]} times for "
                                 f"{values.shape[0]} values")
        capacity = self._buffer.shape[0]
        if end > capacity:
            capacity = max(end, 2 * capacity)
            buffer = np.empty(capacity, dtype=float)
            buffer[:count] = self._buffer[:count]
            time_buffer = np.empty(capacity, dtype=float)
            time_buffer[:count] = self._time_buffer[:count]
            self._buffer, self._time_buffer = buffer, time_buffer
        self._buffer[count:end] = values
        self._time_buffer[count:end] = math.nan if times is None else times
        self._count = end

    def __getstate__(self):
        # The live samples only: neither the spare capacity (uninitialised
        # memory) nor the sorted cache crosses a pipe, so equal series
        # pickle to equal bytes.
        return self.name, self.values, self.times

    def __setstate__(self, state) -> None:
        name, values, times = state
        self.__init__(name)
        self.extend(values, times)

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0

    @property
    def values(self) -> np.ndarray:
        return self._buffer[:self._count]

    @property
    def times(self) -> np.ndarray:
        return self._time_buffer[:self._count]

    def _require_samples(self) -> np.ndarray:
        if not self._count:
            raise ValueError(f"metric series {self.name!r} has no samples")
        return self._buffer[:self._count]

    def percentile(self, q: float) -> float:
        """Linear-interpolation percentile, bit-identical to
        ``np.percentile(..., method="linear")``.

        Hot-path friendly: the sorted view is maintained incrementally
        (``bisect.insort`` per new sample when queried after every add, as
        the straggler watchdog does; after bulk appends the sorted tail
        is merged into it, never the whole history re-sorted), so each
        query is O(1) instead of an O(n) selection over a fresh array.
        """
        count = self._count
        if not count:
            raise ValueError(f"metric series {self.name!r} has no samples")
        sorted_values = self._sorted
        stale = count - len(sorted_values)
        if stale:
            if stale <= 16:
                buffer = self._buffer
                for index in range(count - stale, count):
                    bisect.insort(sorted_values, float(buffer[index]))
            else:
                # Timsort takes the cached list as one run, sorts the tail
                # and merges it in one pass; being stable, it keeps equal
                # samples in arrival order, as a full re-sort would.
                sorted_values.extend(
                    self._buffer[count - stale:count].tolist())
                sorted_values.sort()
        if not 0 <= q <= 100:
            raise ValueError(f"percentile {q} outside [0, 100]")
        # numpy's "linear" method: virtual index q/100*(n-1), then
        # lerp(a, b, t) computed from b's side once t >= 0.5.
        virtual = (q / 100.0) * (count - 1)
        previous = math.floor(virtual)
        t = virtual - previous
        a = sorted_values[previous]
        b = sorted_values[math.ceil(virtual)]
        if t < 0.5:
            return a + (b - a) * t
        return b - (b - a) * (1 - t)

    @property
    def mean(self) -> float:
        return float(self._require_samples().mean())

    @property
    def median(self) -> float:
        return self.percentile(50)

    @property
    def p99(self) -> float:
        return self.percentile(99)

    @property
    def std(self) -> float:
        return float(self._require_samples().std())

    @property
    def cv(self) -> float:
        """Coefficient of variation — the variability measure for Fig 6a."""
        mean = self.mean
        if mean == 0:
            return 0.0
        return self.std / mean

    def summary(self) -> DistributionSummary:
        # Percentile convention, pinned repo-wide: numpy's "linear"
        # interpolation (the pre-numpy-1.22 default), matching
        # MetricSeries.percentile() bit for bit.
        data = self._require_samples()
        return DistributionSummary(
            mean=float(data.mean()),
            std=float(data.std()),
            p5=float(np.percentile(data, 5, method="linear")),
            p25=float(np.percentile(data, 25, method="linear")),
            median=float(np.percentile(data, 50, method="linear")),
            p75=float(np.percentile(data, 75, method="linear")),
            p95=float(np.percentile(data, 95, method="linear")),
            p99=float(np.percentile(data, 99, method="linear")),
        )


def _column(samples: Iterable[float]) -> np.ndarray:
    if isinstance(samples, np.ndarray):
        column = samples.astype(float, copy=False)
    else:
        column = np.fromiter(samples, dtype=float)
    if column.ndim != 1:
        raise ValueError(f"expected a flat sequence of samples, got shape "
                         f"{column.shape}")
    return column
