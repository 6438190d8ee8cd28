"""Network bandwidth accounting (Figs 3b, 14b, 17).

A :class:`BandwidthMeter` records byte transfers with timestamps and reduces
them to the windowed MB/s series the paper plots: average utilization (bars)
and 99th-percentile window (markers).
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

__all__ = ["BandwidthMeter"]


class BandwidthMeter:
    """Records (time, megabytes) transfer events on one medium.

    Times and sizes must be finite and non-negative: a NaN, infinite or
    negative one would land in no window, or in the wrong one.
    """

    #: Width of the utilization windows the MB/s series is reduced to.
    WINDOW_S = 1.0

    def __init__(self, name: str = ""):
        self.name = name
        self._times: List[float] = []
        self._megabytes: List[float] = []

    def record(self, time: float, megabytes: float) -> None:
        time = float(time)
        megabytes = float(megabytes)
        if not (time >= 0 and math.isfinite(time)):
            raise ValueError(
                f"time must be finite and non-negative, got {time!r}")
        if not (megabytes >= 0 and math.isfinite(megabytes)):
            raise ValueError(f"megabytes must be finite and non-negative, "
                             f"got {megabytes!r}")
        self._times.append(time)
        self._megabytes.append(megabytes)

    def extend(self, times: Sequence[float],
               megabytes: Sequence[float]) -> None:
        """Record many events at once, with :meth:`record`'s checks."""
        times = np.asarray(times, dtype=float)
        megabytes = np.asarray(megabytes, dtype=float)
        if times.ndim != 1 or times.shape != megabytes.shape:
            raise ValueError(f"times {times.shape} and megabytes "
                             f"{megabytes.shape} must be equal-length "
                             "flat sequences")
        if not np.all((times >= 0) & np.isfinite(times)):
            raise ValueError("times must be finite and non-negative")
        if not np.all((megabytes >= 0) & np.isfinite(megabytes)):
            raise ValueError("megabytes must be finite and non-negative")
        self._times.extend(times.tolist())
        self._megabytes.extend(megabytes.tolist())

    def __len__(self) -> int:
        return len(self._times)

    @property
    def events(self) -> Tuple[Tuple[float, float], ...]:
        """The raw (time, megabytes) records, in arrival order."""
        return tuple(zip(self._times, self._megabytes))

    @property
    def times(self) -> np.ndarray:
        """Record times, in arrival order."""
        return np.array(self._times, dtype=float)

    @property
    def megabytes(self) -> np.ndarray:
        """Record sizes, in arrival order."""
        return np.array(self._megabytes, dtype=float)

    def _window_series(self, horizon_s: float = None) -> np.ndarray:
        """MB transferred per window, padded to the horizon.

        Records are reduced in canonical (time, megabytes) order, not
        arrival order: transfers completing at the same instant may be
        dispatched in either order by equivalent queue executions (see
        DESIGN.md, "Virtual-clock queueing"), and float accumulation must
        not expose that tie order as ULP noise in the windowed series.
        """
        if not self._times:
            return np.zeros(1)
        times = self.times
        sizes = self.megabytes
        order = np.lexsort((sizes, times))
        times = times[order]
        sizes = sizes[order]
        end = horizon_s if horizon_s is not None else float(times.max()) + 1e-9
        n_windows = max(1, int(math.ceil(end / self.WINDOW_S)))
        series = np.zeros(n_windows)
        indices = np.minimum((times / self.WINDOW_S).astype(int),
                             n_windows - 1)
        np.add.at(series, indices, sizes)
        return series / self.WINDOW_S  # MB per window -> MB/s

    def mean_mbs(self, horizon_s: float = None) -> float:
        """Average MB/s over the run (the bars in Fig 14b)."""
        return float(self._window_series(horizon_s).mean())

    def percentile_mbs(self, q: float, horizon_s: float = None) -> float:
        """Windowed percentile MB/s (the p99 markers in Fig 14b)."""
        return float(np.percentile(self._window_series(horizon_s), q,
                                   method="linear"))
