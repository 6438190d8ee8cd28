"""End-to-end latency breakdown accounting (Figs 3a, 6b, 12).

Every task execution is decomposed into the paper's components:

- ``network``     — time on the wire between edge and cloud (both ways)
- ``management``  — scheduling, container instantiation, control-plane hops
- ``data_io``     — data sharing between dependent functions
- ``execution``   — useful compute (cloud and/or edge)

A :class:`LatencyBreakdown` is attached to each task record; a
:class:`BreakdownAggregate` reduces a population of them to the
median/tail fraction bars the paper plots.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence

import numpy as np

__all__ = ["COMPONENTS", "LatencyBreakdown", "BreakdownAggregate",
           "breakdown_array"]

COMPONENTS = ("network", "management", "data_io", "execution")

_BY_COMPONENT = operator.attrgetter(*COMPONENTS)


def breakdown_array(breakdowns: Sequence["LatencyBreakdown"]) -> np.ndarray:
    """``(n, 4)`` seconds of ``breakdowns``, one row each, in
    :data:`COMPONENTS` order (the order of ``LatencyBreakdown``'s
    fields, so ``LatencyBreakdown(*row)`` rebuilds one)."""
    return np.array([_BY_COMPONENT(breakdown) for breakdown in breakdowns],
                    dtype=float).reshape(len(breakdowns), len(COMPONENTS))


@dataclass
class LatencyBreakdown:
    """Per-task seconds spent in each latency component."""

    network: float = 0.0
    management: float = 0.0
    data_io: float = 0.0
    execution: float = 0.0

    def charge(self, component: str, seconds: float) -> None:
        if component not in COMPONENTS:
            raise KeyError(f"unknown latency component {component!r}")
        if seconds < 0:
            raise ValueError(f"negative charge {seconds} to {component}")
        setattr(self, component, getattr(self, component) + seconds)

    @property
    def total(self) -> float:
        return self.network + self.management + self.data_io + self.execution

    def fractions(self) -> Dict[str, float]:
        total = self.total
        if total == 0:
            return {name: 0.0 for name in COMPONENTS}
        return {name: getattr(self, name) / total for name in COMPONENTS}

    def __add__(self, other: "LatencyBreakdown") -> "LatencyBreakdown":
        return LatencyBreakdown(
            network=self.network + other.network,
            management=self.management + other.management,
            data_io=self.data_io + other.data_io,
            execution=self.execution + other.execution,
        )


class BreakdownAggregate:
    """Reduces many per-task breakdowns to the paper's stacked bars.

    The paper's breakdown figures show, at the median and the 99th
    percentile of *total* latency, how that latency divides into components.
    We follow the same construction: pick tasks in a small quantile band
    around the target percentile and average their component shares.
    """

    def __init__(self) -> None:
        self._records: List[LatencyBreakdown] = []

    def add(self, breakdown: LatencyBreakdown) -> None:
        self._records.append(breakdown)

    def extend(self, breakdowns: Iterable[LatencyBreakdown]) -> None:
        self._records.extend(breakdowns)

    def __len__(self) -> int:
        return len(self._records)

    def _band(self, percentile: float) -> List[LatencyBreakdown]:
        """The records within 5 percentiles of ``percentile``."""
        width = 5.0
        if not self._records:
            raise ValueError("no breakdown records")
        totals = np.array([r.total for r in self._records])
        low = np.percentile(totals, max(0.0, percentile - width),
                            method="linear")
        high = np.percentile(totals, min(100.0, percentile + width),
                             method="linear")
        chosen = [r for r, t in zip(self._records, totals) if low <= t <= high]
        return chosen or list(self._records)

    def at_percentile(self, percentile: float) -> Dict[str, float]:
        """Mean component *seconds* among tasks near the given percentile."""
        band = self._band(percentile)
        return {
            name: float(np.mean([getattr(r, name) for r in band]))
            for name in COMPONENTS
        }

    def fractions_at_percentile(self, percentile: float) -> Dict[str, float]:
        """Component shares (summing to 1) near the given percentile."""
        seconds = self.at_percentile(percentile)
        total = sum(seconds.values())
        if total == 0:
            return {name: 0.0 for name in COMPONENTS}
        return {name: value / total for name, value in seconds.items()}

    def median_fractions(self) -> Dict[str, float]:
        return self.fractions_at_percentile(50.0)

    def tail_fractions(self) -> Dict[str, float]:
        return self.fractions_at_percentile(99.0)

    def mean_fraction(self, component: str) -> float:
        """Population-mean share of one component (e.g. networking 33%)."""
        if component not in COMPONENTS:
            raise KeyError(component)
        shares = [r.fractions()[component] for r in self._records if r.total > 0]
        if not shares:
            raise ValueError("no breakdown records with nonzero total")
        return float(np.mean(shares))
