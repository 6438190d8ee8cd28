"""Battery/energy accounting for edge devices (Figs 1, 14a, 16b).

An :class:`EnergyAccount` tracks watt-hours drawn per category (motion,
compute, radio_tx, radio_rx, idle) against a battery capacity. Devices call
:meth:`draw_power` for steady draws over an interval and :meth:`draw_energy`
for one-shot costs. Consumed-battery percentages are what the paper plots.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

__all__ = ["EnergyAccount", "BatteryDepleted", "fleet_consumed_percent"]

CATEGORIES = ("motion", "compute", "radio_tx", "radio_rx", "idle")

WH_PER_JOULE = 1.0 / 3600.0


class BatteryDepleted(Exception):
    """Raised when a draw would take the battery below zero."""

    def __init__(self, device: str, category: str):
        super().__init__(f"{device}: battery depleted during {category}")
        self.device = device
        self.category = category


class EnergyAccount:
    """Watt-hour ledger for one device's battery."""

    def __init__(self, capacity_wh: float, device: str = "device",
                 strict: bool = False):
        if capacity_wh <= 0:
            raise ValueError("battery capacity must be positive")
        self.capacity_wh = float(capacity_wh)
        self.device = device
        #: When strict, exhausting the battery raises BatteryDepleted —
        #: used by scenario runs where drones can drop out (section 2.3
        #: reports Scenario B left incomplete on the distributed platform).
        self.strict = strict
        self._drawn: Dict[str, float] = {name: 0.0 for name in CATEGORIES}

    def draw_power(self, category: str, watts: float, seconds: float) -> None:
        """Draw ``watts`` for ``seconds`` of simulated time."""
        if watts < 0 or seconds < 0:
            raise ValueError("watts and seconds must be non-negative")
        self._draw(category, watts * seconds * WH_PER_JOULE)

    def draw_energy(self, category: str, joules: float) -> None:
        if joules < 0:
            raise ValueError("joules must be non-negative")
        self._draw(category, joules * WH_PER_JOULE)

    def _draw(self, category: str, wh: float) -> None:
        if category not in self._drawn:
            raise KeyError(f"unknown energy category {category!r}")
        self._drawn[category] += wh
        if self.strict and self.depleted:
            raise BatteryDepleted(self.device, category)

    @property
    def consumed_wh(self) -> float:
        return sum(self._drawn.values())

    @property
    def consumed_percent(self) -> float:
        """May exceed 100 in non-strict mode (battery-swap abstraction)."""
        return 100.0 * self.consumed_wh / self.capacity_wh

    @property
    def remaining_wh(self) -> float:
        return max(0.0, self.capacity_wh - self.consumed_wh)

    @property
    def remaining_fraction(self) -> float:
        return self.remaining_wh / self.capacity_wh

    @property
    def depleted(self) -> bool:
        return self.consumed_wh >= self.capacity_wh

    def by_category(self) -> Dict[str, float]:
        return dict(self._drawn)


def fleet_consumed_percent(accounts: Iterable[EnergyAccount]) -> "tuple[float, float]":
    """(mean, worst-case) consumed-battery percent across a fleet.

    Fig 14a plots the average as bars and the tail as markers; Fig 16b uses
    worst-case markers for the car swarm.
    """
    percents: List[float] = [account.consumed_percent for account in accounts]
    if not percents:
        raise ValueError("no energy accounts")
    return (sum(percents) / len(percents), max(percents))
