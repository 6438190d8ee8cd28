"""Benchmark applications: S1-S10 suite plus end-to-end scenarios."""

from .base import AppSpec
from .car_scenarios import CAR_MAZE, TREASURE_HUNT, CarScenarioSpec
from .scenarios import (
    ITEM_RECOGNITION,
    SCENARIO_A,
    SCENARIO_B,
    ScenarioSpec,
    scenario,
)
from .suite import APP_KEYS, SUITE, all_apps, app

__all__ = [
    "AppSpec",
    "ITEM_RECOGNITION",
    "SUITE",
    "APP_KEYS",
    "app",
    "all_apps",
    "ScenarioSpec",
    "SCENARIO_A",
    "SCENARIO_B",
    "scenario",
    "CarScenarioSpec",
    "TREASURE_HUNT",
    "CAR_MAZE",
]
