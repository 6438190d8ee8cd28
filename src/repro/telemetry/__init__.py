"""Telemetry: metric series, latency breakdowns, power and bandwidth meters."""

from .bandwidth import BandwidthMeter
from .breakdown import (COMPONENTS, BreakdownAggregate, LatencyBreakdown,
                        breakdown_array)
from .metrics import DistributionSummary, MetricSeries
from .power import BatteryDepleted, EnergyAccount, fleet_consumed_percent
from .report import format_value, render_table

__all__ = [
    "MetricSeries",
    "DistributionSummary",
    "LatencyBreakdown",
    "BreakdownAggregate",
    "breakdown_array",
    "COMPONENTS",
    "EnergyAccount",
    "BatteryDepleted",
    "fleet_consumed_percent",
    "BandwidthMeter",
    "render_table",
    "format_value",
]
