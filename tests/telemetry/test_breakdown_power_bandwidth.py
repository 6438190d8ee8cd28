"""Tests for latency breakdowns, energy accounts, and bandwidth meters."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.telemetry import (
    BandwidthMeter,
    BreakdownAggregate,
    EnergyAccount,
    LatencyBreakdown,
    fleet_consumed_percent,
)


class TestLatencyBreakdown:
    def test_charge_and_total(self):
        breakdown = LatencyBreakdown()
        breakdown.charge("network", 0.2)
        breakdown.charge("execution", 0.8)
        assert breakdown.total == pytest.approx(1.0)

    def test_unknown_component_rejected(self):
        with pytest.raises(KeyError):
            LatencyBreakdown().charge("gpu", 1.0)

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            LatencyBreakdown().charge("network", -0.1)

    def test_fractions_sum_to_one(self):
        breakdown = LatencyBreakdown(network=1, management=1,
                                     data_io=1, execution=1)
        fractions = breakdown.fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)
        assert fractions["network"] == pytest.approx(0.25)

    def test_fractions_of_zero_total(self):
        assert all(v == 0 for v in LatencyBreakdown().fractions().values())

    def test_addition(self):
        a = LatencyBreakdown(network=1)
        b = LatencyBreakdown(execution=2)
        combined = a + b
        assert combined.network == 1 and combined.execution == 2

    @given(st.lists(st.floats(min_value=0, max_value=100), min_size=4,
                    max_size=4))
    def test_fractions_property(self, parts):
        breakdown = LatencyBreakdown(*parts)
        fractions = breakdown.fractions()
        if breakdown.total > 0:
            assert sum(fractions.values()) == pytest.approx(1.0)
        assert all(0 <= v <= 1 for v in fractions.values())


class TestBreakdownAggregate:
    def _populate(self, aggregate, n=100):
        for i in range(n):
            aggregate.add(LatencyBreakdown(
                network=0.1 * (i + 1), execution=0.3 * (i + 1)))

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            BreakdownAggregate().at_percentile(50)

    def test_median_fractions(self):
        aggregate = BreakdownAggregate()
        self._populate(aggregate)
        fractions = aggregate.median_fractions()
        assert fractions["network"] == pytest.approx(0.25, abs=0.01)
        assert fractions["execution"] == pytest.approx(0.75, abs=0.01)

    def test_tail_band_larger_than_median_band(self):
        aggregate = BreakdownAggregate()
        self._populate(aggregate)
        median_seconds = sum(aggregate.at_percentile(50).values())
        tail_seconds = sum(aggregate.at_percentile(99).values())
        assert tail_seconds > median_seconds

    def test_mean_fraction(self):
        aggregate = BreakdownAggregate()
        self._populate(aggregate)
        assert aggregate.mean_fraction("network") == pytest.approx(0.25)

    def test_mean_fraction_unknown_component(self):
        with pytest.raises(KeyError):
            BreakdownAggregate().mean_fraction("gpu")


class TestEnergyAccount:
    def test_capacity_positive(self):
        with pytest.raises(ValueError):
            EnergyAccount(0)

    def test_draw_power_accumulates(self):
        account = EnergyAccount(capacity_wh=10)
        account.draw_power("motion", watts=36.0, seconds=100.0)  # 1 Wh
        assert account.consumed_wh == pytest.approx(1.0)
        assert account.consumed_percent == pytest.approx(10.0)

    def test_draw_energy_joules(self):
        account = EnergyAccount(capacity_wh=1)
        account.draw_energy("radio_tx", joules=3600)
        assert account.consumed_wh == pytest.approx(1.0)

    def test_unknown_category(self):
        with pytest.raises(KeyError):
            EnergyAccount(1).draw_power("warp", 1, 1)

    def test_negative_rejected(self):
        account = EnergyAccount(1)
        with pytest.raises(ValueError):
            account.draw_power("motion", -1, 1)
        with pytest.raises(ValueError):
            account.draw_energy("motion", -1)

    def test_nonstrict_can_exceed_100(self):
        account = EnergyAccount(capacity_wh=0.001)
        account.draw_power("compute", watts=100, seconds=100)
        assert account.consumed_percent > 100

    def test_remaining_clamped_at_zero(self):
        account = EnergyAccount(capacity_wh=0.001)
        account.draw_power("compute", watts=100, seconds=100)
        assert account.remaining_wh == 0.0
        assert account.depleted

    def test_by_category(self):
        account = EnergyAccount(10)
        account.draw_power("motion", 36, 100)
        account.draw_power("radio_tx", 36, 50)
        categories = account.by_category()
        assert categories["motion"] == pytest.approx(1.0)
        assert categories["radio_tx"] == pytest.approx(0.5)

    def test_fleet_summary(self):
        accounts = [EnergyAccount(10), EnergyAccount(10)]
        accounts[0].draw_power("motion", 36, 100)   # 10%
        accounts[1].draw_power("motion", 36, 300)   # 30%
        mean, worst = fleet_consumed_percent(accounts)
        assert mean == pytest.approx(20.0)
        assert worst == pytest.approx(30.0)

    def test_fleet_summary_empty(self):
        with pytest.raises(ValueError):
            fleet_consumed_percent([])


class TestBandwidthMeter:
    def test_window_must_be_positive(self):
        with pytest.raises(ValueError):
            BandwidthMeter(window_s=0)

    def test_total(self):
        meter = BandwidthMeter()
        meter.record(0.5, 10)
        meter.record(1.5, 20)
        assert meter.total_mb == 30

    def test_mean_mbs(self):
        meter = BandwidthMeter(window_s=1.0)
        meter.record(0.5, 10)
        meter.record(1.5, 30)
        assert meter.mean_mbs(horizon_s=2.0) == pytest.approx(20.0)

    def test_percentile_and_peak(self):
        meter = BandwidthMeter(window_s=1.0)
        for t in range(10):
            meter.record(t + 0.5, 1.0)
        meter.record(5.2, 99.0)
        assert meter.percentile_mbs(100, horizon_s=10) == pytest.approx(100.0)
        assert meter.percentile_mbs(50, horizon_s=10) == pytest.approx(1.0)

    def test_empty_meter(self):
        meter = BandwidthMeter()
        assert meter.mean_mbs() == 0.0
        assert len(meter) == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            BandwidthMeter().record(0, -1)

    @pytest.mark.parametrize("window_s", [math.nan, math.inf],
                             ids=["nan", "inf"])
    def test_non_finite_window_rejected(self, window_s):
        with pytest.raises(ValueError, match="window"):
            BandwidthMeter(window_s=window_s)

    @pytest.mark.parametrize("time, megabytes", [
        (math.nan, 1.0), (math.inf, 1.0), (-1.0, 1.0),
        (1.0, math.nan), (1.0, math.inf),
    ], ids=["nan-time", "inf-time", "negative-time", "nan-size",
            "inf-size"])
    def test_bad_record_rejected(self, time, megabytes):
        meter = BandwidthMeter()
        with pytest.raises(ValueError):
            meter.record(time, megabytes)
        with pytest.raises(ValueError):
            meter.extend([0.5, time], [1.0, megabytes])
        assert len(meter) == 0

    def test_extend_matches_record(self):
        one, bulk = BandwidthMeter(), BandwidthMeter()
        times, sizes = [0.5, 2.25, 0.5, 3.0], [1.0, 2.0, 0.0, 4.5]
        for time, megabytes in zip(times, sizes):
            one.record(time, megabytes)
        bulk.extend(times, sizes)
        assert bulk.events == one.events
        assert bulk.mean_mbs() == one.mean_mbs()
        for q in (0, 50, 100):
            assert bulk.percentile_mbs(q) == one.percentile_mbs(q)

    def test_extend_needs_equal_lengths(self):
        with pytest.raises(ValueError, match="equal-length"):
            BandwidthMeter().extend([1.0, 2.0], [1.0])
