"""FaultPlan construction, validation and ordering."""

import pytest

from repro.faults import FaultEvent, FaultPlan, named_plan, plan_names


def _horizon(plan):
    """The last instant a plan touches (event end times included)."""
    return max((e.time + e.duration_s for e in plan.events), default=0.0)


class TestFaultEvent:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(1.0, "gremlins")

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            FaultEvent(-1.0, "device_crash", target="0")

    def test_magnitude_ranges(self):
        with pytest.raises(ValueError):
            FaultEvent(0.0, "link_degrade", magnitude=0.0)
        with pytest.raises(ValueError):
            FaultEvent(0.0, "battery_brownout", target="0", magnitude=1.5)
        with pytest.raises(ValueError):
            FaultEvent(0.0, "function_faults", magnitude=1.0)


class TestFaultPlan:
    def test_builders_and_order(self):
        plan = FaultPlan(name="p")
        plan.server_crash(30.0, "server1")
        plan.cloud_partition(10.0, 5.0)
        plan.device_crash(30.0, "0")
        events = plan.sorted_events()
        assert [e.kind for e in events] == [
            "cloud_partition", "server_crash", "device_crash"]
        # Equal times keep insertion order (deterministic replay).
        assert events[1].time == events[2].time == 30.0

    def test_armed_and_horizon(self):
        plan = FaultPlan()
        assert not plan.armed
        assert _horizon(plan) == 0.0
        plan.cloud_partition(40.0, 20.0)
        assert plan.armed
        assert _horizon(plan) == 60.0

    def test_named_plans_scale_with_duration(self):
        assert "mixed" in plan_names()
        short = named_plan("mixed", duration_s=60.0)
        long = named_plan("mixed", duration_s=600.0)
        assert short.armed and long.armed
        assert _horizon(long) == pytest.approx(10 * _horizon(short))
        with pytest.raises(ValueError):
            named_plan("nonexistent", duration_s=60.0)
        with pytest.raises(ValueError):
            named_plan("mixed", duration_s=0.0)

    def test_mixed_plan_matches_acceptance_recipe(self):
        plan = named_plan("mixed", duration_s=120.0)
        kinds = sorted({e.kind for e in plan.events})
        assert kinds == ["cloud_partition", "function_faults",
                         "server_crash"]
        faults = [e for e in plan.events if e.kind == "function_faults"]
        assert faults[0].magnitude == pytest.approx(0.20)
