"""FaultPlan construction, validation, ordering, and serialization."""

import pytest

from repro.faults import FaultEvent, FaultPlan, named_plan, plan_names
from repro.faults.plan import server_index


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

    def test_layer_mapping(self):
        assert FaultEvent(0.0, "device_crash", target="0").layer == "edge"
        assert FaultEvent(0.0, "kafka_outage",
                          duration_s=1.0).layer == "serverless"


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
        assert plan.horizon() == 0.0
        plan.cloud_partition(40.0, 20.0)
        assert plan.armed
        assert plan.horizon() == 60.0

    def test_roundtrip(self):
        plan = FaultPlan(name="rt", seed=7)
        plan.function_faults(0.0, 0.2)
        plan.invoker_crash(12.0, "server0", reboot_s=3.0)
        clone = FaultPlan.from_dict(plan.to_dict())
        assert clone.name == "rt" and clone.seed == 7
        assert clone.sorted_events() == plan.sorted_events()

    def test_named_plans_scale_with_duration(self):
        assert "mixed" in plan_names()
        short = named_plan("mixed", duration_s=60.0)
        long = named_plan("mixed", duration_s=600.0)
        assert short.armed and long.armed
        assert long.horizon() == pytest.approx(10 * short.horizon())
        with pytest.raises(ValueError):
            named_plan("nonexistent", duration_s=60.0)
        with pytest.raises(ValueError):
            named_plan("mixed", duration_s=0.0)

    def test_mixed_plan_matches_acceptance_recipe(self):
        plan = named_plan("mixed", duration_s=120.0)
        kinds = plan.kinds()
        assert kinds == ("cloud_partition", "function_faults",
                         "server_crash")
        faults = [e for e in plan.events if e.kind == "function_faults"]
        assert faults[0].magnitude == pytest.approx(0.20)


class TestPartition:
    def build(self):
        plan = FaultPlan(name="storm", seed=3)
        plan.device_crash(10.0, "70")
        plan.battery_brownout(20.0, "3", 0.9)
        plan.link_degrade(5.0, 30.0, 0.5)
        plan.server_crash(8.0, "server0")
        plan.couchdb_outage(40.0, 5.0)
        return plan

    def test_device_events_route_to_owning_cell(self):
        part = self.build().partition(256, cell_devices=64)
        cell1 = [e for e in part.cell(1).events
                 if e.kind == "device_crash"]
        assert cell1[0].target == "6"  # 70 -> cell 1, local index 6
        cell0 = [e for e in part.cell(0).events
                 if e.kind == "battery_brownout"]
        assert cell0[0].target == "3"
        assert cell0[0].magnitude == pytest.approx(0.9)

    def test_network_events_replicated_per_cell(self):
        part = self.build().partition(256, cell_devices=64)
        for cell in range(4):
            degrades = [e for e in part.cell(cell).events
                        if e.kind == "link_degrade"]
            assert len(degrades) == 1

    def test_cloud_plan_owns_backend_layers(self):
        part = self.build().partition(256, cell_devices=64)
        assert part.cloud.kinds() == ("couchdb_outage", "server_crash")
        for plan in part.cells.values():
            assert not any(e.layer in ("cluster", "serverless")
                           for e in plan.events)

    def test_crash_schedule_feeds_run_sharded(self):
        part = self.build().partition(256, cell_devices=64)
        assert part.device_crash_schedule() == [(70, 10.0)]

    def test_counts_and_empty_cells(self):
        part = self.build().partition(256, cell_devices=64)
        # 2 device events + 4 replicated network + 2 cloud
        assert len(part) == 8
        assert len(part.cell(3).events) == 1  # only the replicated degrade
        missing = part.cell(2)
        assert [e.kind for e in missing.events] == ["link_degrade"]

    def test_out_of_range_device_rejected(self):
        plan = FaultPlan().device_crash(1.0, "70")
        with pytest.raises(ValueError):
            plan.partition(64, cell_devices=64)

    def test_pure_data(self):
        plan = self.build()
        before = plan.to_dict()
        plan.partition(256, cell_devices=64)
        assert plan.to_dict() == before  # source plan untouched


class TestRegionPartition:
    """Region-aware routing for the cloud-sharded runtime."""

    def build(self):
        plan = FaultPlan(name="regional", seed=11)
        plan.server_crash(8.0, "server0")
        plan.invoker_crash(12.0, "server9", reboot_s=2.0)
        plan.couchdb_outage(20.0, 5.0)
        plan.kafka_outage(25.0, 5.0)
        plan.cloud_partition(30.0, 10.0)
        plan.function_faults(0.0, 0.1)
        return plan

    def test_unregioned_partition_has_no_region_plans(self):
        part = self.build().partition(1024, cell_devices=64)
        assert part.region_devices is None
        assert part.regions == {}
        assert not part.region(0).armed  # accessor returns empty plan

    def test_server_events_route_to_owning_region(self):
        # 1024 devices / 512 per region -> 2 regions over 12 servers
        # (contiguous split: region 0 owns servers 0-5, region 1 6-11).
        part = self.build().partition(1024, cell_devices=64,
                                      region_devices=512, n_servers=12)
        r0_kinds = [e.kind for e in part.region(0).events]
        r1_kinds = [e.kind for e in part.region(1).events]
        assert "server_crash" in r0_kinds
        assert "server_crash" not in r1_kinds
        assert "invoker_crash" in r1_kinds  # server9 -> region 1
        assert "invoker_crash" not in r0_kinds

    def test_store_and_bus_outages_replicate_to_every_region(self):
        # A CouchDB or Kafka outage takes down shared infrastructure:
        # every region must see the stall window, not just region 0
        # (the old region-0-only routing made cloud-sharded runs
        # under-inject and diverge from the monolithic gateway).
        part = self.build().partition(1024, cell_devices=64,
                                      region_devices=512, n_servers=12)
        for region in (0, 1):
            kinds = part.region(region).kinds()
            assert "couchdb_outage" in kinds
            assert "kafka_outage" in kinds

    def test_partition_windows_and_rates_replicate_to_all_regions(self):
        part = self.build().partition(1024, cell_devices=64,
                                      region_devices=512, n_servers=12)
        for region in (0, 1):
            kinds = part.region(region).kinds()
            assert "cloud_partition" in kinds
            assert "function_faults" in kinds

    def test_legacy_cloud_plan_unchanged_by_region_routing(self):
        plain = self.build().partition(1024, cell_devices=64)
        regioned = self.build().partition(1024, cell_devices=64,
                                          region_devices=512, n_servers=12)
        assert (plain.cloud.sorted_events()
                == regioned.cloud.sorted_events())

    def test_more_regions_than_servers_maps_same_index(self):
        plan = FaultPlan(name="tiny").server_crash(1.0, "server2")
        part = plan.partition(64, cell_devices=4, region_devices=8,
                              n_servers=4)
        assert "server_crash" in part.region(2).kinds()

    def test_bad_region_devices_rejected(self):
        with pytest.raises(ValueError):
            self.build().partition(1024, region_devices=0)


class TestCrashTargets:
    """A crash target is a server id the cluster has, or the plan is
    refused when it is partitioned, as ``invoker_of`` refuses it."""

    def test_server_ids_parse_to_their_index(self):
        assert server_index("server0", 12) == 0
        assert server_index("server11", 12) == 11

    @pytest.mark.parametrize("target", [
        "invoker", "srv-1", "server", "server01", "server-1", "server1x",
        " server1", "server12", None])
    def test_other_targets_are_refused(self, target):
        with pytest.raises(ValueError, match="not a server id"):
            server_index(target, 12)

    @pytest.mark.parametrize("target", ["invoker", "srv-1", "server12"])
    @pytest.mark.parametrize("region_devices", [None, 512])
    def test_partition_refuses_a_bad_target(self, target, region_devices):
        plan = FaultPlan(name="bad").server_crash(8.0, target)
        with pytest.raises(ValueError, match="not a server id"):
            plan.partition(1024, cell_devices=64,
                           region_devices=region_devices, n_servers=12)

    def test_region_refuses_a_bad_target(self):
        from repro.apps import SCENARIO_A
        from repro.config import DEFAULT
        from repro.platforms import platform_config
        from repro.serverless.region import RegionGateway
        gateway = RegionGateway(platform_config("hivemind"), SCENARIO_A,
                                DEFAULT, region=0, n_regions=1,
                                region_devices=16, total_devices=16)
        plan = FaultPlan(name="bad").invoker_crash(8.0, "invoker")
        with pytest.raises(ValueError, match="not a server id"):
            gateway.apply_fault_plan(plan)
        assert gateway._probation_until == [0.0] * gateway._n_servers
