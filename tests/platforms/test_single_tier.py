"""Integration tests for the single-tier runner across platforms."""

import pytest

from repro.apps import app
from repro.faults import FaultEvent, FaultPlan, named_plan
from repro.faults.plan import CLOUD_KINDS
from repro.platforms import (PlatformConfig, SingleTierRunner,
                             platform_config)


def run(platform, app_key, **kwargs):
    defaults = dict(seed=7, duration_s=30.0, load_fraction=0.6)
    defaults.update(kwargs)
    return SingleTierRunner(platform_config(platform), app(app_key),
                            **defaults).run()


class TestConfigs:
    def test_unknown_platform(self):
        with pytest.raises(ValueError, match="unknown platform"):
            platform_config("skynet")

    def test_validation(self):
        with pytest.raises(ValueError):
            SingleTierRunner(platform_config("hivemind"), app("S1"),
                             n_devices=0)
        with pytest.raises(ValueError):
            SingleTierRunner(platform_config("hivemind"), app("S1"),
                             load_fraction=0)
        with pytest.raises(ValueError):
            SingleTierRunner(platform_config("hivemind"), app("S1"),
                             iaas_headroom=0)
        with pytest.raises(ValueError):
            SingleTierRunner(platform_config("hivemind"), app("S1"),
                             rate_override=0)

    @pytest.mark.parametrize("kwargs", [
        dict(frame_mb=-1.0), dict(frame_mb=0.0), dict(fps=0.0),
        dict(fps=-2.0), dict(frame_mb=float("nan"))])
    def test_rejects_non_positive_resolution(self, kwargs):
        with pytest.raises(ValueError,
                           match="fps and frame size must be positive"):
            SingleTierRunner(platform_config("hivemind"), app("S1"),
                             **kwargs)

    @pytest.mark.parametrize("duration_s", [0.0, -5.0, float("nan")])
    def test_rejects_non_positive_duration(self, duration_s):
        with pytest.raises(ValueError, match="duration must be positive"):
            SingleTierRunner(platform_config("hivemind"), app("S1"),
                             duration_s=duration_s)

    def test_rejects_nan_iaas_headroom(self):
        with pytest.raises(ValueError, match="headroom"):
            SingleTierRunner(platform_config("centralized_iaas"), app("S1"),
                             iaas_headroom=float("nan"))

    def test_rejects_negative_keepalive_override(self):
        runner = SingleTierRunner(platform_config("centralized_faas"),
                                  app("S1"), duration_s=5.0,
                                  keepalive_s=-1.0)
        with pytest.raises(ValueError, match="keep-alive"):
            runner.run()

    @pytest.mark.parametrize("keepalive_s", [-1.0, float("nan")])
    def test_config_rejects_bad_keepalive(self, keepalive_s):
        with pytest.raises(ValueError, match="keep-alive"):
            PlatformConfig(name="x", execution="cloud_faas",
                           container_keepalive_s=keepalive_s)

    def test_hivemind_config_flags(self):
        config = platform_config("hivemind")
        assert config.net_accel and config.remote_mem
        assert config.scheduler == "hivemind"
        assert config.sharing == "remote_memory"
        assert config.container_keepalive_s == 20.0

    def test_stock_keepalive_is_aggressive(self):
        assert platform_config("centralized_faas").container_keepalive_s \
            < platform_config("hivemind").container_keepalive_s


class TestFaultPlanChecks:
    """A plan the platform cannot apply fails at construction, not when
    its first event fires mid-run."""

    @pytest.mark.parametrize("platform", ["centralized_iaas",
                                          "distributed_edge"])
    def test_cloud_faults_need_a_serverless_cloud(self, platform):
        with pytest.raises(ValueError, match=(
                f"injects function_faults, server_crash but platform "
                f"'{platform}' has no serverless cloud")):
            SingleTierRunner(platform_config(platform), app("S3"),
                             seed=0, duration_s=60,
                             fault_plan=named_plan("mixed", 60.0))

    @pytest.mark.parametrize("kind", sorted(CLOUD_KINDS))
    def test_every_cloud_kind_is_refused(self, kind):
        plan = FaultPlan(events=[FaultEvent(1.0, kind, target="server0",
                                            duration_s=1.0)])
        with pytest.raises(ValueError, match=kind):
            SingleTierRunner(platform_config("centralized_iaas"), app("S3"),
                             fault_plan=plan)

    def test_edge_faults_run_without_a_cloud(self):
        result = SingleTierRunner(
            platform_config("distributed_edge"), app("S3"), seed=0,
            duration_s=20, n_devices=4,
            fault_plan=named_plan("edge_attrition", 20.0)).run()
        assert result.extras["violations"] == 0
        assert [kind for _, kind, _ in result.extras["chaos"]["injected"]] \
            == ["device_crash", "battery_brownout"]

    @pytest.mark.parametrize("target", ["4", "-1", "drone0004", "drone4",
                                        None])
    def test_device_target_must_name_a_device(self, target):
        plan = FaultPlan().device_crash(1.0, target)
        with pytest.raises(ValueError, match="names no device"):
            SingleTierRunner(platform_config("hivemind"), app("S3"),
                             n_devices=4, fault_plan=plan)
        brownout = FaultPlan().battery_brownout(1.0, target, 0.5)
        with pytest.raises(ValueError, match="names no device"):
            SingleTierRunner(platform_config("hivemind"), app("S3"),
                             n_devices=4, fault_plan=brownout)

    @pytest.mark.parametrize("target", ["3", "drone0003"])
    def test_device_target_by_index_or_id(self, target):
        runner = SingleTierRunner(platform_config("hivemind"), app("S3"),
                                  seed=0, duration_s=5, n_devices=4,
                                  fault_plan=FaultPlan().device_crash(
                                      1.0, target))
        assert runner.run().extras["chaos"]["injected"] == [
            (1.0, "device_crash", target)]


class TestRunnerBasics:
    def test_produces_tasks_and_breakdowns(self):
        result = run("centralized_faas", "S1")
        assert len(result.task_latencies) > 50
        assert len(result.breakdowns) == len(result.task_latencies)
        assert result.extras["invocations"] >= len(result.task_latencies)

    def test_rate_respects_network_budget(self):
        runner = SingleTierRunner(platform_config("centralized_faas"),
                                  app("S1"), load_fraction=0.5)
        rate = runner.task_rate_hz()
        offered = rate * runner.n_devices * runner.input_mb
        assert offered <= 0.51 * runner.constants.wireless.total_mbs

    def test_rate_override(self):
        runner = SingleTierRunner(platform_config("centralized_faas"),
                                  app("S1"), rate_override=0.05)
        assert runner.task_rate_hz() == 0.05

    def test_tiny_inputs_keep_app_rate(self):
        runner = SingleTierRunner(platform_config("centralized_faas"),
                                  app("S7"))
        assert runner.task_rate_hz() == app("S7").rate_hz

    def test_resolution_override(self):
        runner = SingleTierRunner(platform_config("centralized_faas"),
                                  app("S1"), frame_mb=8.0)
        assert runner.input_mb == 64.0  # 8 fps x 8 MB

    def test_process_tier_per_platform(self):
        assert run("distributed_edge", "S1",
                   duration_s=10).extras["process_tier"] == "edge"
        assert run("centralized_faas", "S1",
                   duration_s=10).extras["process_tier"] == "cloud"

    def test_hivemind_places_pinned_app_at_edge(self):
        assert run("hivemind", "S4",
                   duration_s=10).extras["process_tier"] == "edge"

    def test_hivemind_places_heavy_app_in_cloud(self):
        assert run("hivemind", "S10",
                   duration_s=10).extras["process_tier"] == "cloud"


class TestExpectedShapes:
    def test_edge_slower_than_cloud_for_heavy_app(self):
        cloud = run("centralized_faas", "S1")
        edge = run("distributed_edge", "S1")
        assert edge.median_latency_s > 3 * cloud.median_latency_s

    def test_edge_comparable_for_light_app(self):
        cloud = run("centralized_faas", "S7")
        edge = run("distributed_edge", "S7")
        assert edge.median_latency_s < 2.5 * cloud.median_latency_s

    def test_hivemind_beats_centralized(self):
        hivemind = run("hivemind", "S1")
        centralized = run("centralized_faas", "S1")
        assert hivemind.median_latency_s < centralized.median_latency_s

    def test_hivemind_ships_fewer_bytes(self):
        hivemind = run("hivemind", "S1")
        centralized = run("centralized_faas", "S1")
        assert hivemind.wireless_meter.megabytes.sum() < \
            0.6 * centralized.wireless_meter.megabytes.sum()

    def test_network_share_substantial_when_centralized(self):
        result = run("centralized_faas", "S1", duration_s=60)
        assert result.breakdowns.mean_fraction("network") > 0.2

    def test_distributed_burns_most_battery(self):
        edge = run("distributed_edge", "S1", duration_s=60)
        hivemind = run("hivemind", "S1", duration_s=60)
        assert edge.battery_summary()[0] > hivemind.battery_summary()[0]

    def test_intra_task_parallelism_speeds_up(self):
        serial = run("centralized_faas", "S9")
        parallel = run("centralized_faas", "S9",
                       intra_task_parallelism=True)
        assert parallel.median_latency_s < 0.6 * serial.median_latency_s

    def test_fault_injection_respawns(self):
        result = run("centralized_faas", "S1", fault_rate=0.15)
        assert result.extras["respawns"] > 0
        # All tasks still completed (OpenWhisk respawns failed tasks).
        assert len(result.task_latencies) > 50

    def test_saturation_explodes_tail(self):
        modest = run("centralized_faas", "S1", load_fraction=0.4,
                     duration_s=40)
        saturated = run("centralized_faas", "S1", load_fraction=3.0,
                        duration_s=40)
        assert saturated.tail_latency_s > 3 * modest.tail_latency_s

    def test_load_profile_limits_activity(self):
        quiet = run("centralized_faas", "S1",
                    load_profile=lambda t: 0.10)
        busy = run("centralized_faas", "S1")
        assert len(quiet.task_latencies) < 0.5 * len(busy.task_latencies)


class TestPublicCloudMode:
    """Section 4.7: HiveMind without full system control."""

    def test_config_shape(self):
        config = platform_config("hivemind_public_cloud")
        assert config.execution == "hybrid"        # keeps task placement
        assert config.edge_filtering               # keeps hybrid filtering
        assert not config.net_accel                # no provider FPGAs
        assert not config.remote_mem
        assert config.scheduler == "openwhisk"     # no placement control

    def test_keeps_placement_benefit_but_loses_acceleration(self):
        public = run("hivemind_public_cloud", "S1")
        full = run("hivemind", "S1")
        centralized = run("centralized_faas", "S1")
        # Still better than plain centralized (hybrid filtering), but
        # behind the fully controlled deployment.
        assert public.median_latency_s < centralized.median_latency_s
        assert full.median_latency_s <= public.median_latency_s * 1.02
