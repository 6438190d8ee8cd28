"""Tests for the calibration constants and swarm scaling."""

import pytest

from repro.config import DEFAULT, PaperConstants, WirelessConstants


class TestPaperStatedConstants:
    """Constants the paper states explicitly must match it exactly."""

    def test_swarm_sizes(self):
        assert DEFAULT.drone.count == 16
        assert DEFAULT.car.count == 14

    def test_camera_defaults(self):
        assert DEFAULT.drone.frames_per_second == 8.0
        assert DEFAULT.drone.frame_mb == 2.0
        assert DEFAULT.drone.fov_width_m == 6.7
        assert DEFAULT.drone.fov_depth_m == 8.75

    def test_drone_speed(self):
        assert DEFAULT.drone.speed_mps == 4.0

    def test_cluster_shape(self):
        assert DEFAULT.cluster.servers == 12
        assert DEFAULT.cluster.cores_per_server == 40

    def test_wireless_rating(self):
        assert DEFAULT.wireless.access_points == 2
        assert DEFAULT.wireless.ap_mbps == 867.0

    def test_acceleration_headline_numbers(self):
        assert DEFAULT.accel.remote_mem_latency_s == pytest.approx(3.6e-6)
        assert DEFAULT.accel.residual_cpu_fraction == pytest.approx(0.06)

    def test_control_plane_policies(self):
        assert DEFAULT.control.heartbeat_period_s == 1.0
        assert DEFAULT.control.heartbeat_timeout_s == 3.0
        assert DEFAULT.control.straggler_percentile == 90.0

    def test_keepalive_window(self):
        # Paper section 4.3: idle containers linger 10-30 s.
        assert 10.0 <= DEFAULT.serverless.default_keepalive_s <= 30.0

    def test_scenario_targets(self):
        assert DEFAULT.scenario_a_items == 15
        assert DEFAULT.scenario_b_people == 25


class TestWirelessDerived:
    def test_goodput_below_phy(self):
        constants = WirelessConstants()
        phy_mbs = constants.ap_mbps / 8.0
        assert constants.ap_mbs < phy_mbs
        assert constants.total_mbs == pytest.approx(
            constants.access_points * constants.ap_mbs)


class TestSwarmScaling:
    def test_validation(self):
        with pytest.raises(ValueError):
            DEFAULT.scaled_for_swarm(0)

    def test_identity_at_base_count(self):
        scaled = DEFAULT.scaled_for_swarm(16)
        assert scaled.drone.count == 16
        assert scaled.field_width_m == pytest.approx(DEFAULT.field_width_m)

    def test_area_per_device_conserved(self):
        scaled = DEFAULT.scaled_for_swarm(1000)
        base_density = (DEFAULT.field_width_m * DEFAULT.field_height_m /
                        DEFAULT.drone.count)
        scaled_density = (scaled.field_width_m * scaled.field_height_m /
                          scaled.drone.count)
        assert scaled_density == pytest.approx(base_density, rel=0.01)

    def test_access_points_scale(self):
        scaled = DEFAULT.scaled_for_swarm(160)
        assert scaled.wireless.access_points == 20

    def test_targets_scale(self):
        scaled = DEFAULT.scaled_for_swarm(160)
        assert scaled.scenario_a_items == 150
        assert scaled.scenario_b_people == 250

    def test_cluster_stays_fixed(self):
        """The backend does not grow — that's the scalability story."""
        scaled = DEFAULT.scaled_for_swarm(1000)
        assert scaled.cluster.servers == DEFAULT.cluster.servers

    def test_frozen_constants(self):
        with pytest.raises(Exception):
            DEFAULT.drone.count = 99
