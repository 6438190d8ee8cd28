"""One owner per platform rule.

:class:`~repro.platforms.base.PlatformConfig` owns the mechanism rules
(controller scale-out, accelerated wireless goodput, placement, the
filtered-upload cap, runtime remapping) and :mod:`repro.platforms.stack`
assembles the cloud side and the edge transport. The last test keeps any
other module under ``src/repro`` from growing its own copy, and keeps
``SwarmEngine`` the only heartbeat emitter and ``ScenarioRunner`` the only
place outside :mod:`repro.learning` that builds a recognizer.
"""

import pathlib
import re

import pytest

from repro.apps import SCENARIO_A, app
from repro.config import DEFAULT
from repro.core import StragglerMitigator
from repro.hardware import AcceleratedEdgeRpc
from repro.network import EdgeCloudRpc, ReliableEdgeRpc, build_fabric
from repro.platforms import PLATFORMS, platform_config
from repro.platforms.base import CLOUD_BUDGET_CORES, FILTER_CEILING_MB
from repro.platforms.stack import build_cloud, build_edge_rpc
from repro.serverless import FunctionSpec, InvocationRequest
from repro.sim import Environment, RandomStreams
from repro.telemetry import LatencyBreakdown


class TestRules:
    def test_controller_scale_out(self):
        hivemind = platform_config("hivemind")
        assert hivemind.controllers_for(16) == 4
        assert hivemind.controllers_for(257) == 5
        assert hivemind.controllers_for(4096) == 64
        public = platform_config("hivemind_public_cloud")
        assert public.controllers_for(4096) == 1

    def test_accelerated_wireless(self):
        accel = platform_config("centralized_net_accel").fabric_constants(
            DEFAULT)
        assert accel.wireless.mac_efficiency == \
            DEFAULT.accel.mac_efficiency_accel
        assert accel.wireless.ap_mbs == (DEFAULT.wireless.ap_mbps / 8.0 *
                                         DEFAULT.accel.mac_efficiency_accel)
        plain = platform_config("centralized_faas")
        assert plain.fabric_constants(DEFAULT) is DEFAULT

    @pytest.mark.parametrize("name,tier", [
        ("distributed_edge", "edge"), ("distributed_net_accel", "edge"),
        ("centralized_faas", "cloud"), ("centralized_iaas", "cloud"),
        ("hivemind", "cloud")])
    def test_placement(self, name, tier):
        assert platform_config(name).tier_of(
            SCENARIO_A, "recognition", DEFAULT, 16) == tier

    def test_filtered_upload_is_capped(self):
        hivemind = platform_config("hivemind")
        spec = app("S1")
        assert hivemind.filters(spec)
        assert hivemind.upload_mb(spec, 1.0) == 1.0 * spec.edge_filter_keep
        assert hivemind.upload_mb(spec, 1e4) == FILTER_CEILING_MB
        faas = platform_config("centralized_faas")
        assert not faas.filters(spec)
        assert faas.upload_mb(spec, 1e4) == 1e4

    def test_runtime_remapping(self):
        recognition = SCENARIO_A.recognition
        hivemind = platform_config("hivemind")
        n = 4096
        assert hivemind.cloud_fraction(recognition, n) == \
            CLOUD_BUDGET_CORES / (n * recognition.cloud_service_s)
        assert hivemind.cloud_fraction(recognition, 16) == 1.0
        assert platform_config("centralized_faas").cloud_fraction(
            recognition, n) == 1.0


class TestStack:
    def _fabric(self, env, config):
        return build_fabric(env, config.fabric_constants(DEFAULT),
                            RandomStreams(3))

    @pytest.mark.parametrize("name", sorted(
        n for n, c in PLATFORMS.items() if c.cloud_backed))
    def test_cloud_side_follows_the_config(self, name):
        env = Environment()
        config = platform_config(name)
        fabric = self._fabric(env, config)
        cloud = build_cloud(env, config, DEFAULT, RandomStreams(3),
                            fabric.cluster, 1024)
        assert (cloud.mitigator is not None) == config.straggler_mitigation
        assert cloud.platform.sharing_name == config.sharing
        assert len(cloud.platform._controller_free) == \
            config.controllers_for(1024)
        assert cloud.platform.invokers[0].keepalive_s == \
            config.container_keepalive_s

    def test_keepalive_override_and_hardening(self):
        env = Environment()
        config = platform_config("hivemind")
        fabric = self._fabric(env, config)
        cloud = build_cloud(env, config, DEFAULT, RandomStreams(3),
                            fabric.cluster, 16, keepalive_s=3.0,
                            harden_races=True)
        assert cloud.platform.invokers[0].keepalive_s == 3.0
        assert isinstance(cloud.mitigator, StragglerMitigator)
        assert cloud.mitigator.harden_races

    def test_invoke_charges_the_cloud_components(self):
        env = Environment()
        config = platform_config("centralized_faas")
        fabric = self._fabric(env, config)
        cloud = build_cloud(env, config, DEFAULT, RandomStreams(3),
                            fabric.cluster, 16)
        breakdown = LatencyBreakdown()
        request = InvocationRequest(FunctionSpec("f"), service_s=0.1,
                                    input_mb=1.0)
        invocation = env.run(env.process(cloud.invoke(request, breakdown)))
        assert breakdown.management == invocation.breakdown.management
        assert breakdown.data_io == invocation.breakdown.data_io
        assert breakdown.execution == invocation.breakdown.execution
        assert breakdown.network == 0.0

    def test_edge_transport(self):
        env = Environment()
        wireless = self._fabric(env, platform_config("hivemind")).wireless
        accel = build_edge_rpc(env, platform_config("hivemind"), DEFAULT,
                               wireless)
        plain = build_edge_rpc(env, platform_config("centralized_faas"),
                               DEFAULT, wireless)
        assert isinstance(accel, AcceleratedEdgeRpc)
        assert type(plain) is EdgeCloudRpc
        reliable = build_edge_rpc(env, platform_config("hivemind"),
                                  DEFAULT, wireless, recovery_log=object())
        assert isinstance(reliable, ReliableEdgeRpc)
        assert isinstance(reliable.inner, AcceleratedEdgeRpc)


SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

#: pattern -> the modules allowed to contain it (paths under src/repro;
#: a trailing "/" allows a whole package).
OWNERS = {
    r"mac_efficiency_accel": ("config.py", "platforms/base.py"),
    r"HiveMindCompiler\(": ("dsl/", "platforms/base.py"),
    r"/ (64|DEVICES_PER_CONTROLLER)\)": ("platforms/base.py",),
    r"StragglerMitigator\(": ("platforms/stack.py",
                              "experiments/ablation_mechanisms.py"),
    # The watchdog's rule has one owner; the regional tier reads it.
    r"(MIN_HISTORY|THRESHOLD_SLACK|PROBATION_THRESHOLD) =": (
        "core/straggler.py",),
    # One learner factory.
    r"OnlineRecognizer\(": ("learning/", "platforms/scenario_runner.py"),
}


@pytest.mark.parametrize("pattern", sorted(OWNERS))
def test_one_owner_per_rule(pattern):
    allowed = OWNERS[pattern]
    offenders = [
        f"{relative}:{number}"
        for path in sorted(SRC.rglob("*.py"))
        for relative in [path.relative_to(SRC).as_posix()]
        if not any(relative == owner or (owner.endswith("/") and
                                         relative.startswith(owner))
                   for owner in allowed)
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(pattern, line)]
    assert offenders == []
