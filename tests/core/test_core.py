"""Tests for the controller's straggler watchdog and failure detector."""

import pytest

from repro.cluster import Cluster
from repro.config import ClusterConstants
from repro.core import FailureDetector, StragglerMitigator
from repro.serverless import FunctionSpec, InvocationRequest, OpenWhiskPlatform
from repro.sim import Environment, RandomStreams
from tests.faults.test_failure_detector import make_swarm


@pytest.fixture
def env():
    return Environment()


def small_platform(env, **kwargs):
    cluster = Cluster(env, ClusterConstants(servers=2, cores_per_server=8))
    platform = OpenWhiskPlatform(env, cluster, RandomStreams(3), **kwargs)
    return cluster, platform


class TestStragglerMitigation:
    def test_no_threshold_without_history(self, env):
        _, platform = small_platform(env)
        mitigator = StragglerMitigator(env, platform)
        assert mitigator.threshold_for("fresh") is None

    def test_duplicate_launched_for_straggler(self, env):
        _, platform = small_platform(env)
        mitigator = StragglerMitigator(env, platform)
        spec = FunctionSpec("job")

        def run():
            # Build history of fast tasks.
            for _ in range(mitigator.MIN_HISTORY):
                yield env.process(mitigator.invoke(
                    InvocationRequest(spec, service_s=0.05)))
            # Now a pathological task 100x slower than p90.
            yield env.process(mitigator.invoke(
                InvocationRequest(spec, service_s=5.0)))

        env.run(env.process(run()))
        assert mitigator.stragglers_detected >= 1
        assert mitigator.duplicates_launched >= 1

    def test_fast_tasks_launch_no_duplicates(self, env):
        _, platform = small_platform(env)
        mitigator = StragglerMitigator(env, platform)
        spec = FunctionSpec("job")

        def run():
            for _ in range(40):
                yield env.process(mitigator.invoke(
                    InvocationRequest(spec, service_s=0.05)))

        env.run(env.process(run()))
        assert mitigator.duplicates_launched <= 4  # only rare tail jitter


class TestFailureDetector:
    def test_silent_device_declared_failed(self, env):
        swarm = make_swarm(env)
        detector = FailureDetector(env, swarm)
        swarm.fail_device_at("drone0003", at_time=10.0)
        env.run(until=20.0)
        assert "drone0003" in detector.failed
        assert detector.alive_count == 15

    def test_failed_region_reassigned(self, env):
        swarm = make_swarm(env)
        detector = FailureDetector(env, swarm)
        total_area_before = sum(
            r.area for regions in swarm.regions.values() for r in regions)
        swarm.fail_device_at("drone0005", at_time=5.0)
        env.run(until=15.0)
        assert detector.failed == ["drone0005"]
        assert "drone0005" not in swarm.regions
        # The heirs received extra regions (their routes were updated).
        assert any(len(regions) > 1 for regions in swarm.regions.values())
        total_area_after = sum(
            r.area for regions in swarm.regions.values() for r in regions)
        assert total_area_after == pytest.approx(total_area_before)

    def test_healthy_swarm_no_failures(self, env):
        swarm = make_swarm(env)
        detector = FailureDetector(env, swarm)
        env.run(until=30.0)
        assert detector.failed == []
