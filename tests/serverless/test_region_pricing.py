"""Digest pins for the regional cloud tier (``RegionGateway``).

``TestCloudShardInvariance`` compares worker groupings with each other,
so a pricing change applied to every grouping alike passes it. These
pins hold the priced output itself: each case's rows, merged extras and
per-region ``stats()`` (serving ledgers included) are digested, and the
digests were recorded before the core pools moved from heaps to sorted
lists. A drift means the regional model changed, not just its speed.

Per-region ``stats()`` never reach the merged result, so the pins read
them off the driver's ``finish`` round trip to each region worker group
(the only ``request("finish")`` a sharded run makes).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.faults import FaultPlan
from repro.platforms import platform_config
from repro.serving import AutoscaleConfig, ServingConfig, parse_serving_spec
from repro.sim import supervisor
from repro.sim.shard import run_sharded
from tests.sim.test_shard_determinism import result_bytes, scenario_variant

#: Extras that depend on the host's core count, not on the model.
HOST_KEYS = ("shard_workers", "cloud_shard_workers")


def _digest(value) -> str:
    return hashlib.md5(repr(value).encode()).hexdigest()


@pytest.fixture
def region_stats(monkeypatch):
    """Collect every region's ``stats()`` from the driver's side."""
    seen = {}
    request = supervisor.SupervisedConnection.request

    def recording(self, command, argument):
        reply = request(self, command, argument)
        if command == "finish":
            seen.update(reply)
        return reply

    monkeypatch.setattr(supervisor.SupervisedConnection, "request",
                        recording)
    return seen


def _pins(result, stats):
    extras = {key: value for key, value in result.extras.items()
              if key not in HOST_KEYS}
    return (_digest(result_bytes(result)), _digest(sorted(extras.items())),
            _digest(sorted(stats.items())))


def _run(n_devices=16, cell_devices=4, region_devices=8, **kwargs):
    return run_sharded(platform_config("hivemind"), scenario_variant("S1"),
                       n_devices, shards=2, cell_devices=cell_devices,
                       cloud_shards=2, region_devices=region_devices,
                       **kwargs)


class TestRegionPricingPins:
    def test_cloud_sharded_with_straggler_mitigation(self, region_stats):
        result = _run(seed=0)
        assert result.extras["duplicate_launches"] > 0
        assert _pins(result, region_stats) == (
            "5605707fb7b35b0632cee77c9ff5fb9d",
            "1f8e6c7f0eccd441ab019b580d683829",
            "4cfdb2e858a3001019e7ccdedf285523")

    def test_serving_sheds_and_scales_both_ways(self, region_stats):
        serving = ServingConfig(
            tenants=parse_serving_spec("poisson:60,onoff:200:flash"),
            duration_s=80.0,
            autoscale=AutoscaleConfig(scale_in_idle_s=5.0, cooldown_s=2.0,
                                      provision_s=2.0))
        result = _run(seed=7, serving=serving)
        ledger = result.extras["serving"]
        assert ledger["shed_calls"] > 0
        assert ledger["scale_outs"] > 0 and ledger["scale_ins"] > 0
        assert _pins(result, region_stats) == (
            "10900b045bc1ba08c823275e1ca4838a",
            "917d33bf0ade804f0cb00d158c714b53",
            "095b847bea0e0c76a2827256992aa74f")

    def test_backend_fault_plan(self, region_stats):
        plan = (FaultPlan("backend").couchdb_outage(5.0, 10.0)
                .server_crash(8.0, "server1", reboot_s=20.0))
        result = _run(seed=0, fault_plan=plan)
        assert result.extras["injected_backend_faults"] > 0
        assert _pins(result, region_stats) == (
            "f53526c9a7db55df5183b940448989cc",
            "90ebfdf6ad36f66e3e1cc8ecf2f93867",
            "3c9ca36ce85ef8504df545a320d05bd5")

    def test_hybrid_exact_devices(self, region_stats):
        result = _run(n_devices=64, cell_devices=16, region_devices=16,
                      seed=0, exact_devices=16)
        assert result.extras["background_completions"] > 0
        assert _pins(result, region_stats) == (
            "e446958fa83d3a30598730af2949281e",
            "d72b2fbb7a449930883e9ad42e38a790",
            "56f7b0f32d4f0340b54bdc612ea5eb56")
