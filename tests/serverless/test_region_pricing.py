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

The breakdown pins (``_breakdown_digest``: the straggler case and
``TestBreakdownPins``) digest the merged breakdown records, which
neither the rows nor the benchmark's rows digest cover: each is the md5
of an ``(n, 4)`` float64 array in row order, recorded before the region
priced with plain float sums instead of ``LatencyBreakdown`` charges.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math

import numpy as np
import pytest

from repro import apps
from repro.config import DEFAULT
from repro.faults import FaultPlan
from repro.platforms import platform_config
from repro.serverless.region import RegionGateway
from repro.serverless.wire import Calls
from repro.serving import AutoscaleConfig, ServingConfig, parse_serving_spec
from repro.sim import supervisor
from repro.sim.shard import run_sharded
from repro.telemetry import breakdown_array
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


def _breakdown_digest(result) -> str:
    records = breakdown_array(result.breakdowns._records)
    return hashlib.md5(np.ascontiguousarray(
        records, dtype=np.float64).tobytes()).hexdigest()


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
        assert _breakdown_digest(result) == (
            "20bb392077b2930ebbc37344303eaf48")

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


class TestBreakdownPins:
    def test_serving_flash(self):
        # The serving-flash benchmark workload at seed 0.
        result = run_sharded(platform_config("hivemind"), apps.SCENARIO_A,
                             64, seed=0, shards=2, cloud_shards=2,
                             serving="poisson:200:bg,onoff:100:crowd")
        assert _breakdown_digest(result) == (
            "e0aa63e00965d45e7b969b8e3fb5e868")

    @pytest.mark.slow
    def test_fleet_1024(self):
        # The fleet-1024 benchmark workload at seed 0.
        result = run_sharded(platform_config("hivemind"), apps.SCENARIO_B,
                             1024, seed=0, shards=2, cloud_shards=2)
        assert _breakdown_digest(result) == (
            "25c25394910e46e74c0d87afe6040466")


def _gateway(section="serverless", **fields):
    constants = dataclasses.replace(DEFAULT, **{
        section: dataclasses.replace(getattr(DEFAULT, section), **fields)})
    return RegionGateway(platform_config("hivemind"), apps.SCENARIO_A,
                         constants, region=0, n_regions=1,
                         region_devices=16, total_devices=16)


class TestStageCostValidation:
    """The pricer adds plain floats, so a stage cost that could make a
    breakdown negative or non-finite is refused up front."""

    @pytest.mark.parametrize("value", [-1e-3, math.nan, math.inf])
    @pytest.mark.parametrize("section,name", [
        ("serverless", "frontend_latency_s"), ("serverless", "auth_check_s"),
        ("serverless", "controller_decision_s"),
        ("serverless", "controller_service_s"),
        ("serverless", "inmem_latency_s"), ("serverless", "couchdb_handle_s"),
        ("serverless", "couchdb_latency_s"), ("serverless", "kafka_hop_s"),
        ("serverless", "warm_start_s"), ("accel", "remote_mem_latency_s")])
    def test_bad_fixed_stage_cost_is_refused(self, section, name, value):
        with pytest.raises(ValueError,
                           match=rf"{section}\.{name} must be finite and "
                                 "non-negative"):
            _gateway(section, **{name: value})

    @pytest.mark.parametrize("value", [0.0, -1.0, math.nan, math.inf])
    @pytest.mark.parametrize("section,name", [
        ("serverless", "inmem_mbs"), ("serverless", "couchdb_mbs"),
        ("accel", "remote_mem_mbs")])
    def test_bad_transfer_rate_is_refused(self, section, name, value):
        with pytest.raises(ValueError,
                           match=rf"{section}\.{name} must be finite and "
                                 "positive"):
            _gateway(section, **{name: value})

    def test_zero_costs_are_accepted(self):
        _gateway(frontend_latency_s=0.0, warm_start_s=0.0)
        _gateway("accel", remote_mem_latency_s=0.0)

    def test_negative_service_is_refused(self):
        calls = Calls.build(cell=0, seq=[0], arrival_s=1.0,
                            recognition_s=-0.5, dedup_s=None, input_mb=1.0,
                            output_mb=1.0)
        with pytest.raises(ValueError, match="negative service"):
            _gateway().serve(calls)
