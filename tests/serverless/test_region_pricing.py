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

``TestStartCountLaw`` checks that every start is one priced stage or
duplicate, and ``TestPlacementEquivalence`` holds the cached healthy
list and the warm-server index to the per-call scan they replaced,
kept here as ``_ReferenceGateway``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import apps
from repro.config import DEFAULT
from repro.platforms import platform_config
from repro.serverless.region import _STALE, RegionGateway
from repro.serverless.wire import Calls
from repro.serving import (AutoscaleConfig, ServingConfig, ServingPolicy,
                           parse_serving_spec)
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
            "f35a06df72bfe7d3d645d09bd7076590")
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
            "c931afc3aa0205fa0be598207193eb4a")

    def test_hybrid_exact_devices(self, region_stats):
        result = _run(n_devices=64, cell_devices=16, region_devices=16,
                      seed=0, exact_devices=16)
        assert result.extras["background_completions"] > 0
        assert _pins(result, region_stats) == (
            "e446958fa83d3a30598730af2949281e",
            "d72b2fbb7a449930883e9ad42e38a790",
            "dad581ec78031fde8aa50ae06cd1c153")


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


@pytest.fixture
def stage_calls(monkeypatch, region_stats):
    """Have every region count the calls it served with a recognition
    stage, with a dedup stage and with both, and report the counts in
    its ``stats()`` (read back through ``region_stats``)."""
    serve, stats = RegionGateway.serve, RegionGateway.stats

    def counting(self, calls):
        done = serve(self, calls)
        served = done.rows_for(calls.cell, calls.seq) >= 0
        recognition = ~np.isnan(calls.recognition_s[served])
        dedup = ~np.isnan(calls.dedup_s[served])
        if self.dedup_spec is None:
            dedup[:] = False  # no dedup function to price
        counts = vars(self).setdefault("stage_calls", Counter())
        counts.update(recognition=int(recognition.sum()),
                      dedup=int(dedup.sum()),
                      both=int((recognition & dedup).sum()))
        return done

    def reporting(self):
        out = stats(self)
        out["stage_calls"] = dict(vars(self).get("stage_calls", {}))
        return out

    monkeypatch.setattr(RegionGateway, "serve", counting)
    monkeypatch.setattr(RegionGateway, "stats", reporting)

    def total():
        calls = Counter()
        for region in region_stats.values():
            calls.update(region["stage_calls"])
        return calls

    return total


def _starts_close(result, calls):
    """Every priced invocation is one cold or warm start: one per
    recognition stage, one per dedup stage, one per duplicate."""
    extras = result.extras
    assert (extras["cold_starts"] + extras["warm_starts"]
            == calls["recognition"] + calls["dedup"]
            + extras["duplicate_launches"])


class TestStartCountLaw:
    def test_straggler_case(self, stage_calls):
        result = _run(seed=0)
        assert result.extras["duplicate_launches"] > 0
        _starts_close(result, stage_calls())

    def test_serving_flash(self, stage_calls):
        result = run_sharded(platform_config("hivemind"), apps.SCENARIO_A,
                             64, seed=0, shards=2, cloud_shards=2,
                             serving="poisson:200:bg,onoff:100:crowd")
        assert result.extras["serving"]["shed_calls"] > 0
        _starts_close(result, stage_calls())

    @pytest.mark.slow
    def test_hybrid_100k(self, stage_calls):
        # Rows plus background completions undercount the starts by the
        # calls that carry both stages: 14,635 one-stage calls + 2 x 26
        # two-stage calls + 149 duplicates = 14,836 starts.
        result = run_sharded(platform_config("hivemind"), apps.SCENARIO_B,
                             100_000, seed=0, shards=2, cloud_shards=2,
                             exact_devices=256)
        calls = stage_calls()
        _starts_close(result, calls)
        assert calls["both"] == 26
        assert result.extras["duplicate_launches"] == 149
        assert (result.extras["cold_starts"]
                + result.extras["warm_starts"]) == 14_836


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


# -- placement equivalence -------------------------------------------------

class _ReferenceGateway(RegionGateway):
    """Placement as a scan: the healthy list rebuilt on every call and
    every candidate's warm pool reaped and read in turn. This is the
    placement ``RegionGateway`` had before it cached the healthy list
    and indexed warm servers, kept here only."""

    def _healthy(self, t):
        limit = self._n_servers
        if self._serving is not None and self._serving.autoscaler is not None:
            limit = max(1, min(limit, self._serving.autoscaler.active(t)))
        healthy = [s for s in range(limit)
                   if self._probation_until[s] <= t]
        return healthy or list(range(limit))

    def _warm_available(self, server, image, t):
        pool = self._warm[server].get(image)
        if not pool:
            return False
        self._reap(server, pool, t)
        return pool["live"] > 0

    def _place(self, spec, t, parent):
        if self.config.scheduler == "hivemind" and parent is not None:
            parent_server, parent_record = parent
            if (self._probation_until[parent_server] <= t
                    and not parent_record[2]
                    and parent_record[3] == spec.image
                    and parent_record[1] > t and parent_record[0] <= t):
                parent_record[2] = True
                self._warm[parent_server][spec.image]["live"] -= 1
                return parent_server, parent_record
        candidates = self._healthy(t)
        for server in candidates:
            if (self._warm_available(server, spec.image, t)
                    and self._utilization(server, t) < 1.0):
                return server, None
        utilization = [self._utilization(s, t) for s in candidates]
        best = min(utilization)
        tied = [s for s, u in zip(candidates, utilization) if u == best]
        chosen = tied[self._rotation % len(tied)]
        self._rotation += 1
        return chosen, None


#: Four servers of two cores: full servers and ties are common.
_SERVERS = 4

_instants = st.floats(0.0, 30.0)
_services = st.floats(0.01, 4.0)
#: A stage's service time, or None (no such stage) a third of the time.
_stage = st.none() | _services | _services
#: A probation window ``(start, server, length)``; length 0 is for good.
_probation = st.tuples(_instants, st.integers(0, _SERVERS - 1),
                   st.sampled_from([0.0, 1.0]) | st.floats(0.5, 10.0))
#: One call priced from its arrival; arrivals come in any order.
_call = st.tuples(st.just("call"), _instants, _stage, _stage,
                  st.floats(0.0, 5.0), st.booleans())
_op = st.one_of(
    _call, _call, _call,
    # Straggler strikes on one server, enough of them to start a
    # probation or not.
    st.tuples(st.just("strike"), _instants,
              st.integers(0, _SERVERS - 1), st.integers(1, 3)),
    # The serving gate's observation clock moves forward: the
    # autoscaler may scale out or in.
    st.tuples(st.just("observe"), st.floats(0.0, 6.0)))


def _placement_gateway(cls, probation_s, keepalive_s, shared_image,
                       autoscale):
    constants = dataclasses.replace(
        DEFAULT,
        cluster=dataclasses.replace(DEFAULT.cluster, servers=_SERVERS,
                                    cores_per_server=2),
        control=dataclasses.replace(DEFAULT.control,
                                    probation_s=probation_s))
    config = dataclasses.replace(platform_config("hivemind"),
                                 container_keepalive_s=keepalive_s)
    serving = None
    if autoscale:
        serving = ServingPolicy(
            ServingConfig(tenants=parse_serving_spec("poisson:10"),
                          admission_enabled=False,
                          autoscale=AutoscaleConfig(
                              scale_out_backlog=1, scale_in_idle_s=1.0,
                              cooldown_s=0.5, provision_s=1.5)),
            n_servers=_SERVERS, cores_per_server=2)
    gateway = cls(config, apps.SCENARIO_B, constants, region=0,
                  n_regions=1, region_devices=16, total_devices=16,
                  seed=3, serving=serving)
    # A short watchdog history, so duplicates launch in short streams.
    gateway._min_history = 3
    if shared_image:
        # A dedup sharing the recognition's image, so the parent's very
        # container can be claimed (SCENARIO_B's images differ).
        gateway.dedup_spec = dataclasses.replace(
            gateway.dedup_spec, image=gateway.recognition_spec.image)
    return gateway


def _put_on_probation(gateway, probations):
    """Hold each ``(start, server, length)`` server on probation until
    ``start + length``, or for good when ``length`` is 0; overlapping
    windows keep the later end. A gateway keeps one end per server, so
    the server is off placement at every instant before it."""
    for start, server, length in probations:
        until = math.inf if length == 0 else start + length
        gateway._probation_until[server] = max(
            gateway._probation_until[server], until)
    gateway._healthy_span = _STALE


def _decisions(gateway):
    """Record each placement as ``(task, t, server, parent claimed,
    rotation after)``."""
    log = []
    place = gateway._place

    def recorded(spec, t, parent):
        server, container = place(spec, t, parent)
        log.append((spec.name, t, server, container is not None,
                    gateway._rotation))
        return server, container

    gateway._place = recorded
    return log


def _step(gateway, op, observed):
    """Apply one op; a call returns its priced outcome."""
    if op[0] == "call":
        _, at, recognition_s, dedup_s, output_mb, synthetic = op
        return gateway._serve(
            at, math.nan if recognition_s is None else recognition_s,
            math.nan if dedup_s is None else dedup_s, output_mb, synthetic)
    if op[0] == "strike":
        _, at, server, count = op
        for _ in range(count):
            gateway._strike(server, at)
    elif gateway._serving is not None:
        gateway._admit(observed, None, 1.0)
    return None


class TestPlacementEquivalence:
    """The cached healthy list and the warm-server index place every
    call where the per-call scan does."""

    @settings(max_examples=150, deadline=None)
    @given(ops=st.lists(_op, min_size=30, max_size=120),
           probations=st.lists(_probation, max_size=4),
           all_down=st.booleans(),
           probation_s=st.sampled_from([180.0]) | st.floats(0.5, 8.0),
           keepalive_s=st.sampled_from([20.0]) | st.floats(0.2, 3.0),
           shared_image=st.booleans(), autoscale=st.booleans())
    def test_decisions_match_the_scan(self, ops, probations, all_down,
                                      probation_s, keepalive_s,
                                      shared_image, autoscale):
        if all_down:
            # Every server is down at once: placement falls back to the
            # whole pool until the first one is back.
            probations = probations + [(5.0, server, 4.0 + server)
                                       for server in range(_SERVERS)]
        gateways = [_placement_gateway(cls, probation_s, keepalive_s,
                                       shared_image, autoscale)
                    for cls in (RegionGateway, _ReferenceGateway)]
        for gateway in gateways:
            _put_on_probation(gateway, probations)
        logs = [_decisions(gateway) for gateway in gateways]
        observed = 0.0
        for op in ops:
            if op[0] == "observe":
                observed += op[1]
            outcomes = [_step(gateway, op, observed) for gateway in gateways]
            assert logs[0] == logs[1]
            assert outcomes[0] == outcomes[1]
        new, reference = gateways
        assert new._rotation == reference._rotation
        assert new.stats() == reference.stats()
        for image, servers in new._warm_servers.items():
            assert servers == {
                server for server in range(_SERVERS)
                if new._warm[server].get(image, {}).get("live", 0) > 0}

    def test_every_server_on_probation_falls_back_to_the_pool(self):
        gateway = _placement_gateway(RegionGateway, 180.0, 20.0, False,
                                     False)
        _put_on_probation(gateway, [(1.0, server, 2.0 + server)
                                    for server in range(_SERVERS)])
        # Probations end at 3, 4, 5 and 6 s.
        assert gateway._healthy(0.5) == [0, 1, 2, 3]
        assert gateway._healthy(1.5) == [0, 1, 2, 3]  # all down
        assert gateway._healthy(4.5) == [0, 1]
        # Back in time, inside the all-down window again.
        assert gateway._healthy(2.9) == [0, 1, 2, 3]
        assert gateway._healthy(3.0) == [0]
        assert gateway._healthy(6.0) == [0, 1, 2, 3]
