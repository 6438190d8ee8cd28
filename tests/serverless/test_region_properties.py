"""Property tests for the regional tier's sorted pools and wire form.

The core pools of :class:`~repro.serverless.region.RegionGateway` and
the autoscaler's readiness list are sorted lists that answer busy and
ready counts by bisection; these properties hold each count equal to a
brute-force scan. :class:`~repro.sim.shard.CloudCall` crosses worker
pipes in a positional wire form; it must round-trip every optional
field and carry no attribute names.
"""

from __future__ import annotations

import heapq
import pickle
from bisect import bisect_right
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import SCENARIO_A
from repro.config import DEFAULT
from repro.platforms import platform_config
from repro.serverless.region import RegionGateway
from repro.serving import AutoscaleConfig, InvokerAutoscaler
from repro.sim.shard import CloudCall

times = st.floats(min_value=0.0, max_value=1e3, allow_nan=False)


class TestSortedCorePools:
    @settings(max_examples=200, deadline=None)
    @given(free=st.lists(times, min_size=1, max_size=60), t=times)
    def test_utilization_equals_scan(self, free, t):
        gateway = RegionGateway(
            platform_config("hivemind"), SCENARIO_A, DEFAULT, region=0,
            n_regions=1, region_devices=16, total_devices=16)
        gateway._core_free[0] = sorted(free)
        busy = sum(1 for at in free if at > t)
        assert gateway._utilization(0, t) == busy / gateway._cores

    @settings(max_examples=200, deadline=None)
    @given(free=st.lists(times, min_size=1, max_size=60), t=times)
    def test_busy_after_grant_equals_scan(self, free, t):
        # The interference count of one core grant: the granted core
        # plus every other core still busy at the grant instant, against
        # a min-heap pop and a scan of the remaining cores.
        heap = list(free)
        heapq.heapify(heap)
        scan_grant = max(heapq.heappop(heap), t)
        pool = sorted(free)
        grant = max(pool.pop(0), t)
        assert grant == scan_grant
        assert (1 + len(pool) - bisect_right(pool, grant)
                == 1 + sum(1 for at in heap if at > grant))


class TestAutoscalerReadiness:
    @settings(max_examples=200, deadline=None)
    @given(steps=st.lists(
        st.tuples(st.floats(0.0, 20.0), st.integers(0, 400)),
        min_size=1, max_size=80),
        probes=st.lists(st.floats(0.0, 2e3), max_size=10),
        provision=st.floats(0.0, 30.0))
    def test_active_equals_scan(self, steps, probes, provision):
        scaler = InvokerAutoscaler(
            AutoscaleConfig(scale_out_backlog=8, scale_in_idle_s=5.0,
                            cooldown_s=2.0, provision_s=provision),
            n_servers=8, cores_per_server=4)
        t = 0.0
        for gap, backlog in steps:
            t += gap
            scaler.observe(t, backlog)
            ready = scaler._ready_at
            assert ready == sorted(ready)
            for probe in [t, *probes]:
                count = sum(1 for at in ready if at <= probe)
                assert scaler.active(probe) == min(
                    scaler.max_servers, scaler.min_servers + count)

    def test_time_going_backwards_is_rejected(self):
        scaler = InvokerAutoscaler(AutoscaleConfig(), n_servers=4,
                                   cores_per_server=2)
        scaler.observe(5.0, backlog=0)
        scaler.observe(5.0, backlog=0)  # equal instants are fine
        with pytest.raises(ValueError, match="back in time"):
            scaler.observe(4.0, backlog=0)


breakdowns = st.none() | st.dictionaries(
    st.sampled_from(["management", "data_io", "execution", "network"]),
    st.floats(0.0, 10.0), min_size=1)


class TestCloudCallWireForm:
    @settings(max_examples=200, deadline=None)
    @given(tenant=st.none() | st.text("XYZ", min_size=1, max_size=8),
           shed=st.booleans(), synthetic=st.booleans(),
           recognition_s=st.none() | st.floats(0.0, 5.0),
           dedup_s=st.none() | st.floats(0.0, 5.0),
           edge=breakdowns, cloud=breakdowns,
           completion_s=st.none() | times)
    def test_round_trip_without_field_names(
            self, tenant, shed, synthetic, recognition_s, dedup_s, edge,
            cloud, completion_s):
        call = CloudCall(
            cell=3, seq=7, device_id="drone-3", arrival_s=1.25,
            recognition_s=recognition_s, dedup_s=dedup_s, input_mb=2.0,
            output_mb=0.1, start_s=1.0, edge_done_s=2.0,
            edge_breakdown=edge, completion_s=completion_s,
            cloud_breakdown=cloud, region=1, synthetic=synthetic,
            weight=2.5, tenant=tenant, shed=shed)
        wire = pickle.dumps(call, protocol=pickle.HIGHEST_PROTOCOL)
        assert pickle.loads(wire) == call
        for field in fields(CloudCall):
            assert field.name.encode() not in wire
