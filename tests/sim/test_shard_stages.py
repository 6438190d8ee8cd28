"""The sharded driver's stages: ``plan_run`` → ``sync`` → ``merge``.

``merge`` and ``plan_run`` are pure, so they are tested here on
hand-built inputs with no worker. The monolithic gateway path is pinned
by md5 digests recorded before the two cloud tiers were given one shape,
and ``plan_cells``'s region layout rule is checked.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.apps import SCENARIO_A
from repro.config import DEFAULT
from repro.platforms import platform_config
from repro.platforms.base import RunResult
from repro.serverless.gateway import CloudGateway
from repro.serverless.region import RegionGateway
from repro.serverless.wire import Calls, Completions
from repro.sim import shard
from repro.sim.shard import (CellBoundary, merge, plan_cells, plan_run,
                             run_sharded)
from repro.telemetry import (BandwidthMeter, BreakdownAggregate,
                             LatencyBreakdown, MetricSeries,
                             breakdown_array)
from tests.serverless.test_region_pricing import HOST_KEYS, _digest
from tests.sim.test_shard_determinism import result_bytes, scenario_variant

CONFIG = platform_config("hivemind")


def _run(**kwargs):
    return run_sharded(CONFIG, scenario_variant("S1"), 16, shards=2,
                       cell_devices=4, **kwargs)


# -- monolithic gateway pins ---------------------------------------------

@pytest.fixture
def gateways(monkeypatch):
    """Every CloudGateway a run finishes."""
    seen = []
    finish = CloudGateway.finish

    def recording(self):
        seen.append(self)
        return finish(self)

    monkeypatch.setattr(CloudGateway, "finish", recording)
    return seen


def _pins(result):
    extras = {key: value for key, value in result.extras.items()
              if key not in HOST_KEYS}
    return _digest(result_bytes(result)), _digest(sorted(extras.items()))


class TestMonolithicGatewayPins:
    """Edge-sharded runs (``cloud_shards=0``): rows and extras digests."""

    def test_straggler_mitigation(self, gateways):
        result = _run(seed=0)
        assert "cloud_regions" not in result.extras
        assert gateways[0]._cloud.mitigator.duplicates_launched > 0
        assert _pins(result) == ("c6897be87b2282ff4cce3ebe0a3b23f0",
                                 "45de7962625ce5e3e4da29ea88a3de14")


# -- one cloud-tier shape ------------------------------------------------

def _call(cell=0, seq=0, arrival_s=1.0, **kwargs):
    """One recognition-only call as a one-row batch."""
    return Calls.build(cell, [seq], arrival_s, 0.1, None, 1.0, 0.1,
                       **kwargs)


class TestGatewayShape:
    def test_serve_returns_completion_columns(self):
        gateway = CloudGateway(CONFIG, SCENARIO_A, DEFAULT, n_devices=16)
        assert len(gateway.serve(_call(cell=3, seq=7), 1.0).seq) == 0
        completions, stats = gateway.finish()
        [cell], [seq], [done_s] = (completions.cell, completions.seq,
                                   completions.done_s)
        [breakdown] = completions.breakdown
        assert (cell, seq) == (3, 7)
        assert done_s > 1.0
        # COMPONENTS order: management and execution are charged.
        assert breakdown[1] > 0 and breakdown[3] > 0
        assert stats == {0: gateway.stats()}
        assert stats[0]["completions"] == 1
        assert stats[0]["last_completion_s"] == done_s

    def test_late_message_rejected(self):
        gateway = CloudGateway(CONFIG, SCENARIO_A, DEFAULT, n_devices=16)
        gateway.serve(Calls.concat(()), 5.0)
        with pytest.raises(RuntimeError, match="late cloud message"):
            gateway.serve(_call(arrival_s=4.0), 6.0)


# -- merge on hand-built inputs ------------------------------------------

def _breakdown(**charges):
    breakdown = LatencyBreakdown()
    for component, seconds in charges.items():
        breakdown.charge(component, seconds)
    return breakdown


def _cell_result(local_rows, makespan_s=50.0):
    """A cell's RunResult with ``(time, latency)`` local rows."""
    latencies = MetricSeries("cell")
    breakdowns = BreakdownAggregate()
    for time, latency in local_rows:
        latencies.add(latency, time=time)
        breakdowns.add(_breakdown(execution=latency))
    return RunResult(
        platform="hivemind", workload="ScA", task_latencies=latencies,
        breakdowns=breakdowns, energy_accounts=[],
        wireless_meter=BandwidthMeter("wireless"), duration_s=makespan_s,
        extras={"makespan_s": makespan_s, "targets": 1,
                "recognition_tier": "cloud", "cloud_fraction": 1.0,
                "failed_devices": [], "items_found": 1})


def _edge_half(seq, start_s, edge_done_s):
    """A settled call's edge half: network time from start to done."""
    return (seq, start_s, edge_done_s,
            _breakdown(network=edge_done_s - start_s))


def _ledger(*halves):
    """The edge ledger a cell whose boundary settled ``halves`` ships."""
    boundary = CellBoundary(0)
    for half in halves:
        boundary.settle(*half)
    return boundary.ledger()


def _completions(*served):
    """Cloud-tier columns of ``(cell, seq, done_s, charges)`` calls."""
    if not served:
        return Completions.concat(())
    cells, seqs, done_s, charges = zip(*served)
    return Completions.build(cells, seqs, done_s, breakdown_array(
        [_breakdown(**each) for each in charges]))


def _stats(completions=1, last=0.0):
    return {0: {"completions": completions, "last_completion_s": last,
                "persisted_documents": 0, "cold_starts": 0}}


@pytest.fixture(scope="module")
def mono_plan():
    return plan_run(CONFIG, scenario_variant("S1"), 8, cell_devices=4)


class TestMerge:
    def test_local_rows_precede_deferred_rows_at_equal_start(self,
                                                             mono_plan):
        results = [(0, _cell_result([(5.0, 1.0)]),
                    _ledger(_edge_half(0, 5.0, 6.0))),
                   (1, _cell_result([(5.0, 3.0)]), _ledger())]
        merged = merge(mono_plan, results,
                       _completions((0, 0, 7.0, {"execution": 1.0})),
                       _stats(last=7.0))
        assert tuple(merged.task_latencies.times) == (5.0, 5.0, 5.0)
        # cell 0 local, cell 0 deferred, then cell 1 local.
        assert tuple(merged.task_latencies.values) == (1.0, 2.0, 3.0)

    def test_call_without_completion_raises(self, mono_plan):
        # A settled call the cloud tier never completed is a lost
        # completion, not a row to drop.
        results = [(0, _cell_result([]),
                    _ledger(_edge_half(0, 5.0, 6.0),
                            _edge_half(1, 6.0, 7.0))),
                   (1, _cell_result([]), _ledger())]
        with pytest.raises(ValueError,
                           match=r"\(cell=0, seq=0\) has no completion"):
            merge(mono_plan, results,
                  _completions((0, 1, 9.0, {"execution": 1.0})),
                  _stats(last=9.0))

    def test_latency_and_breakdown_join_both_halves(self, mono_plan):
        # Call 0's edge half finishes last, call 1's cloud half does.
        ledger = _ledger(_edge_half(0, 5.0, 9.0),
                         _edge_half(1, 6.0, 7.0))
        completions = _completions(
            (0, 0, 8.0, {"execution": 1.5}),
            (0, 1, 10.0, {"management": 0.25, "execution": 2.0}))
        merged = merge(mono_plan, [(0, _cell_result([]), ledger),
                                   (1, _cell_result([]), _ledger())],
                       completions, _stats(2, last=10.0))
        assert tuple(merged.task_latencies.values) == (9.0 - 5.0,
                                                       10.0 - 6.0)
        first, second = merged.breakdowns._records
        assert first == _breakdown(network=4.0, execution=1.5)
        assert second == _breakdown(network=1.0, management=0.25,
                                    execution=2.0)

    def test_makespan_covers_the_cloud_tail(self, mono_plan):
        results = [(0, _cell_result([], makespan_s=40.0), _ledger()),
                   (1, _cell_result([], makespan_s=45.0), _ledger())]
        merged = merge(mono_plan, results, _completions(),
                       _stats(0, last=60.0))
        assert merged.duration_s == merged.extras["makespan_s"] == 60.0
        merged = merge(mono_plan, results, _completions(),
                       _stats(0, last=30.0))
        assert merged.duration_s == 45.0

    def test_each_tier_keeps_its_extras_key_set(self, mono_plan):
        results = [(0, _cell_result([]), _ledger()),
                   (1, _cell_result([]), _ledger())]
        cell_keys = {"makespan_s", "targets", "recognition_tier",
                     "cloud_fraction", "tally", "failed_devices", "cells",
                     "shards", "shard_workers", "window_s", "items_found"}
        gateway = CloudGateway(CONFIG, SCENARIO_A, DEFAULT, n_devices=8)
        _, stats = gateway.finish()
        merged = merge(mono_plan, results, _completions(), stats)
        assert set(merged.extras) == cell_keys | {
            "cloud_completions", "cloud_makespan_s",
            "persisted_documents", "cold_starts"}

        regional_plan = plan_run(CONFIG, scenario_variant("S1"), 8,
                                 cell_devices=4, cloud_shards=1)
        region = RegionGateway(CONFIG, SCENARIO_A, DEFAULT, region=0,
                               n_regions=1, region_devices=8,
                               total_devices=8)
        merged = merge(regional_plan, results, _completions(),
                       {0: region.stats()})
        assert set(merged.extras) == cell_keys | {
            "cloud_completions", "cloud_makespan_s",
            "persisted_documents", "cold_starts", "warm_starts",
            "duplicate_launches", "background_completions",
            "cloud_regions", "cloud_shards", "cloud_shard_workers"}


# -- plan_run --------------------------------------------------------------

def _regions(plan):
    return sorted(pair for group in plan.region_groups for pair in group)


def _keys(calls):
    """Canonical ``(arrival_s, cell, seq)`` keys, in stream order."""
    return list(zip(calls.arrival_s.tolist(), calls.cell.tolist(),
                    calls.seq.tolist()))


class TestPlanRun:
    def test_grouping_never_changes_the_plan(self):
        plans = [plan_run(CONFIG, scenario_variant("S1"), 64, shards=shards,
                          cloud_shards=cloud_shards, cell_devices=8,
                          region_devices=16, exact_devices=16,
                          serving="poisson:20")
                 for shards, cloud_shards in ((1, 1), (2, 1), (2, 2),
                                              (4, 3))]
        reference = plans[0]
        for plan in plans[1:]:
            assert plan.cells == reference.cells
            assert _regions(plan) == _regions(reference)
            assert sorted(spec.index for group in plan.cell_groups
                          for spec in group) == [0, 1]
            assert ({region: _keys(calls) for region, calls
                     in plan.streams.by_region.items()}
                    == {region: _keys(calls) for region, calls
                        in reference.streams.by_region.items()})
        assert _regions(reference) == [(0, 16), (1, 16), (2, 16), (3, 16)]

    @pytest.mark.parametrize("arming", [
        {"exact_devices": 8},
        {"serving": "poisson:20"},
    ], ids=["hybrid", "serving"])
    def test_regional_tier_armed(self, arming):
        plan = plan_run(CONFIG, scenario_variant("S1"), 16, cell_devices=4,
                        region_devices=8, **arming)
        assert _regions(plan) == [(0, 8), (1, 8)]
        assert dict(plan.cloud_extras)["cloud_shards"] == 1

    @pytest.mark.parametrize("arming", [{}], ids=["quiet"])
    def test_monolithic_gateway_otherwise(self, arming):
        plan = plan_run(CONFIG, scenario_variant("S1"), 16, cell_devices=4,
                        region_devices=8, **arming)
        assert plan.region_groups == ()
        assert plan.cloud_extras == ()

    @pytest.mark.parametrize("keyword", ["fault_plan", "shard"])
    def test_unknown_keyword_fails_before_any_worker(self, monkeypatch,
                                                     keyword):
        # A simulated fault plan is no sharded option, and a typo must
        # not reach the forked cell workers: both fail in the caller.
        built = []
        monkeypatch.setattr(shard, "SupervisedConnection",
                            lambda *args, **kwargs: built.append(args))
        with pytest.raises(TypeError, match=keyword):
            plan_run(CONFIG, scenario_variant("S1"), 16, cell_devices=4,
                     **{keyword: 2})
        with pytest.raises(TypeError, match=keyword):
            run_sharded(CONFIG, scenario_variant("S1"), 16, shards=2,
                        cell_devices=4, **{keyword: 2})
        assert built == []

    def test_plan_is_frozen(self, mono_plan):
        with pytest.raises(dataclasses.FrozenInstanceError):
            mono_plan.shards = 3


# -- region layout -------------------------------------------------------

class TestRegionLayout:
    """Regions are whole cells, so ids and counts agree."""

    def test_partial_cell_regions_rejected(self):
        with pytest.raises(ValueError, match="multiple of cell_devices"):
            plan_cells(201, cell_devices=64, region_devices=100)

    def test_sub_cell_regions_rejected_before_serving(self):
        with pytest.raises(ValueError, match="multiple of cell_devices"):
            run_sharded(CONFIG, SCENARIO_A, 128, cell_devices=64,
                        region_devices=32, cloud_shards=1,
                        serving="poisson:50")

    def test_cells_count_whole_regions(self):
        specs = plan_cells(256, cell_devices=64, region_devices=128)
        assert [spec.region for spec in specs] == [0, 0, 1, 1]

    def test_single_region_swarm_needs_no_whole_cells(self):
        specs = plan_cells(100, cell_devices=64, region_devices=512)
        assert {spec.region for spec in specs} == {0}
