"""Sharded runtime determinism: byte-identical results at any shard count.

The contract of ``repro.sim.shard`` is that the cell decomposition — and
therefore every RNG stream, every merge, every output row — depends only
on ``(n_devices, cell_devices, seed)``, never on how many shard workers
the cells are scheduled onto. These tests pin that with exact ``==``
across 1/2/4 shards for S1-S3 recognition workloads, and pin the unarmed
path (no ``REPRO_SHARDS``) to the seed's frozen observables.
"""

import dataclasses

import pytest

from repro.apps import SCENARIO_A
from repro.apps.suite import SUITE
from repro.config import DEFAULT
from repro.platforms import platform_config
from repro.sim.shard import (DEFAULT_WINDOW_S, plan_cells, resolve_window,
                             run_sharded)

N_DEVICES = 16
CELL_DEVICES = 4  # four cells, so 1/2/4 shards all divide the work


def scenario_variant(app_key):
    """SCENARIO_A's flight/field shell around one suite recognition app."""
    return dataclasses.replace(
        SCENARIO_A, key=f"ScA-{app_key}", recognition=SUITE[app_key])


def result_bytes(result):
    """Everything observable, exactly."""
    return (
        tuple(result.task_latencies.values),
        tuple(result.task_latencies.times),
        result.extras["makespan_s"],
        result.duration_s,
        tuple(result.wireless_meter.events),
        result.extras["targets"],
        result.extras["cloud_completions"],
    )


class TestShardCountInvariance:
    @pytest.mark.parametrize("app_key", ["S1", "S2", "S3"])
    def test_rows_identical_at_1_2_4_shards(self, app_key):
        scenario = scenario_variant(app_key)
        config = platform_config("hivemind")
        reference = None
        for shards in (1, 2, 4):
            result = run_sharded(config, scenario, N_DEVICES, seed=0,
                                 shards=shards, cell_devices=CELL_DEVICES)
            observed = result_bytes(result)
            if reference is None:
                reference = observed
            else:
                assert observed == reference, (
                    f"{app_key}: rows differ at {shards} shards")


#: (shards, cloud_shards) worker-grouping combinations — regions are a
#: pure function of the plan, so every armed combo must merge to the
#: exact same rows.
CLOUD_COMBOS = ((1, 1), (2, 1), (2, 2), (4, 2))


class TestCloudShardInvariance:
    """Armed cloud tier: rows identical at any (shards, cloud_shards)."""

    @pytest.mark.parametrize("app_key", ["S1", "S2", "S3"])
    def test_rows_identical_across_combos(self, app_key):
        scenario = scenario_variant(app_key)
        config = platform_config("hivemind")
        reference = None
        for shards, cloud_shards in CLOUD_COMBOS:
            result = run_sharded(config, scenario, N_DEVICES, seed=0,
                                 shards=shards, cell_devices=CELL_DEVICES,
                                 cloud_shards=cloud_shards,
                                 region_devices=8)
            observed = result_bytes(result)
            if reference is None:
                reference = observed
            else:
                assert observed == reference, (
                    f"{app_key}: rows differ at shards={shards}, "
                    f"cloud_shards={cloud_shards}")

    def test_region_stats_surface_in_extras(self):
        result = run_sharded(platform_config("hivemind"),
                             scenario_variant("S1"), N_DEVICES, seed=0,
                             shards=2, cell_devices=CELL_DEVICES,
                             cloud_shards=2, region_devices=8)
        assert result.extras["cloud_regions"] == 2
        assert result.extras["cloud_shards"] == 2
        assert result.extras["warm_starts"] + result.extras[
            "cold_starts"] > 0

    def test_negative_cloud_shards_rejected(self):
        with pytest.raises(ValueError):
            run_sharded(platform_config("hivemind"),
                        scenario_variant("S1"), N_DEVICES,
                        cloud_shards=-1)


class TestHybridDeterminism:
    """Hybrid exact/mean-field runs: fixed seed -> fixed rows."""

    def test_same_seed_same_rows_any_grouping(self):
        scenario = scenario_variant("S1")
        config = platform_config("hivemind")
        a = run_sharded(config, scenario, 64, seed=0, shards=2,
                        cell_devices=16, exact_devices=16,
                        region_devices=32)
        b = run_sharded(config, scenario, 64, seed=0, shards=1,
                        cell_devices=16, exact_devices=16,
                        region_devices=32)
        assert result_bytes(a) == result_bytes(b)
        # The exact focus carries the rows; the background swarm shows
        # up in the synthetic cloud counters.
        assert a.extras["exact_devices"] == 16
        assert a.extras["meanfield_cells"] == 3
        assert a.extras["background_completions"] > 0

    def test_hybrid_auto_arms_cloud_tier(self):
        result = run_sharded(platform_config("hivemind"),
                             scenario_variant("S1"), 32, seed=0,
                             cell_devices=16, exact_devices=16,
                             region_devices=32)
        assert result.extras["cloud_shards"] == 1

    def test_monolithic_gateway_rejects_synthetic_calls(self):
        from repro.serverless.gateway import CloudGateway
        from repro.serverless.wire import Calls
        gateway = CloudGateway(platform_config("hivemind"), SCENARIO_A,
                               DEFAULT, n_devices=16)
        for tenant in (-1, 0):
            calls = Calls.build(0, [0], 1.0, 0.1, None, 1.0, 0.1,
                                synthetic=True, tenant=tenant)
            with pytest.raises(RuntimeError, match="synthetic"):
                gateway.serve(calls, 1.0)

    def test_hybrid_needs_positive_exact_devices(self):
        with pytest.raises(ValueError):
            run_sharded(platform_config("hivemind"),
                        scenario_variant("S1"), 32, exact_devices=0)

    def test_seed_changes_rows(self):
        scenario = scenario_variant("S1")
        config = platform_config("hivemind")
        a = run_sharded(config, scenario, N_DEVICES, seed=0,
                        shards=2, cell_devices=CELL_DEVICES)
        b = run_sharded(config, scenario, N_DEVICES, seed=1,
                        shards=2, cell_devices=CELL_DEVICES)
        assert result_bytes(a) != result_bytes(b)


class TestCellPlan:
    def test_plan_is_shard_count_free(self):
        specs = plan_cells(130, seed=5, cell_devices=64)
        assert [s.n_devices for s in specs] == [64, 64, 2]
        assert [s.device_id_base for s in specs] == [0, 64, 128]
        assert [s.seed for s in specs] == [5, 1005, 2005]


class TestUnarmedPath:
    """No scale-out knob armed -> the seed's exact numbers."""

    def test_unarmed_swarm_cell_matches_seed(self, monkeypatch):
        for var in ("REPRO_SHARDS", "REPRO_CLOUD_SHARDS", "REPRO_SERVING"):
            monkeypatch.delenv(var, raising=False)
        from repro.experiments.fig17_scalability import _swarm_cell
        # Frozen seed observables (hivemind, Scenario A, 16 devices,
        # seed 0) — any drift here means the unarmed path changed.
        assert _swarm_cell("hivemind", "ScA", 16, 0) == (
            70.06315789473685, 1.299728340651617, 56.07499999999999)

    def test_window_resolution(self):
        assert resolve_window(DEFAULT) == DEFAULT_WINDOW_S
        assert resolve_window(DEFAULT, 90.0) == 90.0
        with pytest.raises(ValueError, match="positive"):
            resolve_window(DEFAULT, 0.0)
