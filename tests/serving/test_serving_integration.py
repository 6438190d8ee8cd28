"""Serving end-to-end: grouping invariance, the fig19 knee, and the
unarmed byte-identity contract.

Two halves of one promise:

- *Armed*: background serving traffic merged into a sharded swarm run
  is a pure function of ``(seed, spec)`` — identical rows and serving
  ledgers at any ``(shards, cloud_shards)`` worker grouping.
- *Unarmed*: no ``REPRO_SERVING`` means none of this code runs, pinned
  by md5 digests of three seed figures' rows (recomputed digests must
  match a pristine pre-serving checkout exactly).
"""

import hashlib

import pytest

from repro.platforms import platform_config
from repro.sim.shard import run_sharded
from tests.sim.test_shard_determinism import result_bytes, scenario_variant

N_DEVICES = 16
CELL_DEVICES = 4
SERVING_SPEC = "poisson:40,onoff:20:flash"

#: Worker groupings that must merge to identical rows *and* identical
#: serving ledgers (the load is generated once in the driver).
SERVING_COMBOS = ((1, 1), (2, 2), (4, 3))


class TestArmedGroupingInvariance:
    def test_rows_and_ledgers_identical_across_groupings(self):
        scenario = scenario_variant("S1")
        config = platform_config("hivemind")
        reference = None
        for shards, cloud_shards in SERVING_COMBOS:
            result = run_sharded(config, scenario, N_DEVICES, seed=7,
                                 shards=shards, cell_devices=CELL_DEVICES,
                                 cloud_shards=cloud_shards,
                                 region_devices=8, serving=SERVING_SPEC)
            serving = result.extras["serving"]
            observed = (result_bytes(result), serving)
            if reference is None:
                reference = observed
                # The spec's two tenants were actually offered and the
                # pipeline completed background work for them.
                assert sorted(serving["tenants"]) == ["flash",
                                                      "poisson0"]
                assert serving["offered_calls"] > 0
                assert serving["served_calls"] > 0
                assert (serving["served_calls"]
                        + serving["shed_calls"]
                        <= serving["offered_calls"])
            else:
                assert observed == reference, (
                    f"serving rows differ at shards={shards}, "
                    f"cloud_shards={cloud_shards}")

    def test_serving_implies_cloud_tier(self):
        result = run_sharded(platform_config("hivemind"),
                             scenario_variant("S1"), N_DEVICES, seed=7,
                             cell_devices=CELL_DEVICES, region_devices=8,
                             serving="poisson:20")
        assert result.extras["cloud_shards"] >= 1
        assert result.extras["serving"]["offered_calls"] > 0

    def test_unarmed_run_has_no_serving_extras(self, monkeypatch):
        monkeypatch.delenv("REPRO_SERVING", raising=False)
        result = run_sharded(platform_config("hivemind"),
                             scenario_variant("S1"), N_DEVICES, seed=7,
                             shards=2, cell_devices=CELL_DEVICES,
                             cloud_shards=1, region_devices=8)
        assert "serving" not in result.extras

    def test_api_run_ignores_the_environment_spec(self, monkeypatch):
        # The CLI's --serving reaches figures through their own resolve;
        # run_sharded's shape is its arguments alone.
        monkeypatch.setenv("REPRO_SERVING", "poisson:20")
        result = run_sharded(platform_config("hivemind"),
                             scenario_variant("S1"), N_DEVICES, seed=7,
                             shards=2, cell_devices=CELL_DEVICES,
                             cloud_shards=1, region_devices=8)
        assert "serving" not in result.extras


class TestFig19:
    @pytest.fixture(scope="class")
    def figure(self):
        from repro.experiments import fig19_serving
        return fig19_serving.run(base_seed=0, duration_s=60.0,
                                 multipliers=(0.5, 2.4))

    def test_knee_shape(self, figure):
        sweep = figure.data["sweep"]
        below, beyond = sweep[0.5], sweep[2.4]
        assert below["shed_rate"] == 0.0
        assert beyond["shed_rate"] > 0.10
        assert beyond["p99_s"] > below["p99_s"]
        # Admission keeps the tail bounded instead of letting the
        # open-loop queue grow without limit: the gate's delay bound
        # (2 s) plus one service time caps p999 well under the ~36 s
        # an unshed 2.4x overload would accumulate by end of run.
        assert beyond["p999_s"] < 10.0

    def test_flash_crowd_reacts(self, figure):
        flash = figure.data["flash"]
        assert flash["autoscaled"]["scale_outs"] >= 1
        reaction = flash["autoscaled"]["reaction_s"]
        assert reaction is not None
        # Reaction includes the 8 s provisioning lead; it cannot beat
        # it, and a healthy controller decides within a few seconds.
        assert 8.0 <= reaction < 20.0
        assert flash["static"]["reaction_s"] is None

    def test_two_runs_are_byte_identical(self, figure):
        from repro.experiments import fig19_serving
        again = fig19_serving.run(base_seed=0, duration_s=60.0,
                                  multipliers=(0.5, 2.4))
        assert again.rows == figure.rows
        assert again.data == figure.data


def _rows_digest(result) -> str:
    return hashlib.md5(repr(result.rows).encode()).hexdigest()


class TestUnarmedFigureRows:
    """Seed figures' rows, pinned by digest, with every serving/scale
    flag cleared — these digests were verified identical against a
    pristine pre-serving checkout, so any drift means the unarmed path
    is no longer byte-identical."""

    @pytest.fixture(autouse=True)
    def clear_flags(self, monkeypatch):
        for var in ("REPRO_SERVING", "REPRO_SHARDS", "REPRO_CLOUD_SHARDS"):
            monkeypatch.delenv(var, raising=False)

    def test_fig01_rows_unchanged(self):
        from repro.experiments import fig01_treasure_hunt
        result = fig01_treasure_hunt.run(repeats=1, n_small=8,
                                         n_large=16)
        assert _rows_digest(result) == "0efe06293517adbf99dc0ae1225a2d2f"

    def test_fig11_rows_unchanged(self):
        from repro.experiments import fig11_performance
        result = fig11_performance.run(duration_s=10.0)
        assert _rows_digest(result) == "8db633cbcfbe6c0d73682e6f013c9cec"

    def test_fig17b_rows_unchanged(self):
        from repro.experiments import fig17_scalability
        result = fig17_scalability.run_swarm_size(
            sizes=(16, 32), include_centralized_upto=16)
        assert _rows_digest(result) == "bd617f558dc16f246b1e0ae7a8042146"
