"""Mean-field aggregate cells vs the exact runner.

The population model of ``repro.edge.meanfield`` is approximate by
design; its honesty contract is the sweep-validation tolerance band:
every observable (bandwidth mean, task p99, makespan) within 25% of the
discrete-event runner at small N, across both platforms and both
scenarios. The fast tier pins N ∈ {16, 64}; the slow tier adds 256
(exact 256-device runs cost seconds each). Flight geometry and
bit-reproducibility are exact, not banded.
"""

import pytest

from repro.config import DEFAULT
from repro.edge.meanfield import (flight_profile, predict_cell,
                                  validate_cells)


class TestFlightGeometry:
    def test_profile_matches_exact_tick_replay(self):
        profile = flight_profile(DEFAULT.scaled_for_swarm(64))
        # Frozen against the engine's tick loop on the 27.5 m x 27.5 m tile.
        assert profile.flight_s == pytest.approx(56.075)
        assert profile.batches == 39
        assert profile.n_turns == 9
        assert 0.0 < profile.first_capture_s < profile.last_capture_s
        assert profile.last_capture_s < profile.flight_s

    def test_tile_size_constant_across_swarm_sizes(self):
        # scaled_for_swarm grows the field with N, so the per-device
        # flight never changes — the invariant the O(1) model rests on.
        # (Non-square N leaves a sub-0.1% remainder in the tile aspect.)
        small = flight_profile(DEFAULT.scaled_for_swarm(16))
        large = flight_profile(DEFAULT.scaled_for_swarm(100_000))
        assert large.flight_s == pytest.approx(small.flight_s, rel=1e-3)
        assert large.batches == small.batches
        assert large.n_turns == small.n_turns


class TestPredictCell:
    def test_bit_reproducible(self):
        a = predict_cell("hivemind", "ScB", 4096)
        b = predict_cell("hivemind", "ScB", 4096)
        assert a.triple == b.triple

    def test_bandwidth_scales_with_devices(self):
        small = predict_cell("hivemind", "ScA", 16)
        large = predict_cell("hivemind", "ScA", 64)
        assert large.bandwidth_mbs == pytest.approx(
            4 * small.bandwidth_mbs, rel=0.01)

    def test_centralized_saturates_hivemind_does_not(self):
        # The fig17 story at 100k devices: centralized tail latency has
        # exploded; hivemind's stays within the same order of magnitude
        # as its 1k-device value.
        hive = predict_cell("hivemind", "ScA", 100_000)
        central = predict_cell("centralized_faas", "ScA", 100_000)
        assert central.task_p99_s > 10 * hive.task_p99_s
        assert central.makespan_s > 10 * hive.makespan_s

    def test_million_device_cell_is_cheap(self):
        from repro.sim.kernel import events_consumed
        before = events_consumed()
        cell = predict_cell("hivemind", "ScB", 1_000_000)
        assert events_consumed() == before  # zero kernel events
        assert cell.bandwidth_mbs > 0
        assert cell.makespan_s > cell.details["flight_s"] - 1e-9

    def test_unknown_platform_rejected(self):
        with pytest.raises(ValueError, match="unknown platform"):
            predict_cell("no_such_platform", "ScA", 16)


class TestParityBand:
    @pytest.mark.parametrize("n", [16, 64])
    def test_within_tolerance_small_n(self, n):
        rows = validate_cells(sizes=(n,), tolerance_pct=25.0)
        assert len(rows) == 4  # 2 platforms x 2 scenarios
        bad = [r for r in rows if not r["within"]]
        assert not bad, f"outside the 25% band: {bad}"

    @pytest.mark.slow
    def test_within_tolerance_256(self):
        rows = validate_cells(sizes=(256,), tolerance_pct=25.0)
        bad = [r for r in rows if not r["within"]]
        assert not bad, f"outside the 25% band: {bad}"


class TestHybridAnchor:
    """Hybrid exact/mean-field runs inherit the 25% honesty band.

    A hybrid run keeps a small exact focus and replaces the rest of the
    fleet with calibrated synthetic streams, so its observables must
    track a fully exact run of the same fleet no worse than the pure
    mean-field model does.
    """

    def test_hybrid_within_band_of_exact_fleet(self):
        from repro.apps import SCENARIO_A
        from repro.platforms import ScenarioRunner, platform_config
        from repro.sim.shard import run_sharded

        config = platform_config("hivemind")
        exact = ScenarioRunner(config, SCENARIO_A, seed=0,
                               n_devices=64).run()
        hybrid = run_sharded(config, SCENARIO_A, 64, seed=0,
                             cell_devices=16, exact_devices=16,
                             region_devices=32)
        pairs = {
            "bandwidth": (hybrid.bandwidth_summary()[0],
                          exact.bandwidth_summary()[0]),
            "p99": (hybrid.task_latencies.p99,
                    exact.task_latencies.p99),
            "makespan": (hybrid.extras["makespan_s"],
                         exact.extras["makespan_s"]),
        }
        for name, (model, truth) in pairs.items():
            deviation = 100.0 * abs(model - truth) / truth
            assert deviation <= 25.0, (
                f"{name}: hybrid {model} vs exact {truth} "
                f"({deviation:.1f}% > 25%)")
