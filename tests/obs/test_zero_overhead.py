"""The zero-overhead contract: tracing never perturbs the simulation.

Spans are recorded after the fact with explicit timestamps, so an armed
tracer must consume zero extra kernel events and zero extra RNG draws —
a traced run produces byte-identical figure rows to an untraced one. (The
companion check against the frozen seed-commit CSVs lives in the PR
verification; these tests enforce the on/off half of the contract
forever after.)
"""

import pytest

from repro import obs
from repro.apps import SCENARIO_A, app
from repro.platforms import (ScenarioRunner, SingleTierRunner,
                             platform_config)
from repro.sim.kernel import events_consumed


def _cell_fingerprint():
    before = events_consumed()
    result = SingleTierRunner(platform_config("centralized_faas"),
                              app("S3"), seed=0, duration_s=20.0,
                              load_fraction=0.6).run()
    return {
        "latencies": tuple(result.task_latencies.values),
        "tail": result.tail_latency_s,
        "events": events_consumed() - before,
    }


def _scenario_fingerprint():
    before = events_consumed()
    result = ScenarioRunner(platform_config("hivemind"), SCENARIO_A,
                            seed=0, n_devices=6).run()
    return {
        "makespan": result.extras["makespan_s"],
        "latencies": tuple(result.task_latencies.values),
        "events": events_consumed() - before,
    }


class TestTracingOnEqualsTracingOff:
    """Same numbers, same event count, with and without a tracer —
    identical RNG streams are implied by identical outputs (every draw
    shifts every later sample)."""

    def test_single_tier_cell_identical(self):
        untraced = _cell_fingerprint()
        obs.install()
        traced = _cell_fingerprint()
        assert len(obs.active_tracer()) > 0  # tracing actually happened
        assert traced == untraced

    def test_scenario_with_flights_identical(self):
        untraced = _scenario_fingerprint()
        obs.install()
        traced = _scenario_fingerprint()
        tracer = obs.active_tracer()
        # Both request traces and synthesized flight-leg spans exist...
        names = {span.name for span in tracer.spans}
        assert "task" in names
        assert "flight" in names
        # ...and the simulation never noticed.
        assert traced == untraced

    def test_unarmed_spans_cost_nothing(self):
        # With tracing off the handles are NULL_CONTEXT end to end: two
        # identical untraced runs dispatch identical event counts, and
        # no tracer ever materializes.
        first = _cell_fingerprint()
        second = _cell_fingerprint()
        assert first == second
        assert obs.active_tracer() is None


@pytest.mark.slow
class TestFigureRowsIdentical:
    """Whole-figure rows with tracing armed match the untraced rows."""

    def test_fig17a_rows_identical(self):
        from repro.experiments.registry import run_experiment

        untraced = run_experiment("fig17a", max_workers=1)
        obs.install()
        traced = run_experiment("fig17a", max_workers=1)
        assert traced.rows == untraced.rows
        assert traced.manifest.flags["trace"] is True
        assert untraced.manifest.flags["trace"] is False
        assert traced.manifest.spans > 0
