"""Tests for the parallel experiment executor.

The contract under test: identical values in identical order no matter the
worker count or whether the pool is usable at all — parallelism may only
change wall-clock, never numbers.
"""

import pytest

from repro.experiments import parallel
from repro.experiments.parallel import (
    TaskResult,
    default_workers,
    replica_seeds,
    run_sweep,
    run_tasks,
)
from repro.sim import Environment

pytestmark = pytest.mark.quick


def _simulate(seed, scale=1):
    """Tiny deterministic simulation — module-level, hence picklable."""
    env = Environment()

    def proc():
        total = 0.0
        for step in range(5):
            yield env.timeout((seed % 7 + 1) * scale)
            total += env.now
        return total

    return env.run(env.process(proc()))


class TestSeedSchedule:
    def test_matches_documented_fanout(self):
        assert replica_seeds(4, base_seed=3) == [3, 1003, 2003, 3003]

    def test_rejects_non_positive_repeats(self):
        with pytest.raises(ValueError):
            replica_seeds(0)


class TestRunTasks:
    def test_results_ordered_by_index(self):
        calls = [(_simulate, (seed,), {}) for seed in (5, 1, 3)]
        results = run_tasks(calls, max_workers=1)
        assert [r.index for r in results] == [0, 1, 2]
        assert [r.value for r in results] == [
            _simulate(5), _simulate(1), _simulate(3)]

    def test_serial_and_parallel_values_identical(self):
        calls = [(_simulate, (seed,), {"scale": 2}) for seed in range(6)]
        serial = run_tasks(calls, max_workers=1)
        pooled = run_tasks(calls, max_workers=2)
        assert [r.value for r in serial] == [r.value for r in pooled]
        assert [r.index for r in pooled] == list(range(6))

    def test_unpicklable_calls_fall_back_to_serial(self):
        state = []
        calls = [(lambda seed: state.append(seed) or seed, (s,), {})
                 for s in (1, 2)]
        results = run_tasks(calls, max_workers=4)
        assert [r.value for r in results] == [1, 2]
        assert state == [1, 2]  # ran in this process

    def test_captures_wall_time_and_events(self):
        results = run_tasks([(_simulate, (3,), {})], max_workers=1)
        assert isinstance(results[0], TaskResult)
        assert results[0].sim_events > 0

    def test_empty_calls(self):
        assert run_tasks([], max_workers=2) == []

    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            run_tasks([(_simulate, (1,), {})], max_workers=0)


class TestReplicasAndSweep:
    def test_run_sweep_preserves_cell_order(self):
        cells = [(seed, scale) for seed in (4, 2) for scale in (1, 2)]
        results = run_sweep(_simulate, cells, max_workers=2)
        assert [r.value for r in results] == [
            _simulate(s, c) for s, c in cells]


class TestWorkers:
    def test_env_var_overrides_core_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_MAX_WORKERS", "3")
        assert default_workers() == 3

    @pytest.mark.parametrize("raw,text", [
        ("abc", "expected an integer"), ("-3", "at least 1"),
        ("0", "at least 1")])
    def test_bad_env_var_names_the_variable(self, monkeypatch, raw, text):
        monkeypatch.setenv("REPRO_MAX_WORKERS", raw)
        with pytest.raises(ValueError,
                           match=f"^REPRO_MAX_WORKERS={raw}: .*{text}"):
            default_workers()

    def test_default_is_core_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_MAX_WORKERS", raising=False)
        assert default_workers() >= 1


class TestEventAccounting:
    def test_pool_events_feed_total(self):
        before = parallel.total_events_consumed()
        run_tasks([(_simulate, (seed,), {}) for seed in range(3)],
                  max_workers=2)
        assert parallel.total_events_consumed() - before > 0


class TestRegistryTelemetry:
    def test_run_experiment_fills_elapsed_and_events(self):
        from repro.experiments import registry

        def dummy(base_seed=0):
            from repro.experiments.common import ExperimentResult
            _simulate(base_seed)
            return ExperimentResult(figure="dummy", title="t",
                                    headers=["k"], rows=[["v"]])

        registry.EXPERIMENTS["_dummy"] = dummy
        try:
            result = registry.run_experiment("_dummy")
        finally:
            del registry.EXPERIMENTS["_dummy"]
        assert result.elapsed_s > 0
        assert result.sim_events > 0


class TestPoolDegradation:
    """A broken process pool must fall back *loudly*: logged once,
    recorded for the RunManifest — never a silent serial run."""

    @pytest.fixture(autouse=True)
    def fresh_log(self, monkeypatch):
        monkeypatch.setattr(parallel, "_DEGRADATIONS", [])

    def test_pool_failure_recorded_once_and_results_intact(
            self, monkeypatch):
        def broken_pool(*args, **kwargs):
            raise OSError("fork unavailable")

        monkeypatch.setattr(parallel, "ProcessPoolExecutor", broken_pool)
        tasks = [(_simulate, (seed,), {}) for seed in range(3)]
        for _ in range(2):  # second failure must not duplicate the record
            results = run_tasks(tasks, max_workers=2)
            assert [r.value for r in results] == [
                _simulate(0), _simulate(1), _simulate(2)]
        assert parallel.pool_degradations() == [
            "OSError: fork unavailable"]

    def test_degradation_lands_in_the_run_manifest(self, monkeypatch):
        from repro.experiments import registry
        from repro.experiments.common import ExperimentResult

        monkeypatch.setattr(parallel, "_DEGRADATIONS",
                            ["OSError: fork unavailable"])

        def dummy(base_seed=0):
            return ExperimentResult(figure="dummy", title="t",
                                    headers=["k"], rows=[["v"]])

        registry.EXPERIMENTS["_dummy"] = dummy
        try:
            result = registry.run_experiment("_dummy")
        finally:
            del registry.EXPERIMENTS["_dummy"]
        assert result.manifest.extra["pool_degradations"] == [
            "OSError: fork unavailable"]

    def test_healthy_runs_record_nothing(self):
        run_tasks([(_simulate, (1,), {})], max_workers=1)
        assert parallel.pool_degradations() == []
