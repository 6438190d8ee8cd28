"""End-to-end chaos harness: conservation under the issue's mixed plan,
and bit-level determinism of the sweep."""

import json

import pytest

from repro.experiments import chaos
from repro.faults import named_plan
from repro.sim.supervisor import can_spawn_workers

needs_processes = pytest.mark.skipif(
    not can_spawn_workers(),
    reason="environment cannot spawn worker processes")

DURATION_S = 30.0


@pytest.fixture(scope="module")
def mixed_report():
    plan = named_plan("mixed", duration_s=DURATION_S)
    return chaos.run_pair("S3", plan, seed=0, duration_s=DURATION_S)


class TestMixedPlanOnS3:
    """The acceptance scenario: 20% function faults + a server crash + a
    partition window, and nothing may be lost or double-counted."""

    def test_zero_invariant_violations(self, mixed_report):
        assert mixed_report.violations == 0
        assert mixed_report.violation_details == []

    def test_all_tasks_accounted(self, mixed_report):
        assert mixed_report.all_accounted
        assert mixed_report.submitted > 0
        assert mixed_report.completed == mixed_report.submitted
        assert mixed_report.lost == 0

    def test_recoveries_actually_happened(self, mixed_report):
        # A chaos run that never recovered anything exercised nothing.
        assert mixed_report.recoveries
        assert sum(mixed_report.recoveries.values()) > 0


class TestDeterminism:
    def test_same_seed_same_rows(self):
        first = chaos.run(base_seed=7, scenarios=("S3",),
                          plans=("partition",), duration_s=DURATION_S)
        second = chaos.run(base_seed=7, scenarios=("S3",),
                           plans=("partition",), duration_s=DURATION_S)
        assert first.rows == second.rows

    def test_plan_changes_the_run(self):
        quiet = chaos.run_pair(
            "S3", named_plan("partition", duration_s=DURATION_S),
            seed=0, duration_s=DURATION_S)
        stormy = chaos.run_pair(
            "S3", named_plan("cluster_storm", duration_s=DURATION_S),
            seed=0, duration_s=DURATION_S)
        assert quiet.recoveries != stormy.recoveries or \
            quiet.makespan_s != stormy.makespan_s


class TestSweepResult:
    def test_sweep_emits_one_row_per_pair(self):
        result = chaos.run(base_seed=0, scenarios=("S1", "S3"),
                           plans=("mixed",), duration_s=DURATION_S)
        assert len(result.rows) == 2
        assert result.data["total_violations"] == 0
        assert result.data["all_accounted"]
        assert len(result.headers) == len(result.rows[0])


class TestWorkerChaosLanes:
    """The --chaos-workers harness: real processes killed under
    supervision, rows twin-compared byte-for-byte."""

    def test_unknown_lane_rejected(self):
        with pytest.raises(ValueError):
            chaos.run_workers(lanes=("warp",))

    @needs_processes
    def test_sharded_lane_recovers_byte_identical(self):
        result = chaos.run_workers(scenarios=("S1",), lanes=("sharded",))
        assert not result.data["skipped"]
        assert len(result.rows) == 1
        assert result.data["identical_all"]
        assert result.data["all_recovered"]
        assert result.data["undisturbed"] == []
        # The default sharded script injects a kill and a hang.
        assert result.data["total_incidents"] == 2
        failures = {i["failure"] for i in result.data["incidents"]}
        assert failures == {"death", "hang"}

    @needs_processes
    def test_a_targeted_worker_left_undisturbed_fails_the_lane(
            self, capsys, tmp_path):
        """One incident in the lane is not enough: ``shard1``'s kill at
        op 99 never fires (the run has ~13 ops), so the lane did not
        disturb every worker it targets and the CLI exits 1 naming it."""
        from repro.experiments.__main__ import main
        report = tmp_path / "incidents.json"
        code = main(["--chaos-workers", "kill:shard:0:2,kill:shard:1:99",
                     "--scenarios", "S1", "--lanes", "sharded",
                     "--incidents-out", str(report)])
        assert code == 1
        assert "INCOMPLETE (undisturbed: S1/sharded/shard1)" in \
            capsys.readouterr().out
        payload = json.loads(report.read_text())
        assert payload["identical_all"]
        assert not payload["all_recovered"]
        assert payload["undisturbed"] == ["S1/sharded/shard1"]
        [record] = payload["records"]
        assert (record["injected"], record["recovered"]) == (2, 1)
        assert record["undisturbed"] == ["shard1"]

    @needs_processes
    def test_slow_faults_expect_no_incident(self):
        result = chaos.run_workers(scenarios=("S1",), lanes=("sharded",),
                                   faults="slow:shard:0:2:0.05")
        assert result.data["total_incidents"] == 0
        assert result.data["all_recovered"]
        assert result.data["identical_all"]

    def test_skip_path_is_well_formed(self, monkeypatch):
        monkeypatch.setattr(chaos.supervisor, "can_spawn_workers",
                            lambda: False)
        result = chaos.run_workers(scenarios=("S1",), lanes=("sharded",))
        assert result.data["skipped"]
        assert result.rows == []
        assert result.data["identical_all"]  # vacuously true -> exit 0
