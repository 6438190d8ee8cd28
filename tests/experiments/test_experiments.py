"""Shape tests for the figure harnesses (DESIGN.md criteria).

These run reduced configurations of each experiment and assert the
qualitative results the paper reports — who wins, rough factors, where
crossovers fall.
"""

import numpy as np
import pytest

from repro.experiments import (
    ExperimentResult,
    experiment_ids,
    run_experiment,
)
from repro.experiments import (
    fig01_treasure_hunt,
    fig03_network_overheads,
    fig05_serverless_opportunities,
    fig06_serverless_challenges,
    fig15_learning,
    fig16_cars,
    fig17_scalability,
    fig18_validation,
)


class TestRegistry:
    def test_all_figures_registered(self):
        expected = {"ablation-colocation", "ablation-keepalive",
                    "ablation-straggler", "chaos", "chaos-workers",
                    "fig01", "fig03a",
                    "fig03b", "fig04",
                    "fig05a", "fig05b", "fig05c", "fig06a", "fig06b",
                    "fig06c", "fig11", "fig12", "fig13", "fig14", "fig15",
                    "fig16", "fig17a", "fig17b", "fig17c", "fig17d",
                    "fig18", "fig19", "sweep", "sweep-validate"}
        assert set(experiment_ids()) == expected

    def test_unknown_experiment(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run_experiment("fig99")


class TestExperimentResult:
    def test_accessors(self):
        result = ExperimentResult(
            "figX", "title", ["key", "value"], [["a", 1], ["b", 2]])
        assert result.column("value") == [1, 2]
        assert result.cell("a", "value") == 1
        with pytest.raises(KeyError):
            result.row_for("z")
        assert "figX" in result.render()


class TestFig01:
    @pytest.fixture(scope="class")
    def result(self):
        return fig01_treasure_hunt.run(repeats=1, n_small=16, n_large=128)

    def test_hivemind_fastest_small(self, result):
        small = {name: result.data[f"16:{name}"]["exec_time_s"]
                 for name in fig01_treasure_hunt.PLATFORM_ORDER}
        assert small["hivemind"] == min(small.values())
        assert small["centralized_faas"] < small["distributed_edge"]
        assert small["centralized_faas"] <= small["centralized_iaas"]

    def test_hivemind_best_battery(self, result):
        batteries = {name: result.data[f"16:{name}"]["battery_pct"]
                     for name in fig01_treasure_hunt.PLATFORM_ORDER}
        assert batteries["hivemind"] == min(batteries.values())

    def test_gap_grows_with_scale(self, result):
        small_gap = (result.data["16:centralized_faas"]["exec_time_s"] /
                     result.data["16:hivemind"]["exec_time_s"])
        large_gap = (result.data["128:centralized_faas"]["exec_time_s"] /
                     result.data["128:hivemind"]["exec_time_s"])
        assert large_gap > 0.9 * small_gap  # never shrinks materially

    def test_static_iaas_collapses_at_scale(self, result):
        assert result.data["128:centralized_iaas"]["exec_time_s"] > \
            2 * result.data["128:hivemind"]["exec_time_s"]


class TestFig03:
    def test_networking_at_least_22_percent(self):
        result = fig03_network_overheads.run_breakdown(duration_s=40.0)
        shares = [result.data[key]["median"]["network"]
                  for key in result.data]
        assert all(share >= 0.18 for share in shares)
        assert float(np.mean(shares)) >= 0.27

    def test_saturation_knee(self):
        result = fig03_network_overheads.run_saturation(
            drone_counts=(2, 8, 16), frame_mbs=(2.0, 8.0),
            duration_s=30.0)
        # 8 MB at 16 drones must be catastrophically slower than at 2.
        low = result.data["8.0MB:2"]["tail_ms"]
        high = result.data["8.0MB:16"]["tail_ms"]
        assert high > 5 * low
        # Higher resolution saturates earlier: at 8 drones, 8 MB is far
        # worse than 2 MB.
        assert result.data["8.0MB:8"]["tail_ms"] > \
            2 * result.data["2.0MB:8"]["tail_ms"]


class TestFig05:
    def test_serverless_beats_fixed_intra_beats_both(self):
        result = fig05_serverless_opportunities.run_concurrency(
            duration_s=40.0)
        for key in ("S1", "S9", "S10"):
            entry = result.data[key]
            assert entry["serverless_s"] < entry["fixed_s"]
            assert entry["intra_s"] < 0.7 * entry["fixed_s"]
        # Low-parallelism jobs benefit little from intra-task fan-out.
        weather = result.data["S7"]
        assert weather["intra_s"] > 0.5 * weather["serverless_s"]

    def test_elasticity(self):
        result = fig05_serverless_opportunities.run_elasticity()
        assert result.data["serverless"]["p99_s"] < \
            result.data["fixed_avg"]["p99_s"]
        # Max-provisioned keeps latency but wastes resources.
        assert result.data["fixed_max"]["utilization"] < 0.6

    def test_fault_tolerance_hides_failures(self):
        result = fig05_serverless_opportunities.run_fault_tolerance(
            fault_rates=(0.0, 0.20))
        clean = result.data["0%"]
        faulty = result.data["20%"]
        assert faulty["respawns"] > 0
        # Completed work stays on the no-fault trajectory.
        assert faulty["completed"] >= 0.95 * clean["completed"]
        assert faulty["peak_active"] >= clean["peak_active"]


class TestFig06:
    def test_serverless_more_variable(self):
        result = fig06_serverless_challenges.run_variability(
            duration_s=40.0)
        worse = sum(1 for entry in result.data.values()
                    if entry["serverless_cv"] > entry["reserved_cv"])
        assert worse >= 8  # consistently higher variability

    def test_instantiation_shares(self):
        result = fig06_serverless_challenges.run_breakdown(n_tasks=80)
        shares = {key: entry["instantiation_pct"]
                  for key, entry in result.data.items()}
        assert 15 <= float(np.mean(list(shares.values()))) <= 45
        assert shares["S7"] > 40     # short tasks dominated by cold start
        assert shares["S6"] < 20     # long maze tasks are not

    def test_sharing_protocol_ordering(self):
        result = fig06_serverless_challenges.run_sharing(n_tasks=30)
        for key, entry in result.data.items():
            couch = entry["couchdb.share"].median
            rpc = entry["rpc.share"].median
            inmem = entry["in_memory.share"].median
            assert couch > rpc > inmem
            # CouchDB's exchange dominates its end-to-end tail.
            assert entry["couchdb"].p99 > entry["in_memory"].median


class TestFig15:
    def test_swarm_retraining_best(self):
        result = fig15_learning.run(passes=3)
        for scenario in ("ScA", "ScB"):
            none = result.data[f"{scenario}:none"]["correct_pct"]
            self_mode = result.data[f"{scenario}:self"]["correct_pct"]
            swarm = result.data[f"{scenario}:swarm"]["correct_pct"]
            assert swarm > self_mode > none
            assert swarm > 90
            errors = (result.data[f"{scenario}:swarm"]["fn_pct"] +
                      result.data[f"{scenario}:swarm"]["fp_pct"])
            assert errors < 10


class TestFig16:
    def test_car_swarm_orderings(self):
        result = fig16_cars.run()
        for scenario in ("TreasureHunt", "Maze"):
            hivemind = result.data[f"{scenario}:hivemind"]
            edge = result.data[f"{scenario}:distributed_edge"]
            assert hivemind["job_median_s"] <= edge["job_median_s"]
            assert hivemind["battery_mean_pct"] <= \
                edge["battery_mean_pct"]


class TestFig17:
    def test_hivemind_does_not_saturate_at_max_resolution(self):
        result = fig17_scalability.run_resolution()
        base = result.data["ScA:0.5MB@8fps"]
        maximum = result.data["ScA:8.0MB@32fps"]
        # Latency stays within a small factor even at 64x the raw data.
        assert maximum["tail_s"] < 4 * base["tail_s"]
        assert maximum["bandwidth_mbs"] < \
            0.9 * 64 * max(1e-9, base["bandwidth_mbs"])

    def test_sublinear_bandwidth_growth(self):
        result = fig17_scalability.run_swarm_size(
            sizes=(16, 512), include_centralized_upto=0)
        bw16 = result.data["ScA:hivemind:16"]["bandwidth_mbs"]
        bw512 = result.data["ScA:hivemind:512"]["bandwidth_mbs"]
        assert bw512 < 32 * 0.8 * bw16  # sublinear in devices
        # Latency stays near flat (runtime remapping trades a little
        # on-board latency for the bandwidth cap).
        assert result.data["ScA:hivemind:512"]["makespan_s"] < \
            1.6 * result.data["ScA:hivemind:16"]["makespan_s"]


class TestFig18:
    def test_deviation_below_five_percent(self):
        result = fig18_validation.run(min_samples=2500)
        deviations = [abs(entry["tail_deviation_pct"])
                      for entry in result.data.values()]
        assert max(deviations) < 5.0


class TestCommonHelpers:
    def test_mean_over_seeds_validation(self):
        from repro.experiments.common import mean_over_seeds
        with pytest.raises(ValueError):
            mean_over_seeds([])
        assert mean_over_seeds([1.0, 3.0]) == 2.0


class TestCli:
    def test_list(self, capsys):
        from repro.experiments.__main__ import main
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "fig01" in out and "fig18" in out

    def test_no_args_lists(self, capsys):
        from repro.experiments.__main__ import main
        assert main([]) == 0
        assert "Available experiments" in capsys.readouterr().out

    def test_unknown_figure_raises(self, capsys):
        from repro.experiments.__main__ import main
        with pytest.raises(SystemExit) as exit_:
            main(["fig99"])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "unknown figure id 'fig99'" in err and "--list" in err
        # Every other malformed option value is a usage error too, named
        # in one line, before anything runs.
        for argv, bad in (
                (["--chaos-workers", "kill:cell:x:1"], "'kill:cell:x:1'"),
                (["--chaos", "--plans", "bogus"], "'bogus'"),
                (["--chaos-workers", "--lanes", "bogus"], "'bogus'"),
                (["--chaos", "--scenarios", "S99"], "'S99'"),
                (["fig04", "--shards", "-3"], "--shards -3"),
        ):
            with pytest.raises(SystemExit) as exit_:
                main(argv)
            assert exit_.value.code == 2, argv
            [message] = [line for line in
                         capsys.readouterr().err.splitlines()
                         if "error:" in line]
            assert bad in message, argv

    def test_runs_one_figure(self, capsys):
        from repro.experiments.__main__ import main
        assert main(["fig06b"]) == 0
        out = capsys.readouterr().out
        assert "fig06b" in out and "instantiation_pct" in out

    def test_csv_export(self, tmp_path, capsys):
        from repro.experiments.__main__ import main, write_csv
        from repro.experiments import ExperimentResult
        result = ExperimentResult("figX", "t", ["a", "b"], [[1, 2]])
        path = write_csv(result, str(tmp_path))
        content = open(path).read()
        assert "a,b" in content and "1,2" in content
        assert main(["fig06b", "--csv", str(tmp_path)]) == 0
        assert (tmp_path / "fig06b.csv").exists()
