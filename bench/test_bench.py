"""Tests of the benchmark's own logic: ``python -m pytest bench -q``."""

import json
import marshal
import re
import time

import pytest

import compare
import layers
import run
import speed

REPRO = "/x/src/repro"
KERNEL = (f"{REPRO}/sim/kernel.py", 10, "step")
REGION = (f"{REPRO}/serverless/region.py", 20, "serve")
SUPERVISOR = (f"{REPRO}/sim/supervisor.py", 30, "_recv")
ROUTING = (f"{REPRO}/routing/grid.py", 40, "neighbours")
HEAPPUSH = ("~", 0, "<built-in method _heapq.heappush>")
STDLIB = ("/usr/lib/python3/heapq.py", 5, "wrapper")
RECV = ("/usr/lib/python3/multiprocessing/connection.py", 9, "_recv")
READ = ("~", 0, "<built-in method posix.read>")
LOADS = ("~", 0, "<built-in method _pickle.loads>")
ROOT_FUNC = ("/x/bench/sample.py", 1, "main")


def entry(tt, nc=1, callers=None):
    """A pstats entry: (cc, nc, tt, ct, callers); callers map to
    (nc, cc, tt, ct), with ct set to tt for simplicity."""
    callers = {caller: (1, 1, t, t) for caller, t in (callers or {}).items()}
    return (nc, nc, tt, tt, callers)


def synthetic_profile():
    return {
        ROOT_FUNC: entry(0.5),
        KERNEL: entry(2.0, nc=7, callers={ROOT_FUNC: 2.0}),
        REGION: entry(1.0, nc=3, callers={ROOT_FUNC: 1.0}),
        SUPERVISOR: entry(0.25, callers={ROOT_FUNC: 0.25}),
        ROUTING: entry(0.125, callers={KERNEL: 0.125}),
        # A builtin called from two layers, 3:1 by time.
        HEAPPUSH: entry(0.8, callers={KERNEL: 0.6, REGION: 0.2}),
        # A stdlib frame between a builtin and its repro caller.
        STDLIB: entry(0.0, callers={REGION: 0.4}),
        ("~", 0, "<built-in method builtins.len>"): entry(
            0.4, callers={STDLIB: 0.4}),
        # Blocked in a pipe read: waiting. Unpickling the reply: work.
        RECV: entry(0.0, callers={SUPERVISOR: 3.0}),
        READ: entry(3.0, callers={RECV: 3.0}),
        LOADS: entry(0.5, callers={RECV: 0.5}),
    }


def test_fold_attributes_builtins_and_waits():
    folded = layers.fold(synthetic_profile())
    host = folded["host_s"]
    assert host["sim.kernel"] == pytest.approx(2.0 + 0.6)
    assert host["serverless.region"] == pytest.approx(1.0 + 0.2 + 0.4)
    assert host["sim.supervisor"] == pytest.approx(0.25 + 0.5)
    assert host["other"] == pytest.approx(0.125 + 0.5)
    assert folded["wait_s"] == pytest.approx(3.0)
    assert folded["calls"]["sim.kernel"] == 7
    assert folded["calls"]["serverless.region"] == 3
    assert sum(host.values()) + folded["wait_s"] == pytest.approx(
        folded["total_s"])


def test_fold_survives_a_call_cycle():
    a = ("/usr/lib/python3/copy.py", 1, "deepcopy")
    b = ("/usr/lib/python3/copy.py", 2, "_reconstruct")
    stats = {
        KERNEL: entry(1.0),
        a: (2, 2, 0.3, 0.6, {KERNEL: (1, 1, 0.2, 0.6), b: (1, 1, 0.1, 0.3)}),
        b: entry(0.3, callers={a: 0.3}),
    }
    folded = layers.fold(stats)
    assert folded["host_s"]["sim.kernel"] == pytest.approx(1.6)


def test_layer_of_uses_the_longest_matching_module():
    assert layers.layer_of(f"{REPRO}/serverless/region.py") == \
        "serverless.region"
    assert layers.layer_of(f"{REPRO}/serverless/invoker.py") == "serverless"
    assert layers.layer_of(f"{REPRO}/sim/flags.py") == "other"
    assert layers.layer_of(f"{REPRO}/edge/__init__.py") == "edge"
    assert layers.layer_of("/usr/lib/python3/heapq.py") == ""


def test_fold_files_names_worker_kinds(tmp_path):
    driver = tmp_path / "w.driver.prof"
    region = tmp_path / "w.worker.1.prof"
    cell = tmp_path / "w.worker.2.prof"
    for path, stats in ((driver, {SUPERVISOR: entry(1.0)}),
                        (region, {REGION: entry(1.0)}),
                        (cell, {KERNEL: entry(1.0)})):
        with open(path, "wb") as handle:
            marshal.dump(stats, handle)
    kinds = [p["kind"] for p in layers.fold_files(
        str(driver), [str(region), str(cell)])]
    assert kinds == ["driver", "region", "cell"]


def test_metric_and_workload_names():
    spec = run.load_spec()
    names = ([m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
             + [w["name"] for w in spec["workloads"]])
    pattern = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
    assert all(pattern.fullmatch(name) for name in names), names
    assert len(names) == len(set(names))
    assert {f"host_s.{layer}" for layer in layers.LAYERS} <= set(names)
    assert not pattern.fullmatch("host_s/edge")


def test_workloads_match_the_spec():
    from workloads import WORKLOADS
    spec = run.load_spec()
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def record(md5="a", events=10, **extra):
    base = {"rows_md5": md5, "counts": {"events.total": events},
            "problems": []}
    base.update(extra)
    return base


def test_failures_count_raises_checks_and_digest_mismatches():
    records = [record(), record(), {"error": "exit 1: boom"},
               record(md5="b"), record(problems=["9 task rows"])]
    reasons = run.failures(records)
    assert len(reasons) == 3
    assert reasons[0] == "exit 1: boom"
    assert "rows differ" in reasons[1]
    assert reasons[2] == "9 task rows"
    assert run.failures([record(), record()]) == []
    # Same rows but a different event count is also a different program.
    assert len(run.failures([record(), record(), record(events=11)])) == 1


def test_clean_env_drops_repro_and_interpreter_switches():
    env = run.clean_env({"REPRO_VECTOR_EDGE": "0", "REPRO_SERVING": "1",
                         "PYTHONDONTWRITEBYTECODE": "1", "HOME": "/h",
                         "PYTHONPATH": "extra"},
                        run.ROOT / "src")
    assert not any(key.startswith("REPRO_") for key in env)
    assert "PYTHONDONTWRITEBYTECODE" not in env
    assert env["HOME"] == "/h"
    assert env["PYTHONPATH"].split(":") == [str(run.ROOT / "src"), "extra"]


def test_verdict_wins_need_nine_tenths_and_a_gap_beyond_the_spread():
    parent = [10.0, 10.2, 10.1, 9.9, 10.0, 10.1, 10.2, 9.9, 10.0, 10.1]
    faster = [value - 1.0 for value in parent]
    assert compare.verdict(parent, faster, 0.1) == "better"
    # 8 of 10 pairs won is not enough to claim a gain.
    mixed = faster[:8] + [value + 2.0 for value in parent[8:]]
    assert compare.verdict(parent, mixed, 0.1) == "within bound"
    # A gap inside the parent's own spread is not a gain either.
    assert compare.verdict(parent, [v - 0.05 for v in parent],
                           0.1) == "within bound"
    assert compare.verdict(parent, [v * 1.2 for v in parent],
                           0.1) == "regressed"
    assert compare.verdict(parent[:5], faster[:5], 0.1) != "better"
    assert compare.verdict([v * 2 for v in faster], parent, 0.1,
                           lower_is_better=False) == "regressed"


def test_verdict_unresolved_when_the_spread_exceeds_the_bound():
    parent = [8.0, 12.0, 9.0, 11.0, 10.0, 8.0, 12.0, 9.0, 11.0, 10.0]
    assert compare.verdict(parent, [v * 1.3 for v in parent],
                           0.1) == "unresolved"
    # Too few pairs for a gain, but every change run beats every parent run.
    assert compare.verdict(parent[:5], [v / 2 for v in parent[:5]],
                           0.1) == "better (all)"


def test_compare_refuses_mixed_cores_and_counts_failures():
    spec = run.load_spec()
    name = spec["workloads"][0]["name"]
    metrics = {m["name"]: 1.0 for m in spec["end_to_end"]}
    parent = [{"workload": name, "seed": 0, "cores": 2, "failed": 0,
               "metrics": metrics}]
    change = [dict(parent[0], cores=4)]
    with pytest.raises(ValueError, match="core counts"):
        compare.compare(parent, change, spec)
    rows = compare.compare(parent, parent, spec)
    assert {row["verdict"] for row in rows} == {"within bound"}
    rows = compare.compare(parent, [dict(parent[0], failed=1)], spec)
    assert {row["verdict"] for row in rows} == {"no gain: more runs failed"}


def test_one_traced_run_reports_every_per_layer_metric(tmp_path, capsys):
    """End to end on the smallest workload: the contract's last line."""
    assert run.main(["--workload", "serving-flash", "--runs", "1",
                     "--trace", "1", "--out", str(tmp_path)]) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    spec = run.load_spec()
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == 2
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    report = json.loads((tmp_path / "serving-flash.layers.json").read_text())
    kinds = sorted(p["kind"] for p in report["processes"])
    assert kinds == ["driver", "region"]
    assert all(p["other_share"] < 0.1 for p in report["processes"])


def test_weighted_speed_weights_processes_by_cpu_time():
    assert speed.weighted_speed([(3.0, 1.0), (1.0, 0.5)]) == pytest.approx(
        0.875)
    # A process without probe samples carries no weight.
    assert speed.weighted_speed([(2.0, 0.8), (5.0, None)]) == 0.8
    assert speed.weighted_speed([(0.0, None)]) == 1.0


def test_speed_probe_samples_while_the_process_runs():
    probe = speed.SpeedProbe()
    probe.start()
    try:
        started = time.process_time()
        while time.process_time() - started < speed.PERIOD_S * 20:
            pass
    finally:
        probe.stop()
    assert len(probe.speeds) >= 5
    assert all(value > 0 for value in probe.speeds)
    assert probe.mean_since(len(probe.speeds)) is None
