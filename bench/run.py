"""Run the benchmark: each workload in fresh untraced processes, then one
traced run per workload for the per-layer numbers.

    PYTHONPATH=src python bench/run.py [--workload W ...] [--seed S]
                                       [--runs N | --seconds T]
                                       [--trace 0|1] [--out DIR]

Each sample is a fresh ``bench/sample.py`` process with every
``REPRO_*`` and ``PYTHON*`` variable removed from its environment (see
:func:`clean_env`). Workloads take turns round-robin. ``--runs`` fixes
the samples per workload (default 9); ``--seconds`` instead keeps
sampling each workload until it has used about that many seconds (at
least :data:`MIN_SAMPLES` times).

The run's value of each end-to-end metric is the median of its
samples, except peak RSS, which takes the smallest. Host times are in
reference seconds: each sample scales its measured times by the host
speed its processes saw while they ran (see ``bench/speed.py``), so
that a neighbour loading the machine does not read as a regression.
The measured times are kept in ``runs.jsonl``.

Standard output is a table of every metric by name and unit, the
workload fingerprint (rows md5 and kernel events), and as its last line
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``, with
the ``end_to_end`` metrics of ``BENCHMARK.json`` under ``--trace 0`` and
its ``per_layer`` metrics under ``--trace 1``. With several workloads the
metric names are prefixed ``<workload>/``. Each invocation appends one
line per workload to ``<out>/runs.jsonl`` for ``bench/compare.py``;
traced runs write ``<out>/<workload>.layers.json`` and the raw profiles.
The exit code is 0 when the run completed, even if checks failed
(``correct`` says so), and 2 when it could not run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
MIN_SAMPLES = 5
#: A sample that takes longer than this is killed and counted as failed.
SAMPLE_TIMEOUT_S = 90.0


def load_spec() -> Dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def clean_env(environ: Dict[str, str], src: Path) -> Dict[str, str]:
    """The sample environment: no ``REPRO_*`` switches, so only default
    code paths run, and no ``PYTHON*`` switches, so the interpreter runs
    with its defaults (bytecode cached, as in a normal install); ``src``
    importable."""
    env = {key: value for key, value in environ.items()
           if not key.startswith(("REPRO_", "PYTHON"))}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + ([environ["PYTHONPATH"]]
                      if environ.get("PYTHONPATH") else []))
    return env


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def run_sample(workload: str, seed: int, env: Dict[str, str], out: Path,
               trace: bool = False) -> Dict:
    """One fresh sample process; its record, or ``{"error": ...}``."""
    command = [sys.executable, str(BENCH / "sample.py"), workload,
               str(seed), "--out", str(out)] + (["--trace"] if trace else [])
    # A session of its own, so a timeout takes the workers down too.
    process = subprocess.Popen(command, cwd=ROOT, env=env,
                               stdout=subprocess.PIPE,
                               stderr=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        stdout, stderr = process.communicate(timeout=SAMPLE_TIMEOUT_S)
    except BaseException as error:  # a timeout, or this process stopping
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        if not isinstance(error, subprocess.TimeoutExpired):
            raise
        return {"error": f"timed out after {SAMPLE_TIMEOUT_S:.0f}s"}
    lines = stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        tail = stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"exit {process.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


def fingerprint(record: Dict) -> Tuple[str, int]:
    return record["rows_md5"], record["counts"]["events.total"]


def failures(records: List[Dict]) -> List[str]:
    """Why each failed sample failed: it raised, a check failed, or its
    rows differ from the other samples of the same workload and seed."""
    good = [r for r in records if "error" not in r and not r["problems"]]
    common = Counter(fingerprint(r) for r in good).most_common(1)
    reasons = []
    for record in records:
        if "error" in record:
            reasons.append(record["error"])
        elif record["problems"]:
            reasons.append("; ".join(record["problems"]))
        elif fingerprint(record) != common[0][0]:
            reasons.append("rows differ from the other samples "
                           f"({record['rows_md5']})")
    return reasons


def end_to_end(records: List[Dict]) -> Dict[str, float]:
    """The run's value of each end-to-end metric: its samples' median,
    except peak RSS. That noise is one-sided, a transient allocation
    now and then adding 3-7 MiB to a worker, so its smallest sample is
    the run's value."""
    values = {name: statistics.median(record[name] for record in records)
              for name in ("wall_s", "cpu_s", "setup_s")}
    values["peak_rss_mb"] = min(record["peak_rss_mb"] for record in records)
    return values


def per_layer(records: List[Dict], traced: Dict, processes: List[Dict]
              ) -> Dict[str, float]:
    """Per-layer metrics: counts from the untraced samples, host time
    from the traced sample's folded profiles."""
    metrics = dict(records[0]["counts"])
    wall = end_to_end(records)["wall_s"]
    metrics["host_ns_per_event"] = (wall * 1e9 / metrics["events.total"]
                                    if metrics["events.total"] else 0.0)
    metrics["trace_overhead"] = traced["raw"]["wall_s"] / statistics.median(
        record["raw"]["wall_s"] for record in records)
    metrics.update(traced["ipc"])
    for process in processes:
        for layer, seconds in process["host_s"].items():
            key = f"host_s.{layer}"
            metrics[key] = metrics.get(key, 0.0) + seconds
        for layer, calls in process["calls"].items():
            key = f"calls.{layer}"
            metrics[key] = metrics.get(key, 0) + calls
    workers = [p for p in processes if p["kind"] != "driver"]
    metrics["wait_s.driver"] = sum(p["wait_s"] for p in processes
                                   if p["kind"] == "driver")
    metrics["wait_s.workers"] = sum(p["wait_s"] for p in workers)
    for kind in ("cell", "region"):
        metrics[f"busy_s.{kind}_workers"] = sum(
            p["total_s"] - p["wait_s"] for p in workers if p["kind"] == kind)
    return metrics


def traced_run(workload: str, seed: int, env: Dict[str, str], out: Path
               ) -> Tuple[Dict, Optional[List[Dict]]]:
    """One traced sample; its record and per-process layer tables."""
    from layers import fold_files
    for stale in out.glob(f"{workload}.*.prof"):
        stale.unlink()
    record = run_sample(workload, seed, env, out, trace=True)
    if "error" in record:
        return record, None
    profiles = record["profiles"]
    return record, fold_files(profiles["driver"], profiles["workers"])


def _stop(durations: List[float], seconds: Optional[float],
          runs: int) -> bool:
    if seconds is None:
        return len(durations) >= runs
    if len(durations) < MIN_SAMPLES:
        return False
    return sum(durations) + statistics.median(durations) > seconds


def _print_table(workload: str, records: List[Dict],
                 spec: Dict) -> None:
    print(f"\n{workload}: run value, then the samples' quartiles")
    print(f"  {'metric':<14} {'unit':<6} {'value':>10} {'q1':>10} "
          f"{'median':>10} {'q3':>10} {'n':>3}")
    values = end_to_end(records)
    for metric in spec["end_to_end"]:
        name = metric["name"]
        q1, median, q3 = quartiles([r[name] for r in records])
        print(f"  {name:<14} {metric['unit']:<6} {values[name]:>10.4f} "
              f"{q1:>10.4f} {median:>10.4f} {q3:>10.4f} {len(records):>3}")


def _print_layers(processes: List[Dict]) -> None:
    for process in processes:
        top = sorted(process["host_s"].items(), key=lambda kv: -kv[1])[:4]
        print(f"  traced {process['kind']:<6} {process['total_s']:7.2f}s, "
              f"waiting {process['wait_s']:6.2f}s, busiest: "
              + ", ".join(f"{layer} {seconds:.2f}s" for layer, seconds in top))


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", "--workloads", dest="workloads",
                        nargs="+", action="extend", metavar="NAME")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--runs", type=int, default=9)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out")
    args = parser.parse_args(argv)
    # Stopping on SIGTERM unwinds through run_sample, which stops the
    # sample in flight and its workers.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from repro.experiments.parallel import available_cpus
    from repro.obs.manifest import git_revision
    from workloads import WORKLOADS

    spec = load_spec()
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        parser.error(f"unknown workload(s) {unknown}; "
                     f"choose from {sorted(WORKLOADS)}")
    args.out.mkdir(parents=True, exist_ok=True)
    env = clean_env(os.environ, src)
    provenance = {"cores": available_cpus(), "git_rev": git_revision()}

    records: Dict[str, List[Dict]] = {name: [] for name in names}
    durations: Dict[str, List[float]] = {name: [] for name in names}
    while True:
        open_names = [name for name in names
                      if not _stop(durations[name], args.seconds,
                                   args.runs)]
        if not open_names:
            break
        for name in open_names:
            started = time.perf_counter()
            records[name].append(run_sample(name, args.seed, env,
                                            args.out))
            durations[name].append(time.perf_counter() - started)

    attempted = failed = 0
    metrics: Dict[str, Dict] = {}
    for name in names:
        samples = records[name]
        traced, layers = None, None
        if args.trace:
            traced, layers = traced_run(name, args.seed, env, args.out)
            samples = samples + [traced]
        reasons = failures(samples)
        attempted += len(samples)
        failed += len(reasons)
        good = [r for r in records[name] if "error" not in r]
        for reason in reasons:
            print(f"{name}: FAILED: {reason}")
        if not good:
            continue
        _print_table(name, good, spec)
        print(f"  failed_share {len(reasons)}/{len(samples)}; "
              f"fingerprint: rows md5 {good[0]['rows_md5']}, "
              f"events.total {good[0]['counts']['events.total']}")
        values = end_to_end(good)
        listed = spec["end_to_end"]
        if args.trace:
            listed = spec["per_layer"] if layers is not None else []
        if layers is not None:
            _print_layers(layers)
            values = per_layer(good, traced, layers)
            report = dict(provenance, workload=name, seed=args.seed,
                          trace_overhead=values["trace_overhead"],
                          ipc=traced["ipc"], processes=layers)
            with open(args.out / f"{name}.layers.json", "w") as handle:
                json.dump(report, handle, indent=2)
        prefix = f"{name}/" if len(names) > 1 else ""
        for metric in listed:
            metrics[prefix + metric["name"]] = {
                "value": values[metric["name"]], "unit": metric["unit"]}
        with open(args.out / "runs.jsonl", "a") as handle:
            handle.write(json.dumps(dict(
                provenance, workload=name, seed=args.seed,
                flags=good[0]["flags"], attempted=len(samples),
                failed=len(reasons), metrics=end_to_end(good),
                samples=[{key: r[key] for key in
                          ("setup_s", "wall_s", "cpu_s", "peak_rss_mb",
                           "speed", "raw")}
                         for r in good])) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
