"""CLI: ``python -m repro.experiments fig11`` regenerates one figure.

``python -m repro.experiments --list`` enumerates the available figures;
``python -m repro.experiments all`` runs every harness (slow);
``--csv DIR`` additionally writes each figure's rows to ``DIR/<fig>.csv``;
``--workers N`` fans the parallel-aware harnesses out over N processes
(numeric results are identical at any worker count);
``--bench-smoke`` runs the fixed ~30 s smoke workload and appends its
timings to ``BENCH_kernel.json``;
``--bench-fig17`` records the fig17 256-drone legacy/vector milestone pair;
``--profile`` prints cProfile's top 25 cumulative entries for the run —
it composes with any figure id, ``all``, and every bench mode;
``--no-vector-edge`` forces the legacy per-device flight processes
(``REPRO_VECTOR_EDGE=0`` equivalent);
``--bench-shard`` records the fig17b 1024-drone 1-shard/4-shard pair;
``--bench-cloudshard`` records the fig17b 1024-drone edge-sharded/
cloud-sharded pair;
``--shards N`` decomposes each swarm run into cells over N shard
processes (``REPRO_SHARDS=N`` equivalent; byte-identical results);
``--cloud-shards N`` additionally decomposes the cloud tier into
per-region controller workers (``REPRO_CLOUD_SHARDS=N`` equivalent;
rows identical at any N >= 1);
``--hybrid-exact N`` keeps an N-device exact focus and rides the rest
of the fleet as mean-field synthetic load (``REPRO_HYBRID_EXACT=N``
equivalent; arms the sharded cloud tier);
``--meanfield`` collapses homogeneous swarm cells into the O(1)
population model (``REPRO_MEANFIELD=1`` equivalent; approximate);
``--serving SPEC`` overlays open-loop background tenants on the
regional cloud tier of sharded runs (``REPRO_SERVING=SPEC``
equivalent; arms the sharded cloud tier — see ``repro.serving``);
``--no-serving-admission`` / ``--no-serving-autoscale`` disarm each
reactive serving policy independently
(``REPRO_SERVING_ADMISSION=0`` / ``REPRO_SERVING_AUTOSCALE=0``);
``--trace`` arms causal request tracing (``REPRO_TRACE=1`` equivalent);
``--trace-out PATH`` additionally exports the spans as Chrome
``trace_event`` JSON (Perfetto-loadable; one extra file per pool replica)
plus a ``<stem>.manifest.json`` run manifest;
``--profile-out PATH`` dumps per-replica cProfile stats to
``PATH.r<index>`` (works under the parallel executor, where ``--profile``
alone can only see the coordinating process);
``--chaos-workers [SPEC]`` kills/hangs real shard worker processes
mid-run and asserts the supervised recovery merged rows byte-identical
to an undisturbed twin (``--lanes``, ``--worker-deadline S``, and
``--incidents-out PATH`` refine/record the sweep).
"""

from __future__ import annotations

import argparse
import cProfile
import csv
import inspect
import os
import pathlib
import pstats
import sys

from .. import obs
from .common import ExperimentResult
from .registry import EXPERIMENTS, experiment_ids, run_experiment


def write_csv(result: ExperimentResult, directory: str) -> str:
    """Write one figure's rows to ``directory/<figure>.csv``."""
    target = pathlib.Path(directory)
    target.mkdir(parents=True, exist_ok=True)
    path = target / f"{result.figure}.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(result.headers)
        writer.writerows(result.rows)
    return str(path)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.experiments",
        description="Regenerate HiveMind paper figures on the simulator")
    parser.add_argument("figure", nargs="?", default=None,
                        help="figure id (e.g. fig11) or 'all'")
    parser.add_argument("--list", action="store_true",
                        help="list available figures")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--csv", metavar="DIR", default=None,
                        help="also write each figure's rows to DIR")
    parser.add_argument("--workers", type=int, default=None,
                        help="process-pool size for parallel-aware "
                             "figures (default: one per core)")
    parser.add_argument("--bench-smoke", action="store_true",
                        help="run the ~30s perf smoke workload and append "
                             "its timings to BENCH_kernel.json")
    parser.add_argument("--bench-fig17", action="store_true",
                        help="record the fig17 256-drone legacy/vector "
                             "milestone pair in BENCH_kernel.json")
    parser.add_argument("--bench-shard", action="store_true",
                        help="record the fig17b 1024-drone 1-shard/4-shard "
                             "milestone pair in BENCH_kernel.json")
    parser.add_argument("--bench-cloudshard", action="store_true",
                        help="record the fig17b 1024-drone edge-sharded/"
                             "cloud-sharded milestone pair in "
                             "BENCH_kernel.json")
    parser.add_argument("--shards", type=int, default=None, metavar="N",
                        help="decompose each swarm run into cells over N "
                             "shard processes (sets REPRO_SHARDS=N; "
                             "results are byte-identical at any count)")
    parser.add_argument("--cloud-shards", type=int, default=None,
                        metavar="N",
                        help="decompose the cloud tier into per-region "
                             "controller workers over up to N processes "
                             "(sets REPRO_CLOUD_SHARDS=N; rows identical "
                             "at any N >= 1; 0 = monolithic gateway)")
    parser.add_argument("--hybrid-exact", type=int, default=None,
                        metavar="N",
                        help="keep an N-device exact focus and inject the "
                             "rest of the fleet as mean-field synthetic "
                             "load (sets REPRO_HYBRID_EXACT=N)")
    parser.add_argument("--meanfield", action="store_true",
                        help="collapse homogeneous swarm cells into the "
                             "O(1) mean-field population model (sets "
                             "REPRO_MEANFIELD=1; approximate — see "
                             "repro.edge.meanfield)")
    parser.add_argument("--serving", metavar="SPEC", default=None,
                        help="overlay open-loop background tenants on "
                             "the regional cloud tier (sets "
                             "REPRO_SERVING=SPEC, e.g. "
                             "'poisson:200,onoff:80:flash'; '1' arms "
                             "one default Poisson tenant; implies a "
                             "sharded cloud tier)")
    parser.add_argument("--no-serving-admission", action="store_true",
                        help="disarm the serving admission/shedding "
                             "gate (sets REPRO_SERVING_ADMISSION=0)")
    parser.add_argument("--no-serving-autoscale", action="store_true",
                        help="disarm the serving invoker-pool "
                             "autoscaler (sets "
                             "REPRO_SERVING_AUTOSCALE=0)")
    parser.add_argument("--profile", action="store_true",
                        help="run under cProfile and print the top 25 "
                             "functions by cumulative time")
    parser.add_argument("--chaos", action="store_true",
                        help="sweep fault plans over the scenario apps and "
                             "emit a resilience report (exit 1 on any "
                             "invariant violation)")
    parser.add_argument("--chaos-workers", nargs="?", const="", default=None,
                        metavar="SPEC",
                        help="kill/hang/slow real shard worker processes "
                             "mid-run and assert byte-identical recovery "
                             "against an undisturbed twin; optional SPEC "
                             "overrides each lane's default fault script "
                             "(action:scope:worker:op, comma-separated; "
                             "exit 1 on any divergence or missed recovery)")
    parser.add_argument("--lanes", metavar="NAMES", default=None,
                        help="comma-separated lane names for "
                             "--chaos-workers (default: sharded,"
                             "cloud_sharded,hybrid)")
    parser.add_argument("--worker-deadline", type=float, default=None,
                        metavar="S",
                        help="hang-detection deadline in seconds for "
                             "supervised workers (sets "
                             "REPRO_WORKER_DEADLINE=S; default: "
                             "max(60s, barrier window))")
    parser.add_argument("--incidents-out", metavar="PATH", default=None,
                        help="write the --chaos-workers incident report "
                             "(per-lane records + every WorkerIncident) "
                             "as JSON to PATH")
    parser.add_argument("--plans", metavar="NAMES", default=None,
                        help="comma-separated fault-plan names for --chaos "
                             "(default: every named plan)")
    parser.add_argument("--scenarios", metavar="KEYS", default=None,
                        help="comma-separated scenario keys for --chaos / "
                             "--chaos-workers (default: S1,S2,S3 / S1)")
    parser.add_argument("--no-vector-edge", action="store_true",
                        help="fall back to the legacy per-device flight "
                             "processes (sets REPRO_VECTOR_EDGE=0)")
    parser.add_argument("--trace", action="store_true",
                        help="arm causal request tracing (sets "
                             "REPRO_TRACE=1 so pool workers trace too)")
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="write the collected spans as Chrome "
                             "trace_event JSON (implies --trace); a run "
                             "manifest lands next to it")
    parser.add_argument("--profile-out", metavar="PATH", default=None,
                        help="dump per-replica cProfile stats to "
                             "PATH.r<index> (parallel-executor safe)")
    args = parser.parse_args(argv)

    if args.no_vector_edge:
        # Environment (not a runner kwarg) so pool workers inherit it.
        os.environ["REPRO_VECTOR_EDGE"] = "0"
    if args.shards is not None:
        # Environment (not a runner kwarg) so pool workers inherit it.
        os.environ["REPRO_SHARDS"] = str(args.shards)
    if args.cloud_shards is not None:
        os.environ["REPRO_CLOUD_SHARDS"] = str(args.cloud_shards)
    if args.hybrid_exact is not None:
        os.environ["REPRO_HYBRID_EXACT"] = str(args.hybrid_exact)
    if args.meanfield:
        os.environ["REPRO_MEANFIELD"] = "1"
    if args.serving is not None:
        os.environ["REPRO_SERVING"] = args.serving
    if args.no_serving_admission:
        os.environ["REPRO_SERVING_ADMISSION"] = "0"
    if args.no_serving_autoscale:
        os.environ["REPRO_SERVING_AUTOSCALE"] = "0"
    if args.worker_deadline is not None:
        os.environ["REPRO_WORKER_DEADLINE"] = str(args.worker_deadline)
    if args.trace_out:
        args.trace = True
    if args.trace:
        # Environment first (workers inherit), then the in-process tracer.
        os.environ["REPRO_TRACE"] = "1"
        obs.install()
    if args.profile_out:
        os.environ["REPRO_PROFILE_OUT"] = args.profile_out

    # --profile composes with every mode below: figures, 'all', and the
    # bench workloads all run under the same profiler when requested.
    profiler = None
    if args.profile:
        profiler = cProfile.Profile()
        profiler.enable()
    try:
        return _dispatch(args)
    finally:
        if profiler is not None:
            profiler.disable()
            stats = pstats.Stats(profiler, stream=sys.stdout)
            stats.strip_dirs().sort_stats("cumulative").print_stats(25)
        if args.trace_out:
            _export_trace(args)


def _export_trace(args) -> None:
    """Write the Chrome trace file(s) plus the run manifest."""
    tracer = obs.active_tracer()
    spans = tracer.spans if tracer is not None else []
    written = obs.write_trace_files(args.trace_out, spans)
    target = pathlib.Path(args.trace_out)
    mode = args.figure or \
        ("chaos" if args.chaos else
         "bench-smoke" if args.bench_smoke else
         "bench-fig17" if args.bench_fig17 else
         "bench-shard" if args.bench_shard else
         "bench-cloudshard" if args.bench_cloudshard else "?")
    manifest = obs.RunManifest.collect(
        mode, seed=args.seed,
        spans=len(spans), trace_files=[str(p) for p in written])
    manifest_path = manifest.write(
        str(target.with_name(f"{target.stem}.manifest.json")))
    print(f"[trace written to {written[0]} "
          f"({len(spans)} spans, {len(written)} file(s)); "
          f"manifest at {manifest_path}]")


def _dispatch_chaos_workers(args) -> int:
    """Run the worker-chaos lanes; exit 0 only on full byte-parity."""
    import json

    options = {"base_seed": args.seed}
    if args.scenarios:
        options["scenarios"] = [
            key.strip() for key in args.scenarios.split(",") if key]
    if args.lanes:
        options["lanes"] = [
            name.strip() for name in args.lanes.split(",") if name]
    if args.chaos_workers:  # non-empty SPEC overrides the lane defaults
        options["faults"] = args.chaos_workers
    if args.worker_deadline is not None:
        options["deadline_s"] = args.worker_deadline
    result = run_experiment("chaos-workers", **options)
    print(result.render())
    if args.csv:
        print(f"[csv written to {write_csv(result, args.csv)}]")
    if args.incidents_out:
        payload = {
            "records": result.data["records"],
            "skipped": result.data["skipped"],
            "identical_all": result.data["identical_all"],
            "all_recovered": result.data["all_recovered"],
            "total_incidents": result.data["total_incidents"],
            "manifest": (result.manifest.to_dict()
                         if result.manifest is not None else None),
        }
        target = pathlib.Path(args.incidents_out)
        target.parent.mkdir(parents=True, exist_ok=True)
        with open(target, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True,
                      default=str)
            handle.write("\n")
        print(f"[incident report written to {target}]")
    if result.data["skipped"]:
        print("[worker chaos skipped: this environment cannot spawn "
              "worker processes; nothing real to kill]")
        return 0
    identical = result.data["identical_all"]
    recovered = result.data["all_recovered"]
    print(f"[worker chaos: {result.data['total_incidents']} incidents "
          f"recovered; byte-parity "
          f"{'holds' if identical else 'BROKEN'}; recovery coverage "
          f"{'complete' if recovered else 'INCOMPLETE'}]")
    return 0 if identical and recovered else 1


def _print_bench(records) -> None:
    for record in records:
        rate = record["events_per_s"]
        line = (f"{record['label']}: {record['wall_s']}s, "
                f"{record['sim_events']} events "
                f"({rate if rate is not None else 'n/a'}/s)")
        layers = record.get("layer_events")
        if layers:
            parts = ", ".join(f"{layer}={n}"
                              for layer, n in layers.items())
            line += f" [{parts}]"
        print(line)


def _dispatch(args) -> int:
    if args.chaos_workers is not None:
        return _dispatch_chaos_workers(args)

    if args.chaos:
        from .chaos import DEFAULT_SCENARIOS, run as run_chaos
        options = {"base_seed": args.seed}
        if args.scenarios:
            options["scenarios"] = [
                key.strip() for key in args.scenarios.split(",") if key]
        if args.plans:
            options["plans"] = [
                name.strip() for name in args.plans.split(",") if name]
        result = run_chaos(**options)
        print(result.render())
        if args.csv:
            print(f"[csv written to {write_csv(result, args.csv)}]")
        violations = result.data["total_violations"]
        accounted = result.data["all_accounted"]
        print(f"[chaos sweep: {violations} invariant violations; "
              f"work conservation "
              f"{'holds' if accounted else 'BROKEN'}]")
        return 0 if violations == 0 and accounted else 1

    if args.bench_fig17:
        from .bench import bench_path, run_fig17_milestone
        _print_bench(run_fig17_milestone(seed=args.seed))
        print(f"[milestone pair appended to {bench_path()}]")
        return 0

    if args.bench_shard:
        from .bench import bench_path, run_shard_milestone
        _print_bench(run_shard_milestone(seed=args.seed))
        print(f"[milestone pair appended to {bench_path()}]")
        return 0

    if args.bench_cloudshard:
        from .bench import bench_path, run_cloudshard_milestone
        _print_bench(run_cloudshard_milestone(seed=args.seed))
        print(f"[milestone pair appended to {bench_path()}]")
        return 0

    if args.bench_smoke:
        from .bench import bench_path, run_smoke
        _print_bench(run_smoke(max_workers=args.workers))
        print(f"[trajectory appended to {bench_path()}]")
        return 0

    if args.list or args.figure is None:
        print("Available experiments:")
        for figure in experiment_ids():
            print(f"  {figure}")
        return 0

    figures = experiment_ids() if args.figure == "all" else [args.figure]
    for figure in figures:
        options = {"base_seed": args.seed}
        runner_params = inspect.signature(EXPERIMENTS[figure]).parameters
        if args.workers is not None and "max_workers" in runner_params:
            options["max_workers"] = args.workers
        result = run_experiment(figure, **options)
        print(result.render())
        if args.csv:
            print(f"[csv written to {write_csv(result, args.csv)}]")
        layers = ", ".join(f"{layer}={n}"
                           for layer, n in result.layer_events.items())
        print(f"[{figure} completed in {result.elapsed_s:.1f}s, "
              f"{result.sim_events} kernel events ({layers})]\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
