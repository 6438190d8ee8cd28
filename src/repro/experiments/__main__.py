"""CLI: ``python -m repro.experiments fig11`` regenerates one figure.

``--list`` enumerates the figures, ``all`` runs every harness (slow),
and ``--help`` lists every option. The runtime knobs (``--shards N``,
``--max-workers N``, ``--trace``, ...) are the CLI-facing entries of
:data:`repro.sim.flags.FLAGS`; each sets its ``REPRO_*`` variable, so
pool workers inherit it.
"""

from __future__ import annotations

import argparse
import cProfile
import csv
import os
import pathlib
import pstats
import sys

from .. import obs
from ..apps import app
from ..faults import WorkerFaultPlan, named_plan
from ..sim.flags import FLAGS, resolve
from .chaos import worker_lanes
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


def _add_flag(parser, flag) -> None:
    """One table knob as a CLI option whose value is None unless given."""
    if flag.kind == "switch":
        parser.add_argument(
            flag.option, dest=flag.key, action="store_const", const=True,
            help=f"{flag.help} (sets {flag.env}=1)")
    else:
        parser.add_argument(
            flag.option, dest=flag.key, metavar=flag.metavar,
            type={"count": int, "duration": float}.get(flag.kind, str),
            help=f"{flag.help} (sets {flag.env}={flag.metavar})")


def _names(text):
    """A comma-separated option value as a list; ``None`` if not given."""
    if text is None:
        return None
    return [name.strip() for name in text.split(",") if name.strip()]


def _check_inputs(args) -> None:
    """Resolve every option value that can be malformed, before anything
    runs; raises the ``ValueError`` the API raises for the same value."""
    for flag in FLAGS.values():
        value = getattr(args, flag.key, None)
        if value is not None:
            try:
                resolve(flag.env, value)
            except ValueError as error:
                raise ValueError(
                    f"{flag.option} {value}: {error}") from None
    if args.chaos_workers:
        WorkerFaultPlan.parse(args.chaos_workers)
    for key in args.scenarios or ():
        app(key)
    for name in args.plans or ():
        named_plan(name, duration_s=1.0)  # any horizon: checks the name
    worker_lanes(args.lanes)


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
    parser.add_argument("--trace-out", metavar="PATH", default=None,
                        help="write the collected spans as Chrome "
                             "trace_event JSON (implies --trace); a run "
                             "manifest lands next to it")
    knobs = parser.add_argument_group(
        "runtime knobs", "each sets its REPRO_* variable, so pool "
        "workers inherit it (see repro.sim.flags)")
    for flag in FLAGS.values():
        _add_flag(knobs, flag)
    args = parser.parse_args(argv)
    if args.figure not in (None, "all") and args.figure not in EXPERIMENTS:
        parser.error(f"unknown figure id {args.figure!r} "
                     f"(see --list for the valid ids)")
    args.scenarios = _names(args.scenarios)
    args.plans = _names(args.plans)
    args.lanes = _names(args.lanes)
    try:
        _check_inputs(args)
    except ValueError as error:
        parser.error(str(error))

    if args.trace_out:
        args.trace = True
    for flag in FLAGS.values():
        value = getattr(args, flag.key, None)
        if value is not None:
            os.environ[flag.env] = (str(int(value)) if flag.kind == "switch"
                                    else str(value))
    if args.trace:
        obs.install()

    # --profile composes with every mode below: figures, 'all' and the
    # chaos sweeps all run under the same profiler when requested.
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
    mode = args.figure or ("chaos" if args.chaos else "?")
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
        options["scenarios"] = args.scenarios
    if args.lanes:
        options["lanes"] = args.lanes
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
            "undisturbed": result.data["undisturbed"],
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
    undisturbed = result.data["undisturbed"]
    coverage = ("complete" if not undisturbed else
                f"INCOMPLETE (undisturbed: {', '.join(undisturbed)})")
    print(f"[worker chaos: {result.data['total_incidents']} incidents "
          f"recovered; byte-parity "
          f"{'holds' if identical else 'BROKEN'}; recovery coverage "
          f"{coverage}]")
    return 0 if identical and not undisturbed else 1


def _dispatch(args) -> int:
    if args.chaos_workers is not None:
        return _dispatch_chaos_workers(args)

    if args.chaos:
        from .chaos import run as run_chaos
        options = {"base_seed": args.seed}
        if args.scenarios:
            options["scenarios"] = args.scenarios
        if args.plans:
            options["plans"] = args.plans
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

    if args.list or args.figure is None:
        print("Available experiments:")
        for figure in experiment_ids():
            print(f"  {figure}")
        return 0

    figures = experiment_ids() if args.figure == "all" else [args.figure]
    for figure in figures:
        result = run_experiment(figure, base_seed=args.seed)
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
