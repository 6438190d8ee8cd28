"""One measured run of one workload, in a fresh interpreter.

    python bench/sample.py WORKLOAD SEED --out DIR [--trace]

Set-up time runs from this file's first line to the simulation call:
imports, configuration and runner construction. The simulation call is
timed on its own, with the CPU time and peak memory of this process and
every worker it forks. Host times are given both as measured (``raw``)
and in reference seconds (see :mod:`speed`). The last line of standard
output is one JSON record; a run that raises exits non-zero and prints
none.

With ``--trace`` the call runs under :class:`layers.Tracer`, which
writes one cProfile file per process into DIR, instead of the speed
probe.
"""

import time

_FIRST_LINE = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

from speed import SpeedProbe, cpu_seconds, weighted_speed  # noqa: E402
from workloads import WORKLOADS, outcome, rows_md5  # noqa: E402


def main() -> None:
    probe = SpeedProbe()
    probe.start()
    parser = argparse.ArgumentParser()
    parser.add_argument("workload", choices=sorted(WORKLOADS))
    parser.add_argument("seed", type=int)
    parser.add_argument("--out", required=True, metavar="DIR")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    workload = WORKLOADS[args.workload]

    runner, simulate = workload.build(args.seed)
    from repro.sim.accounting import layer_breakdown, layer_counts
    from repro.sim.kernel import events_consumed
    events_before = events_consumed()
    layers_before = layer_counts()
    setup_speed = probe.mean_since(0)
    mark = len(probe.speeds)
    tracer = None
    if args.trace:
        probe.stop()
        from layers import Tracer
        tracer = Tracer(args.out, args.workload)
    else:
        probe.follow_forks(args.out, args.workload)
    own_before = cpu_seconds()
    children_before = cpu_seconds(resource.RUSAGE_CHILDREN)
    started = time.perf_counter()
    if tracer is None:
        result = simulate()
    else:
        with tracer:
            result = simulate()
    wall_s = time.perf_counter() - started
    probe.stop()
    # Workers have been joined by now, so their usage is in RUSAGE_CHILDREN.
    own_cpu = cpu_seconds() - own_before
    cpu_s = own_cpu + cpu_seconds(resource.RUSAGE_CHILDREN) - children_before
    peak_kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)

    # Imported only now: the sharded runner imports it during the call,
    # the monolithic runners never do. It adds worker-process counts.
    from repro.experiments.parallel import (total_events_consumed,
                                            total_layer_counts)
    events = total_events_consumed() - events_before
    layers_after = total_layer_counts()
    by_layer = layer_breakdown(
        {layer: layers_after[layer] - layers_before.get(layer, 0)
         for layer in layers_after}, events)
    counts, problems = outcome(workload, runner, result)
    counts["events.total"] = events
    counts.update({f"events.{layer}": n for layer, n in by_layer.items()})

    from repro.obs.manifest import runtime_flags
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "raw": {"setup_s": started - _FIRST_LINE, "wall_s": wall_s,
                "cpu_s": cpu_s},
        "peak_rss_mb": peak_kib / 1024.0,
        "rows_md5": rows_md5(result),
        "counts": counts,
        "problems": problems,
        "flags": runtime_flags(),
    }
    if tracer is None:
        parts = ([(own_cpu, probe.mean_since(mark))]
                 + probe.worker_parts())
        speed = weighted_speed(parts)
        record.update({
            "setup_s": record["raw"]["setup_s"] * (setup_speed or 1.0),
            "wall_s": wall_s * speed,
            "cpu_s": sum(cpu * (part or speed) for cpu, part in parts),
            "speed": speed,
        })
    else:
        record["profiles"] = {"driver": tracer.driver_path,
                              "workers": tracer.worker_paths()}
        record["ipc"] = {"ipc.messages": tracer.pipes.messages,
                         "ipc.bytes_sent": tracer.pipes.bytes_sent,
                         "ipc.bytes_received": tracer.pipes.bytes_received}
    sys.stdout.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
