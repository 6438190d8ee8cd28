#!/usr/bin/env python
"""Gate a milestone pair's wall-clock speedup in ``BENCH_kernel.json``.

``--pair PREFIX`` finds the newest ``PREFIX:1shard`` baseline and the
newest multi-shard leg (e.g. the ``--bench-shard`` records) and fails
when the recorded wall-clock speedup falls below ``--min-speedup``.
Hosts differ (CI runners have 2-4 cores, quota-limited containers may
have one), so the CI floor is deliberately lower than the speedup a
dedicated box shows — the gate catches the sharded runtime regressing
toward parity, not machine variance. A pair with a missing leg skips.

End-to-end performance is measured by the repository benchmark
(``bench/run.py``), not by this trajectory file.

Usage::

    python scripts/check_bench_regression.py \
        --pair milestone:fig17b-shard-1024 --min-speedup 1.2
    python scripts/check_bench_regression.py \
        --pair milestone:fig17b-cloudshard-1024 \
        --baseline edge-sharded --min-speedup 1.3
"""

import argparse
import json
import pathlib
import sys

DEFAULT_PATH = pathlib.Path(__file__).resolve().parents[1] / "BENCH_kernel.json"


def check_pair(runs, prefix, min_speedup, baseline_suffix="1shard") -> int:
    """Gate the newest milestone pair under ``prefix``.

    With the default suffix the pair is the historical ``--bench-shard``
    shape (``PREFIX:1shard`` vs the newest ``PREFIX:<n>shard``). A custom
    ``baseline_suffix`` (e.g. ``edge-sharded`` for the ``--bench-cloudshard``
    pair) relaxes the candidate match to *any* other label under the
    prefix, since those legs are named, not counted.
    """
    def newest(predicate):
        hits = [r for r in runs if isinstance(r, dict) and r.get("wall_s")
                and predicate(r.get("label", ""))]
        return hits[-1] if hits else None

    baseline_label = f"{prefix}:{baseline_suffix}"
    baseline = newest(lambda lab: lab == baseline_label)
    if baseline_suffix == "1shard":
        candidate = newest(lambda lab: lab.startswith(f"{prefix}:")
                           and lab.endswith("shard")
                           and lab != baseline_label)
    else:
        candidate = newest(lambda lab: lab.startswith(f"{prefix}:")
                           and lab != baseline_label)
    if baseline is None or candidate is None:
        print(f"[bench] need a {baseline_suffix} + candidate record under "
              f"'{prefix}' to compare; skipping")
        return 0
    speedup = baseline["wall_s"] / candidate["wall_s"]
    verdict = "OK" if speedup >= min_speedup else "REGRESSION"
    print(f"[bench] {prefix}: {baseline_suffix} {baseline['wall_s']:.2f}s "
          f"({baseline.get('date', '?')}), {candidate['label'].split(':')[-1]} "
          f"{candidate['wall_s']:.2f}s ({candidate.get('date', '?')}), "
          f"speedup {speedup:.2f}x, floor {min_speedup:.2f}x -> {verdict}")
    return 0 if verdict == "OK" else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("path", nargs="?", default=str(DEFAULT_PATH),
                        help="trajectory file (default: repo BENCH_kernel.json)")
    parser.add_argument("--pair", metavar="PREFIX", required=True,
                        help="gate a --bench-shard pair: compare the "
                             "newest 'PREFIX:1shard' record against the "
                             "newest multi-shard record")
    parser.add_argument("--min-speedup", type=float, default=1.2,
                        help="wall-clock speedup floor for --pair "
                             "(default 1.2)")
    parser.add_argument("--baseline", metavar="SUFFIX", default="1shard",
                        help="baseline label suffix for --pair (default "
                             "'1shard'; use 'edge-sharded' for the "
                             "--bench-cloudshard pair)")
    args = parser.parse_args(argv)

    with open(args.path) as handle:
        runs = json.load(handle).get("runs", [])

    return check_pair(runs, args.pair, args.min_speedup, args.baseline)


if __name__ == "__main__":
    sys.exit(main())
