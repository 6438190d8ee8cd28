"""Compare two benchmark result sets: a parent commit and a change.

    python bench/compare.py PARENT_OUT CHANGE_OUT

Each argument is a ``--out`` directory of ``bench/run.py``; its
``runs.jsonl`` holds one line per workload per invocation. Take the two
sets as alternating pairs, at least :data:`MIN_PAIRS` of them, swapping
which side runs first, for example::

    for i in 0 1 2 3 4 5 6 7 8 9; do
      order="parent change"; [ $((i % 2)) = 1 ] && order="change parent"
      for side in $order; do
        (cd $side && python3 bench/run.py --seconds 25 --trace 0 \
                                          --out ../$side.out)
      done
    done

The i-th run of a workload in one set is paired with the i-th run of the
same workload in the other. For every end-to-end metric of
``BENCHMARK.json`` and every workload, one row gives each side's median
and quartiles and a verdict:

- ``better``: the change won at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than the parent's spread
  between its quartiles. Only this verdict supports a claimed gain.
- ``unresolved``: the parent's spread is wider than the metric's bound,
  so a regression of that size could not be seen, unless every run of
  the change is better than every run of the parent (``better (all)``).
- ``regressed``: the change's median is worse than the parent's by more
  than the bound.
- ``within bound`` otherwise.

A change with more failed runs than the parent claims no gain.
It refuses (exit 2) to compare sets taken at different core counts or
pairs run at different seeds, and exits 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Dict, List, Sequence

from run import load_spec, quartiles

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(out: Path) -> List[Dict]:
    with open(out / "runs.jsonl") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def verdict(parent: Sequence[float], change: Sequence[float], bound: float,
            lower_is_better: bool = True) -> str:
    """The verdict for one metric on one workload (see module doc)."""
    sign = 1.0 if lower_is_better else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    p_q1, p_median, p_q3 = quartiles(parent)
    _, c_median, _ = quartiles(change)
    gain = sign * (p_median - c_median)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and gain > p_q3 - p_q1):
        return "better"
    if p_median and (p_q3 - p_q1) / abs(p_median) > bound:
        if all(sign * (p - c) > 0 for p in parent for c in change):
            return "better (all)"
        return "unresolved"
    if p_median and -gain / abs(p_median) > bound:
        return "regressed"
    return "within bound"


def compare(parent_runs: List[Dict], change_runs: List[Dict],
            spec: Dict) -> List[Dict]:
    """One row per (workload, end-to-end metric)."""
    cores = {run["cores"] for run in parent_runs + change_runs}
    if len(cores) > 1:
        raise ValueError(f"result sets taken at different core counts "
                         f"{sorted(cores)}")
    rows = []
    workloads = [w["name"] for w in spec["workloads"]]
    for workload in workloads:
        parent = [r for r in parent_runs if r["workload"] == workload]
        change = [r for r in change_runs if r["workload"] == workload]
        n = min(len(parent), len(change))
        if not n:
            continue
        parent, change = parent[:n], change[:n]
        if [r["seed"] for r in parent] != [r["seed"] for r in change]:
            raise ValueError(f"{workload}: paired runs used different seeds")
        failed = (sum(r["failed"] for r in parent),
                  sum(r["failed"] for r in change))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            p = [r["metrics"][name] for r in parent]
            c = [r["metrics"][name] for r in change]
            rows.append({
                "workload": workload, "metric": name, "pairs": n,
                "parent": quartiles(p), "change": quartiles(c),
                "failed": failed,
                "verdict": verdict(p, c, metric["bound"],
                                   metric["better"] == "lower"),
            })
            if failed[1] > failed[0] and rows[-1]["verdict"] != "regressed":
                rows[-1]["verdict"] = "no gain: more runs failed"
    return rows


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    args = parser.parse_args(argv)
    try:
        rows = compare(load_runs(args.parent), load_runs(args.change),
                       load_spec())
    except ValueError as error:
        print(f"refusing to compare: {error}", file=sys.stderr)
        return 2
    print(f"{'workload':<14} {'metric':<12} {'pairs':>5} "
          f"{'parent q1/median/q3':>28} {'change q1/median/q3':>28} "
          f"{'failed':>7}  verdict")
    for row in rows:
        parent = "/".join(f"{v:.4g}" for v in row["parent"])
        change = "/".join(f"{v:.4g}" for v in row["change"])
        note = (" (fewer than 10 pairs: no gain can be claimed)"
                if row["pairs"] < MIN_PAIRS else "")
        print(f"{row['workload']:<14} {row['metric']:<12} {row['pairs']:>5} "
              f"{parent:>28} {change:>28} "
              f"{row['failed'][0]:>3}/{row['failed'][1]:<3}  "
              f"{row['verdict']}{note}")
    return 1 if any(row["verdict"] == "regressed" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
