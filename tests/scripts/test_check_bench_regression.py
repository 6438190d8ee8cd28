"""Regression tests for scripts/check_bench_regression.py.

The script gates a milestone pair: the newest ``PREFIX:1shard``
baseline against the newest multi-shard leg (or a named baseline leg
via ``--baseline``), failing when the wall-clock speedup is below
``--min-speedup`` and skipping when a leg is missing.

The script is exercised the way CI runs it — as a subprocess — so
argument parsing and exit codes are covered too.
"""

import json
import pathlib
import subprocess
import sys

import pytest

pytestmark = pytest.mark.quick

SCRIPT = (pathlib.Path(__file__).resolve().parents[2]
          / "scripts" / "check_bench_regression.py")

PREFIX = "milestone:fig17b-shard-1024"


def _record(leg, wall_s, prefix=PREFIX):
    return {"label": f"{prefix}:{leg}", "date": "2026-01-01",
            "wall_s": wall_s}


def run_checker(tmp_path, records, *extra_args):
    path = tmp_path / "BENCH_kernel.json"
    path.write_text(json.dumps({"runs": records}))
    return subprocess.run(
        [sys.executable, str(SCRIPT), str(path), *extra_args],
        capture_output=True, text=True)


class TestPair:
    def test_speedup_at_the_floor_passes(self, tmp_path):
        proc = run_checker(tmp_path, [_record("1shard", 12.0),
                                      _record("4shard", 10.0)],
                           "--pair", PREFIX, "--min-speedup", "1.2")
        assert proc.returncode == 0, proc.stdout
        assert "speedup 1.20x" in proc.stdout and "OK" in proc.stdout

    def test_speedup_below_the_floor_fails(self, tmp_path):
        proc = run_checker(tmp_path, [_record("1shard", 11.0),
                                      _record("4shard", 10.0)],
                           "--pair", PREFIX, "--min-speedup", "1.2")
        assert proc.returncode == 1
        assert "REGRESSION" in proc.stdout

    def test_newest_legs_are_compared(self, tmp_path):
        records = [_record("1shard", 30.0), _record("4shard", 10.0),
                   _record("4shard", 20.0)]
        proc = run_checker(tmp_path, records, "--pair", PREFIX)
        assert proc.returncode == 0, proc.stdout
        assert "speedup 1.50x" in proc.stdout

    @pytest.mark.parametrize("legs", [["1shard"], ["4shard"], []])
    def test_missing_leg_skips(self, tmp_path, legs):
        records = [_record(leg, 10.0) for leg in legs]
        records.append(_record("1shard", 5.0, prefix="milestone:other"))
        proc = run_checker(tmp_path, records, "--pair", PREFIX)
        assert proc.returncode == 0
        assert "skipping" in proc.stdout

    def test_named_baseline_leg(self, tmp_path):
        prefix = "milestone:fig17b-cloudshard-1024"
        records = [_record("edge-sharded", 13.0, prefix=prefix),
                   _record("cloud-sharded", 10.0, prefix=prefix)]
        proc = run_checker(tmp_path, records, "--pair", prefix,
                           "--baseline", "edge-sharded",
                           "--min-speedup", "1.3")
        assert proc.returncode == 0, proc.stdout
        proc = run_checker(tmp_path, records, "--pair", prefix,
                           "--baseline", "edge-sharded",
                           "--min-speedup", "1.4")
        assert proc.returncode == 1

    def test_pair_is_required(self, tmp_path):
        proc = run_checker(tmp_path, [])
        assert proc.returncode == 2
