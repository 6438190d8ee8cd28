"""Smoke tests: every example script runs end to end.

Each example is executed as a subprocess (exactly how a user would run it)
with a bounded wall-clock budget; stdout is checked for its headline
output so silent regressions surface.
"""

import pathlib
import subprocess
import sys

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *args, timeout=420):
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True, text=True, timeout=timeout)


class TestExamples:
    def test_quickstart(self):
        result = run_example("quickstart.py")
        assert result.returncode == 0, result.stderr
        assert "chosen:" in result.stdout
        assert "[hivemind]" in result.stdout
        assert "items found" in result.stdout

    def test_search_and_rescue(self):
        result = run_example("search_and_rescue.py")
        assert result.returncode == 0, result.stderr
        assert "field covered  : yes" in result.stdout
        assert "field covered  : NO" in result.stdout

    def test_crowd_monitoring(self):
        result = run_example("crowd_monitoring.py")
        assert result.returncode == 0, result.stderr
        for mode in ("none", "self", "swarm"):
            assert f"[retraining={mode}]" in result.stdout
        assert "unique people counted" in result.stdout

    def test_custom_application(self):
        result = run_example("custom_application.py")
        assert result.returncode == 0, result.stderr
        assert "execution models" in result.stdout
        assert "thrift_rpc" in result.stdout
        assert "colocated=True" in result.stdout

    def test_robotic_cars(self):
        result = run_example("robotic_cars.py")
        assert result.returncode == 0, result.stderr
        assert "treasure_hunt" in result.stdout
        assert "maze" in result.stdout

    def test_scalability_sweep(self):
        result = run_example("scalability_sweep.py", "32")
        assert result.returncode == 0, result.stderr
        assert "hivemind" in result.stdout
        assert "cloud share" in result.stdout
