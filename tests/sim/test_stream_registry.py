"""Stream-name derivation audit.

Every named stream maps to a generator seeded by
``sha256(f"{seed}:{name}")``, all in one namespace. This audit is
grep-driven: it scans ``src/`` for every ``stream(...)`` call site,
checks the names against a registry of
known patterns, expands the patterns to realistic swarm scales, and
asserts the derived seeds collide nowhere.
"""

import pathlib
import re

import pytest

from repro.sim.rng import RandomStreams

pytestmark = pytest.mark.quick

SRC = pathlib.Path(__file__).resolve().parents[2] / "src" / "repro"

#: Every stream-name pattern the codebase may request. f-string
#: placeholders are expanded over the ranges below; a new call site that
#: doesn't match any entry fails test_all_call_sites_registered, which is
#: the prompt to extend this registry (and rerun the collision audit).
REGISTRY = (
    "network.loss",
    "network.wifi",             # rng.py docstring example
    "serverless.couchdb",
    "serverless.invoker.server{i}",
    "runner.workload",
    "runner.drone{i}",
    "scenario.workload",
    "scenario.world",
    "scenario.identities",
    "scenario.recognizer",
    "scenario.drone{i}",
    "edge.drone{i}",
    "cars.workload",
    "cars.car{i}",
    "cars.maze{i}",
    "fig06b.gaps",
    "keepalive.gaps",
    "faults.injector",
    # Serving tenants interpolate the tenant *name* (a string); the
    # integer expansion below stands in for arbitrary names, and the
    # registry itself lives under its own seed offset (+314_159).
    "serving.{i}",
)

#: Expansion width for ``{i}`` patterns — past the largest fig17 sweep.
EXPAND = 2048

_CALL_RE = re.compile(r"\.stream\(\s*(f?)\"([^\"]+)\"")


def _call_sites():
    found = set()
    for path in SRC.rglob("*.py"):
        for is_f, name in _CALL_RE.findall(path.read_text()):
            if is_f:
                # Normalize any f-string placeholder to the {i} slot.
                name = re.sub(r"\{[^}]+\}", "{i}", name)
            found.add(name)
    return found


def _expanded_names():
    names = []
    for pattern in REGISTRY:
        if "{i}" in pattern:
            names.extend(pattern.format(i=i) for i in range(EXPAND))
        else:
            names.append(pattern)
    return names


class TestCallSiteCoverage:
    def test_scan_finds_call_sites(self):
        found = _call_sites()
        assert "network.loss" in found  # the grep itself works
        assert len(found) >= 10

    def test_all_call_sites_registered(self):
        registry_slots = {re.sub(r"\{[^}]+\}", "{i}", p) for p in REGISTRY}
        # openwhisk interpolates the whole server id ("server0", ...), so
        # its slot collapses further than the registry pattern spells out.
        registry_slots.add("serverless.invoker.{i}")
        unknown = _call_sites() - registry_slots
        assert not unknown, (
            f"unregistered stream name(s) {sorted(unknown)}: add them to "
            f"REGISTRY in {__file__} so the collision audit covers them")


class TestDerivationCollisions:
    @pytest.mark.parametrize("seed", (0, 1, 17))
    def test_no_seed_collisions_across_all_names(self, seed):
        streams = RandomStreams(seed)
        names = _expanded_names()
        derived = [streams._derive(name) for name in names]
        assert len(set(derived)) == len(names)

    def test_same_name_same_seed_is_stable(self):
        assert RandomStreams(9)._derive("network.loss") == \
            RandomStreams(9)._derive("network.loss")
        assert RandomStreams(9)._derive("network.loss") != \
            RandomStreams(10)._derive("network.loss")
