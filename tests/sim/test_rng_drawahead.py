"""Named-stream draw sequences, pinned.

Every model draws scalars straight from a named ``numpy`` stream. A
draw-ahead buffer used to sit in front of the hottest streams; its
contract was the exact scalar sequence, and the md5 digests below were
recorded from both the buffered and the scalar execution before the
buffer was deleted. They pin the derivation of stream seeds, numpy's bit
stream, and the full-run rows that depended on both.
"""

import hashlib

import pytest

from repro.sim.rng import RandomStreams

pytestmark = pytest.mark.quick

SEEDS = (0, 1, 2, 3, 4)


def _raw(seed, name="hot"):
    return RandomStreams(seed).stream(name)


def _digest(value) -> str:
    return hashlib.md5(repr(value).encode()).hexdigest()


def _drain(rng, pattern):
    """Draw one named pattern from a generator."""
    if pattern == "uniform":
        return [rng.random() for _ in range(300)]
    if pattern == "uniform-args":
        return [rng.uniform(0.1, 0.9) for _ in range(300)]
    if pattern == "lognormal":
        return [rng.lognormal(0.0, 0.18) for _ in range(300)]
    if pattern == "normal-mixed-params":
        out = []
        for i in range(150):
            out.append(rng.normal(float(i), 0.5))
            out.append(rng.standard_normal())
        return out
    if pattern == "geometric":
        return [rng.geometric(0.2) for _ in range(300)]
    if pattern == "pareto":
        return [rng.pareto(3.0) for _ in range(300)]
    if pattern == "pingpong":
        # Alternating distributions on one stream.
        out = []
        for _ in range(60):
            out.append(rng.lognormal(0.0, 0.16))
            out.append(rng.random())
        return out
    if pattern == "escape-hatch":
        out = [rng.lognormal(0.0, 0.16) for _ in range(10)]
        out.append(int(rng.integers(0, 1 << 30)))
        out.extend(rng.lognormal(0.0, 0.16) for _ in range(10))
        return out
    raise AssertionError(pattern)


#: md5 of the pattern drained from seeds 0-4 of the stream "hot".
PATTERNS = {
    "uniform": "cb4d8ec672766a5b674660e5c8826757",
    "uniform-args": "69ce0d58ce149bfc58c25cae95757ed0",
    "lognormal": "21142482764ff145eb3462cf0127edeb",
    "normal-mixed-params": "fd7e2a330747bc8922505e9086d5d9a9",
    "geometric": "1069916ab4566d412d7098d983ef87b7",
    "pareto": "9ffffb1910e169b0bdfd0619554e63ce",
    "pingpong": "c471aa6cdd3460d0a20d69ce5c305b37",
    "escape-hatch": "d27bb2afaf86e02d6666bb8f237e0958",
}


class TestScalarBatchedParity:
    @pytest.mark.parametrize("pattern", tuple(PATTERNS))
    def test_exact_sequence_equality(self, pattern):
        draws = [_drain(_raw(seed), pattern) for seed in SEEDS]
        assert _digest(draws) == PATTERNS[pattern]


class TestFactoryWiring:
    def test_stream_is_cached_per_name(self):
        streams = RandomStreams(3)
        assert streams.stream("a") is streams.stream("a")
        assert streams.stream("a") is not streams.stream("b")


class TestFullRunParity:
    @pytest.mark.parametrize("fault_rate,digest", (
        (0.0, "b8ea471c78f7afdfd92a6a1489ac6843"),
        (0.2, "6844b1168dd332af98f244636ad6c37e"),
    ), ids=("0.0", "0.2"))
    def test_run_identical_with_and_without_batching(self, fault_rate,
                                                     digest):
        # fault_rate > 0 makes the invoker streams interleave uniform
        # draws between service lognormals.
        from repro.apps import app
        from repro.platforms import SingleTierRunner, platform_config
        result = SingleTierRunner(
            platform_config("centralized_faas"), app("S4"), seed=11,
            duration_s=30.0, fault_rate=fault_rate).run()
        assert _digest(tuple(result.task_latencies.values)) == digest
