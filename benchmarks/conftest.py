"""Benchmark harness configuration.

Every benchmark regenerates one of the paper's tables/figures: it runs the
figure's experiment once (simulations are deterministic per seed — there is
no point in repeated timing rounds), prints the same rows/series the paper
reports, and asserts the expected *shape* (who wins, rough factors, where
crossovers fall — not absolute numbers, which belonged to the authors'
physical testbed).

Run with ``pytest benchmarks/ --benchmark-only``; add ``-s`` to see the
tables inline.
"""

import pytest


@pytest.fixture
def run_figure(benchmark):
    """Run a figure harness once under the benchmark timer and print it."""

    def runner(fn, **kwargs):
        result = benchmark.pedantic(
            lambda: fn(**kwargs), rounds=1, iterations=1)
        print()
        print(result.render())
        return result

    return runner
