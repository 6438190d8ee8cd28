"""The columnar ``merge`` against the row-wise join it replaced.

``merge`` joins the edge and cloud halves of every call with index
arrays and orders rows with one ``np.lexsort``. The reference below is
the row-wise join it replaced, kept here only: one Python tuple per row,
one ``LatencyBreakdown`` sum per call and a ``(cell, seq)`` dict of
completions. Over random cells (tied start times within and across
cells, calls with no edge half, empty cells, sparse sequence numbers)
both must give the same rows and breakdown records, bit for bit, and
the serving-latency join must match the dict join. Every settled call
has a completion; one without makes ``merge`` raise.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.serverless.wire import Calls, Completions
from repro.sim.shard import merge, plan_run
from repro.telemetry import (BreakdownAggregate, LatencyBreakdown,
                             MetricSeries, breakdown_array)
from tests.sim.test_shard_determinism import scenario_variant
from tests.sim.test_shard_stages import (CONFIG, _cell_result, _ledger,
                                         _stats)

N_CELLS = 4


# -- the row-wise reference ---------------------------------------------

def _merge_latencies(results, done, name):
    """Row-wise join: ``results`` are ``(cell, RunResult, halves)``
    triples, each half a settled call's ``(seq, start_s, edge_done_s,
    charges)``; ``done`` maps ``(cell, seq)`` to ``(done_s,
    charges)``."""
    rows = []
    for cell, result, calls in results:
        series = result.task_latencies
        values, times = series.values, series.times
        for position in range(len(series)):
            rows.append((float(times[position]), cell, position,
                         float(values[position]), None))
        for seq, start_s, edge_done_s, edge_breakdown in calls:
            cloud_half = done.get((cell, seq))
            if cloud_half is None:
                continue
            done_s, cloud_breakdown = cloud_half
            latency = max(edge_done_s, done_s) - start_s
            breakdown = (LatencyBreakdown(**edge_breakdown) +
                         LatencyBreakdown(**cloud_breakdown))
            rows.append((start_s, cell, 10 ** 9 + seq, latency, breakdown))
    rows.sort(key=lambda row: row[:3])
    local_records = {cell: result.breakdowns._records
                     for cell, result, _ in results}
    latencies = MetricSeries(name)
    breakdowns = BreakdownAggregate()
    for time, cell, position, value, breakdown in rows:
        latencies.add(value, time=time)
        if breakdown is None:
            breakdown = local_records[cell][position]
        breakdowns.add(breakdown)
    return latencies, breakdowns


def _serving_latencies(calls, served):
    """``calls`` are ``(cell, seq, arrival_s)`` triples."""
    done = {(cell, seq): done_s for cell, seq, done_s, _ in served}
    return [done[(cell, seq)] - arrival_s
            for cell, seq, arrival_s in calls if (cell, seq) in done]


def _completions(served):
    """Columns of ``(cell, seq, done_s, charges)`` completions."""
    if not served:
        return Completions.concat(())
    cells, seqs, done_s, charges = zip(*served)
    return Completions.build(cells, seqs, done_s, breakdown_array(
        [LatencyBreakdown(**each) for each in charges]))


# -- random inputs --------------------------------------------------------

#: A few start times shared by many rows, so ties within and across
#: cells, local and deferred, are common.
_TIED = st.sampled_from([0.0, 1.0, 2.5, 7.25])
_times = st.one_of(_TIED, st.floats(0.0, 500.0))
_seconds = st.floats(0.0, 50.0)
_charges = st.fixed_dictionaries({
    name: _seconds for name in ("network", "management", "data_io",
                                "execution")})


@st.composite
def _cell(draw, cell):
    """One cell: its local ``(time, latency)`` rows, its calls'
    sequence numbers and settled edge halves, and the cloud tier's
    completions for them."""
    local = draw(st.lists(st.tuples(_times, _seconds), max_size=6))
    # Sparse, but often below the local row count: a deferred row must
    # still follow every local row of its cell at an equal start.
    seqs = sorted(draw(st.sets(st.integers(0, 6) | st.integers(0, 10 ** 6),
                               max_size=6)))
    halves, served = [], []
    for seq in seqs:
        start = draw(st.none() | _times)
        if start is not None:
            halves.append((seq, start, start + draw(_seconds),
                           draw(_charges)))
        # A settled call always has a completion; an unsettled one may.
        if start is not None or draw(st.booleans()):
            served.append((cell, seq, draw(_times), draw(_charges)))
    # Calls settle in task-completion order, not submit order.
    return local, seqs, draw(st.permutations(halves)), served


@st.composite
def _run(draw):
    cells = [draw(_cell(cell)) for cell in range(N_CELLS)]
    served = [done for *_, part in cells for done in part]
    # Completions arrive in any order, with some for calls no cell
    # ledger holds (the serving and background streams).
    served += draw(st.lists(st.tuples(
        st.integers(1_000_000, 1_000_002), st.integers(0, 20), _times,
        _charges), max_size=4, unique_by=lambda done: done[:2]))
    served = draw(st.permutations(served))
    return cells, served


def _results(cells):
    """The cells' ``(cell, RunResult, halves)`` triples."""
    return [(cell, _cell_result(local), halves)
            for cell, (local, _, halves, _) in enumerate(cells)]


def _bits(series):
    return series.values.tobytes(), series.times.tobytes()


def _record_bits(breakdowns):
    return np.array([[record.network, record.management, record.data_io,
                      record.execution]
                     for record in breakdowns._records]).tobytes()


@pytest.fixture(scope="module")
def plan():
    return plan_run(CONFIG, scenario_variant("S1"), 16, cell_devices=4)


class TestColumnarMerge:
    @settings(max_examples=200, deadline=None)
    @given(_run())
    def test_rows_match_the_row_wise_join(self, plan, run):
        cells, served = run
        results = _results(cells)
        done = {(cell, seq): (done_s, breakdown)
                for cell, seq, done_s, breakdown in served}
        expected, expected_breakdowns = _merge_latencies(results, done, "x")
        merged = merge(plan,
                       [(cell, result, _ledger(*(
                           (seq, start_s, edge_done_s,
                            LatencyBreakdown(**charges))
                           for seq, start_s, edge_done_s, charges in halves)))
                        for cell, result, halves in results],
                       _completions(served), _stats(len(served)))
        assert _bits(merged.task_latencies) == _bits(expected)
        assert len(merged.breakdowns) == len(expected_breakdowns)
        assert (_record_bits(merged.breakdowns)
                == _record_bits(expected_breakdowns))

    @settings(max_examples=200, deadline=None)
    @given(_run())
    def test_serving_join_matches_the_dict_join(self, run):
        cells, served = run
        calls = [(cell, seq, 0.0) for cell, (_, seqs, _, _)
                 in enumerate(cells) for seq in seqs]
        calls += [(cell, seq, 0.5) for cell in (1_000_000, 1_000_001)
                  for seq in range(8)]
        cell, seq, arrival_s = zip(*calls) if calls else ((), (), ())
        columns = Calls.build(cell, seq, arrival_s, 0.1, None, 0.1, 0.1)
        joined = _completions(served).latencies(columns)
        assert (joined.tobytes()
                == np.array(_serving_latencies(calls, served),
                            dtype=float).tobytes())


class TestUnjoined:
    def test_settled_call_without_completion_raises(self, plan):
        halves = [(2, 1.0, 1.5, LatencyBreakdown()),
                  (5, 2.0, 2.5, LatencyBreakdown())]
        results = [(0, _cell_result([]), _ledger(*halves))] + [
            (cell, _cell_result([]), _ledger())
            for cell in range(1, N_CELLS)]
        with pytest.raises(ValueError,
                           match=r"\(cell=0, seq=5\) has no completion"):
            merge(plan, results, _completions([(0, 2, 3.0, {})]),
                  _stats(1))


class TestJoin:
    def test_a_key_served_twice_raises(self):
        served = _completions([(0, 3, 1.0, {}), (1, 3, 1.5, {}),
                               (0, 3, 2.0, {})])
        with pytest.raises(ValueError, match=r"cell=0, seq=3"):
            served.rows_for(np.array([0, 0]), np.array([3, 4]))

    def test_negative_keys_raise(self):
        served = _completions([(0, 3, 1.0, {})])
        with pytest.raises(ValueError):
            served.rows_for(np.array([0]), np.array([-1]))
