"""Span shipping through the parallel experiment executor.

Each executor task's span delta travels back in its ``TaskResult`` and
is re-absorbed by the coordinator under the task's replica index, so a
merged trace keeps one process lane per replica and ids never collide.
"""

import pytest

from repro import obs
from repro.experiments.parallel import run_tasks

pytestmark = pytest.mark.quick


def _traced_job(seed):
    """Module-level (hence picklable) job that emits one tiny trace."""
    ctx = obs.root_span("task", "task", 0.0, seed=seed)
    ctx.emit("execute", "execution", 0.0, 1.0)
    ctx.close(1.0)
    return seed * 2


class TestSpanShipping:
    def test_serial_path_tags_replicas(self):
        obs.install()
        results = run_tasks([(_traced_job, (s,), {}) for s in range(3)],
                            max_workers=1)
        assert [r.value for r in results] == [0, 2, 4]
        tracer = obs.active_tracer()
        roots = [s for s in tracer.spans if s.parent_id is None]
        assert sorted(s.replica for s in roots) == [0, 1, 2]
        # Ids stayed unique through absorption, parents intact.
        assert len({s.span_id for s in tracer.spans}) == len(tracer)
        assert len(tracer.traces()) == 3
        for root in roots:
            children = [s for s in tracer.spans
                        if s.parent_id == root.span_id]
            assert [c.name for c in children] == ["execute"]

    def test_pool_path_ships_spans_back(self, monkeypatch):
        # Workers arm their tracer from the environment; whether the
        # pool is actually usable or the serial fallback runs, every
        # task's spans must land in the coordinator's tracer.
        monkeypatch.setenv("REPRO_TRACE", "1")
        obs.install()
        results = run_tasks([(_traced_job, (s,), {}) for s in range(4)],
                            max_workers=2)
        assert [r.value for r in results] == [0, 2, 4, 6]
        assert all(r.spans for r in results)
        tracer = obs.active_tracer()
        assert sorted(s.replica for s in tracer.spans
                      if s.parent_id is None) == [0, 1, 2, 3]
        assert len(tracer.traces()) == 4

    def test_untraced_tasks_ship_nothing(self):
        results = run_tasks([(_traced_job, (1,), {})], max_workers=1)
        assert results[0].spans is None
        assert obs.active_tracer() is None
