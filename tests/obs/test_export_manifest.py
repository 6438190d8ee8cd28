"""Chrome trace-event exporter shape and run-manifest round-trips."""

import datetime
import json

import pytest

from repro.obs import (RunManifest, Span, SpanTracer, git_revision,
                       runtime_flags, to_chrome_trace, write_chrome_trace,
                       write_trace_files)
from repro.sim.flags import FLAGS

pytestmark = pytest.mark.quick


def _sample_spans(replicas=(0,)):
    spans = []
    for replica in replicas:
        tracer = SpanTracer()
        root = tracer.start_trace("task", "task", 0.0, app="S1")
        root.emit("upload", "network", 0.1, 0.4, mb=2.0)
        root.emit("execute", "execution", 0.4, 0.9)
        root.close(1.0)
        for span in tracer.spans:
            spans.append(Span(span.trace_id, span.span_id, span.parent_id,
                              span.name, span.layer, span.start, span.end,
                              span.attrs, replica=replica))
    return spans


class TestChromeTrace:
    def test_schema_shape(self):
        doc = to_chrome_trace(_sample_spans())
        assert isinstance(doc["traceEvents"], list)
        assert doc["displayTimeUnit"] == "ms"
        phases = {event["ph"] for event in doc["traceEvents"]}
        assert phases <= {"X", "M"}
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(complete) == 3
        for event in complete:
            assert isinstance(event["name"], str)
            assert event["dur"] >= 0.0
            assert {"pid", "tid", "ts", "cat", "args"} <= set(event)
            assert "trace_id" in event["args"]
            assert "span_id" in event["args"]

    def test_timestamps_are_microseconds(self):
        doc = to_chrome_trace(_sample_spans())
        upload = next(e for e in doc["traceEvents"]
                      if e.get("name") == "upload")
        assert upload["ts"] == pytest.approx(0.1e6)
        assert upload["dur"] == pytest.approx(0.3e6)

    def test_track_metadata_names_layers(self):
        doc = to_chrome_trace(_sample_spans())
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {e["name"] for e in meta}
        assert names == {"process_name", "thread_name"}
        threads = {e["args"]["name"] for e in meta
                   if e["name"] == "thread_name"}
        assert threads == {"task", "network", "execution"}

    def test_parent_id_travels_in_args(self):
        doc = to_chrome_trace(_sample_spans())
        upload = next(e for e in doc["traceEvents"]
                      if e.get("name") == "upload")
        task = next(e for e in doc["traceEvents"]
                    if e.get("name") == "task")
        assert upload["args"]["parent_id"] == task["args"]["span_id"]

    def test_write_is_valid_json(self, tmp_path):
        path = write_chrome_trace(str(tmp_path / "trace.json"),
                                  _sample_spans())
        with open(path) as handle:
            doc = json.load(handle)
        assert doc["traceEvents"]

    def test_single_replica_writes_one_file(self, tmp_path):
        written = write_trace_files(str(tmp_path / "trace.json"),
                                    _sample_spans())
        assert len(written) == 1

    def test_multi_replica_writes_siblings(self, tmp_path):
        spans = _sample_spans(replicas=(0, 1))
        written = write_trace_files(str(tmp_path / "trace.json"), spans)
        assert [p.rsplit("/", 1)[-1] for p in written] == \
            ["trace.json", "trace.r0.json", "trace.r1.json"]
        with open(written[2]) as handle:
            doc = json.load(handle)
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert pids == {1}


class TestManifest:
    def test_collect_stamps_provenance(self):
        manifest = RunManifest.collect("fig11", seed=7, sim_events=123)
        assert manifest.figure == "fig11"
        assert manifest.seed == 7
        assert manifest.sim_events == 123
        assert manifest.git_rev == git_revision()
        assert set(manifest.flags) == {"trace"}
        assert manifest.created  # ISO timestamp, non-empty
        # Timezone-aware UTC, not a naive local time: manifests from
        # different hosts must be comparable.
        created = datetime.datetime.fromisoformat(manifest.created)
        assert created.tzinfo is not None
        assert created.utcoffset() == datetime.timedelta(0)

    def test_armed_knobs_are_stamped(self, monkeypatch):
        for flag in FLAGS.values():
            monkeypatch.delenv(flag.env, raising=False)
        for name, raw in (("REPRO_SHARDS", "2"), ("REPRO_CLOUD_SHARDS", "2"),
                          ("REPRO_SERVING", "1"), ("REPRO_MAX_WORKERS", "1")):
            monkeypatch.setenv(name, raw)
        # Knobs left at their default stay unstamped.
        assert RunManifest.collect("fig17b").flags == {
            "trace": False, "shards": 2, "cloud_shards": 2,
            "serving": "1", "max_workers": 1}

    def test_cli_knobs_reach_the_trace_manifest(self, monkeypatch,
                                                tmp_path):
        from repro.experiments.__main__ import main
        for flag in FLAGS.values():
            # Records each variable so the CLI's exports are undone.
            monkeypatch.setenv(flag.env, "")
        target = tmp_path / "fig17c.json"
        assert main(["fig17c", "--shards", "2", "--cloud-shards", "2",
                     "--trace-out", str(target)]) == 0
        manifest = RunManifest.from_json(
            (tmp_path / "fig17c.manifest.json").read_text())
        assert manifest.flags["shards"] == 2
        assert manifest.flags["cloud_shards"] == 2

    def test_runtime_flags_reflect_tracer(self):
        from repro import obs
        assert runtime_flags()["trace"] is False
        obs.install()
        assert runtime_flags()["trace"] is True

    def test_json_round_trip(self):
        manifest = RunManifest.collect(
            "fig17a", seed=3, elapsed_s=1.25, sim_events=99,
            layer_events={"network": 40}, spans=12,
            trace_files=["trace.json"])
        clone = RunManifest.from_json(manifest.to_json())
        assert clone == manifest

    def test_unknown_keys_survive_in_extra(self):
        payload = json.loads(RunManifest.collect("fig01").to_json())
        payload["future_field"] = {"nested": 1}
        clone = RunManifest.from_dict(payload)
        assert clone.extra["future_field"] == {"nested": 1}
        assert clone.figure == "fig01"

    def test_write_and_read_back(self, tmp_path):
        manifest = RunManifest.collect("fig04", seed=0)
        path = manifest.write(str(tmp_path / "run.manifest.json"))
        with open(path) as handle:
            clone = RunManifest.from_json(handle.read())
        assert clone == manifest
