"""Chrome ``trace_event`` JSON exporter (Perfetto / chrome://tracing).

Spans become complete (``"ph": "X"``) events with microsecond
timestamps. The process id is the replica index (each parallel-executor
replica gets its own process lane), the thread id is the span's layer
(one track per stack layer), and the causal ids travel in ``args`` so a
selected slice shows its trace/span/parent linkage.
"""

from __future__ import annotations

import json
import pathlib
from typing import Any, Dict, Iterable, List, Sequence

from .span import Span

__all__ = ["to_chrome_trace", "write_chrome_trace", "write_trace_files"]

#: Stable track (tid) order for the known layers; unknown layers are
#: appended after these in first-seen order.
_LAYER_TRACKS = ("task", "edge", "network", "serverless", "data_io",
                 "execution")


def _track_of(layer: str, extra: Dict[str, int]) -> int:
    try:
        return _LAYER_TRACKS.index(layer)
    except ValueError:
        if layer not in extra:
            extra[layer] = len(_LAYER_TRACKS) + len(extra)
        return extra[layer]


def to_chrome_trace(spans: Iterable[Span]) -> Dict[str, Any]:
    """Render spans as a Chrome trace-event JSON object."""
    events: List[Dict[str, Any]] = []
    extra_tracks: Dict[str, int] = {}
    seen_tracks: Dict[int, Dict[int, str]] = {}
    for span in spans:
        tid = _track_of(span.layer, extra_tracks)
        seen_tracks.setdefault(span.replica, {})[tid] = span.layer
        args: Dict[str, Any] = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
        }
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        args.update(span.attr_dict())
        events.append({
            "ph": "X",
            "name": span.name,
            "cat": span.layer,
            "pid": span.replica,
            "tid": tid,
            "ts": span.start * 1e6,
            "dur": max(0.0, span.end - span.start) * 1e6,
            "args": args,
        })
    metadata: List[Dict[str, Any]] = []
    for replica in sorted(seen_tracks):
        metadata.append({
            "ph": "M", "name": "process_name", "pid": replica, "tid": 0,
            "args": {"name": f"replica {replica}"},
        })
        for tid, layer in sorted(seen_tracks[replica].items()):
            metadata.append({
                "ph": "M", "name": "thread_name", "pid": replica,
                "tid": tid, "args": {"name": layer},
            })
    return {"traceEvents": metadata + events, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, spans: Iterable[Span]) -> str:
    """Write one Chrome trace file; returns the path written."""
    target = pathlib.Path(path)
    if target.parent != pathlib.Path(""):
        target.parent.mkdir(parents=True, exist_ok=True)
    with open(target, "w") as handle:
        json.dump(to_chrome_trace(spans), handle, indent=1, default=str)
        handle.write("\n")
    return str(target)


def write_trace_files(path: str, spans: Sequence[Span]) -> List[str]:
    """Write the merged trace plus one file per replica (when several).

    ``trace.json`` always gets the merged view; replicas beyond a lone
    replica 0 additionally get ``trace.r<k>.json`` siblings so each
    worker's timeline loads standalone. Returns every path written,
    merged file first.
    """
    written = [write_chrome_trace(path, spans)]
    replicas = sorted({span.replica for span in spans})
    if len(replicas) > 1:
        target = pathlib.Path(path)
        for replica in replicas:
            sibling = target.with_name(
                f"{target.stem}.r{replica}{target.suffix or '.json'}")
            write_chrome_trace(
                str(sibling),
                [span for span in spans if span.replica == replica])
            written.append(str(sibling))
    return written
