"""Cross-tier API synthesis (paper section 4.1).

Once a placement is chosen, HiveMind composes the end-to-end application by
generating the APIs between consecutive tiers:

- **edge <-> cloud** crossings get an Apache-Thrift RPC interface — a
  ``.thrift`` IDL plus a C++ client/server stub skeleton;
- **cloud -> cloud** pairs get an OpenWhisk action wrapper that moves the
  parent's output through the platform's data-sharing protocol;
- **edge -> edge** pairs get a direct in-process Python binding.

Generation is fully automated and happens once, at initialization; the
number of generated APIs grows with the number of phases, exactly as the
paper describes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from .ast import Placement, Stream, TaskGraph

__all__ = ["ApiArtifact", "ApiBundle", "generate_apis"]


@dataclass(frozen=True)
class ApiArtifact:
    """One generated interface between two tasks."""

    parent: str
    child: str
    kind: str        # "thrift_rpc" | "openwhisk" | "local"
    language: str    # "cpp" | "python"
    source: str      # the generated code text


@dataclass
class ApiBundle:
    """Every interface for one execution model."""

    placement: Placement
    artifacts: List[ApiArtifact]

    def artifact_for(self, parent: str, child: str) -> ApiArtifact:
        for artifact in self.artifacts:
            if artifact.parent == parent and artifact.child == child:
                return artifact
        raise KeyError(f"no API generated for {parent!r} -> {child!r}")

    def count_by_kind(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for artifact in self.artifacts:
            counts[artifact.kind] = counts.get(artifact.kind, 0) + 1
        return counts


def _camel(name: str) -> str:
    return "".join(part[:1].upper() + part[1:]
                   for part in name.replace("-", "_").split("_") if part)


def _thrift_api(parent: str, child: str, payload: str,
                stream: "Stream | None" = None) -> ApiArtifact:
    service = f"{_camel(parent)}To{_camel(child)}"
    if stream is not None:
        # Continuous flow: subscription API with windowed delivery.
        source = f"""// Generated by HiveMind codegen — do not edit.
// Streaming crossing: {parent} -> {child}
// {stream.rate_hz} items/s x {stream.item_mb} MB, 1 s windows
namespace cpp hivemind.{parent}_{child}

struct {_camel(stream.name)}Window {{
  1: required binary items;
  2: required i64 first_sequence;
  3: required i32 item_count;
  4: required string device_id;
}}

service {service} {{
  // Subscribe the child to the parent's stream.
  i64 subscribe(1: string consumer_id);
  // Windowed delivery, one call per 1 s window.
  oneway void deliver(1: {_camel(stream.name)}Window window);
  void unsubscribe(1: i64 subscription);
}}
"""
        return ApiArtifact(parent, child, "thrift_stream", "cpp", source)
    source = f"""// Generated by HiveMind codegen — do not edit.
// Edge<->cloud crossing: {parent} -> {child}
namespace cpp hivemind.{parent}_{child}

struct {_camel(payload or 'Payload')} {{
  1: required binary data;
  2: required i64 sequence;
  3: required string device_id;
}}

service {service} {{
  // Non-blocking submission of the parent's output.
  oneway void submit(1: {_camel(payload or 'Payload')} payload);
  // Blocking exchange when the child must reply (route updates).
  binary exchange(1: {_camel(payload or 'Payload')} payload);
}}
"""
    return ApiArtifact(parent, child, "thrift_rpc", "cpp", source)


def _openwhisk_api(parent: str, child: str, payload: str) -> ApiArtifact:
    source = f'''"""Generated by HiveMind codegen — do not edit.

OpenWhisk action glue: {parent} -> {child}. The parent's output travels
through the platform's data-sharing protocol (CouchDB by default; remote
memory when the acceleration fabric is present); the child receives an
opaque object handle, never a physical location.
"""


def main(params):
    handle = params["{payload or 'result'}_handle"]
    data = hivemind_runtime.fetch(handle)   # protocol-selected transport
    result = {child}_logic(data, params.get("args", {{}}))
    out_handle = hivemind_runtime.publish(result)
    return {{"{child}_handle": out_handle}}
'''
    return ApiArtifact(parent, child, "openwhisk", "python", source)


def _local_api(parent: str, child: str, payload: str) -> ApiArtifact:
    source = f'''"""Generated by HiveMind codegen — do not edit.

On-device binding: {parent} -> {child} (same tier, direct call).
"""


def {child}_from_{parent}({payload or 'data'}):
    return {child}_logic({payload or 'data'})
'''
    return ApiArtifact(parent, child, "local", "python", source)


def generate_apis(graph: TaskGraph, placement: Placement) -> ApiBundle:
    """Generate every cross-task interface for one execution model."""
    artifacts: List[ApiArtifact] = []
    for parent, child in graph.edges():
        parent_task = graph.task(parent)
        payload = parent_task.data_out_name or ""
        parent_tier = placement.tier_of(parent)
        child_tier = placement.tier_of(child)
        if parent_tier != child_tier:
            artifacts.append(_thrift_api(
                parent, child, payload,
                stream=parent_task.output_stream))
        elif parent_tier == "cloud":
            artifacts.append(_openwhisk_api(parent, child, payload))
        else:
            artifacts.append(_local_api(parent, child, payload))
    return ApiBundle(placement=placement, artifacts=artifacts)
