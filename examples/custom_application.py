"""Authoring a brand-new application against the public API.

A wildfire-watch job that does not exist in the benchmark suite: drones
collect thermal imagery, an on-board hotspot filter discards cold frames,
a cloud CNN confirms fire signatures, and an alert aggregator fuses
confirmations across the swarm. The example shows the full developer
workflow: declare the graph, attach directives, validate, compile,
inspect every synthesized execution model and generated API, then run the
chosen plan's cloud stages directly on the serverless platform.

Run:  python examples/custom_application.py
"""

from repro.cluster import Cluster
from repro.config import DEFAULT
from repro.dsl import (
    DirectiveSet,
    ExecTimeConstraint,
    HiveMindCompiler,
    Learn,
    Persist,
    Place,
    Serial,
    Task,
    TaskGraph,
    TaskProfile,
    validate_graph,
)
from repro.serverless import FunctionSpec, InvocationRequest, OpenWhiskPlatform
from repro.sim import Environment, RandomStreams


def build_wildfire_watch() -> "tuple[TaskGraph, DirectiveSet]":
    graph = TaskGraph("wildfire_watch",
                      constraints=[ExecTimeConstraint(5.0)])
    graph.add_task(Task(
        "collectThermal", data_out="thermalFrames",
        profile=TaskProfile(0.004, input_mb=8.0, output_mb=8.0,
                            edge_only=True),
        children=["hotspotFilter"]))
    graph.add_task(Task(
        "hotspotFilter", data_in="thermalFrames", data_out="candidates",
        profile=TaskProfile(0.03, input_mb=8.0, output_mb=1.5),
        parents=["collectThermal"], children=["fireConfirm"]))
    graph.add_task(Task(
        "fireConfirm", data_in="candidates", data_out="confirmations",
        profile=TaskProfile(0.35, input_mb=1.5, output_mb=0.05,
                            parallelism=4),
        parents=["hotspotFilter"], children=["alertAggregate"]))
    graph.add_task(Task(
        "alertAggregate", data_in="confirmations", data_out="alerts",
        profile=TaskProfile(0.08, input_mb=0.05, output_mb=0.01,
                            cloud_only=True),
        parents=["fireConfirm"]))
    directives = DirectiveSet()
    Place(directives, graph, "hotspotFilter", "Edge:all")
    Serial(graph, "fireConfirm", "alertAggregate")
    Learn(directives, graph, "fireConfirm", "Global")
    Persist(directives, graph, "alertAggregate")
    return graph, directives


def main() -> None:
    graph, directives = build_wildfire_watch()
    warnings = validate_graph(graph, directives)
    print(f"Graph {graph.name!r} validated "
          f"({'no warnings' if not warnings else warnings})")

    compilation = HiveMindCompiler(n_devices=16).compile(graph, directives)
    print(f"\nSynthesized {len(compilation.plans)} execution models:")
    for plan in compilation.plans:
        marker = " <== chosen" if plan is compilation.chosen else ""
        print(f"  {plan.placement}  "
              f"(predicted {plan.estimate.latency_s * 1000:.0f} ms, "
              f"{plan.estimate.network_mbs:.0f} MB/s){marker}")

    bundle = compilation.chosen.apis
    print(f"\nGenerated APIs: {bundle.count_by_kind()}")
    crossing = bundle.artifact_for("hotspotFilter", "fireConfirm")
    print(f"--- {crossing.kind} ({crossing.language}) "
          f"hotspotFilter -> fireConfirm ---")
    print("\n".join(crossing.source.splitlines()[:10]))

    # Run the cloud stages of the chosen plan on the serverless platform.
    env = Environment()
    platform = OpenWhiskPlatform(
        env, Cluster(env, DEFAULT.cluster), RandomStreams(3),
        scheduler="hivemind", keepalive_s=20.0)

    def one_activation():
        confirm = yield env.process(platform.invoke(InvocationRequest(
            spec=FunctionSpec("fire-confirm", image="fire-confirm"),
            service_s=0.35, input_mb=1.5, output_mb=0.05)))
        alert = yield env.process(platform.invoke(InvocationRequest(
            spec=FunctionSpec("alert-aggregate", image="fire-confirm"),
            service_s=0.08, parent=confirm)))
        return confirm, alert

    confirm, alert = env.run(env.process(one_activation()))
    print(f"\nOne cloud activation: fireConfirm {confirm.latency_s * 1000:.0f}"
          f" ms -> alertAggregate {alert.latency_s * 1000:.0f} ms "
          f"(colocated={alert.colocated})")


if __name__ == "__main__":
    main()
