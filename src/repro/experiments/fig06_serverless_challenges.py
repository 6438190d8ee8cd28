"""Fig 6: the challenges of serverless for edge applications.

(a) Latency variability (coefficient of variation) on reserved vs
serverless deployments at modest load. Expected shape: serverless CV is
consistently higher (instantiation churn + interference + scheduler).

(b) Latency breakdown into instantiation, inter-function data sharing, and
execution, per application, measured under intermittent arrivals (where
stock OpenWhisk reclaims idle containers and cold starts dominate the
management share: ~22% of median latency on average, >40% for the
short-running weather analytics, <20% for long maze tasks).

(c) Data-sharing protocol comparison — CouchDB vs direct RPC vs in-memory
— for parent->child function pairs. Expected shape: CouchDB slowest with a
heavy tail, RPC considerably faster, in-memory nearly free.
"""

from __future__ import annotations

from typing import Dict, Generator, List

from ..apps import all_apps
from ..cluster import Cluster
from ..config import DEFAULT
from ..network import ClusterNetwork
from ..platforms import SingleTierRunner, platform_config
from ..serverless import FunctionSpec, InvocationRequest, OpenWhiskPlatform
from ..sim import Environment, RandomStreams
from ..telemetry import MetricSeries
from .common import ExperimentResult

#: Intermittent arrivals: exponential gaps whose tail exceeds the stock
#: keep-alive, so a realistic ~quarter of tasks cold-start.
MEAN_GAP_S = 0.8


def run_variability(duration_s: float = 60.0,
                    base_seed: int = 0) -> ExperimentResult:
    """Fig 6a: reserved vs serverless coefficient of variation."""
    rows: List[List] = []
    data: Dict[str, Dict] = {}
    # "Each application runs at modest load to avoid overloading the
    # reserved resources" (section 3.3): steady arrivals, ample pool.
    for spec in all_apps():
        reserved = SingleTierRunner(
            platform_config("centralized_iaas"), spec, seed=base_seed,
            duration_s=duration_s, load_fraction=0.25,
            iaas_headroom=3.0, bursty=False).run()
        serverless = SingleTierRunner(
            platform_config("centralized_faas"), spec, seed=base_seed,
            duration_s=duration_s, load_fraction=0.25,
            bursty=False).run()
        rows.append([spec.key,
                     round(reserved.task_latencies.cv, 3),
                     round(serverless.task_latencies.cv, 3)])
        data[spec.key] = {
            "reserved_cv": reserved.task_latencies.cv,
            "serverless_cv": serverless.task_latencies.cv,
        }
    return ExperimentResult(
        figure="fig06a",
        title="Latency variability (CV): reserved vs serverless",
        headers=["job", "reserved_cv", "serverless_cv"],
        rows=rows,
        data=data,
    )


def _chain_workload(platform: OpenWhiskPlatform, env: Environment,
                    spec, n_tasks: int, rng,
                    results: List) -> Generator:
    """Parent -> child chains with intermittent exponential arrivals."""
    parent_spec = spec.function_spec()
    child_spec = FunctionSpec(
        name=f"{spec.key.lower()}-agg", memory_mb=spec.memory_mb,
        image=f"{spec.key.lower()}-agg-image")
    for _ in range(n_tasks):
        parent = yield env.process(platform.invoke(InvocationRequest(
            spec=parent_spec, service_s=spec.cloud_service_s * 0.7,
            input_mb=spec.input_mb,
            output_mb=max(0.5, spec.output_mb))))
        child = yield env.process(platform.invoke(InvocationRequest(
            spec=child_spec, service_s=spec.cloud_service_s * 0.3,
            input_mb=spec.output_mb, output_mb=0.02, parent=parent,
            colocate_with_parent=False)))
        results.append((parent, child))
        yield env.timeout(float(rng.exponential(MEAN_GAP_S)))


def run_breakdown(n_tasks: int = 60, base_seed: int = 0) -> ExperimentResult:
    """Fig 6b: instantiation / data I/O / execution shares."""
    rows: List[List] = []
    data: Dict[str, Dict] = {}
    for spec in all_apps():
        env = Environment()
        streams = RandomStreams(base_seed)
        cluster = Cluster(env, DEFAULT.cluster)
        platform = OpenWhiskPlatform(
            env, cluster, streams, constants=DEFAULT.serverless,
            keepalive_s=2.0)
        results: List = []
        rng = streams.stream("fig06b.gaps")
        env.run(env.process(_chain_workload(
            platform, env, spec, n_tasks, rng, results)))
        instantiation = data_io = execution = 0.0
        for parent, child in results:
            instantiation += parent.instantiation_s + child.instantiation_s
            data_io += parent.data_share_s + child.data_share_s
            execution += (parent.breakdown.execution +
                          child.breakdown.execution)
        total = instantiation + data_io + execution
        rows.append([spec.key,
                     round(100 * instantiation / total, 1),
                     round(100 * data_io / total, 1),
                     round(100 * execution / total, 1)])
        data[spec.key] = {
            "instantiation_pct": 100 * instantiation / total,
            "data_io_pct": 100 * data_io / total,
            "execution_pct": 100 * execution / total,
        }
    return ExperimentResult(
        figure="fig06b",
        title="Serverless latency shares: instantiation/data I/O/execution",
        headers=["job", "instantiation_pct", "data_io_pct",
                 "execution_pct"],
        rows=rows,
        data=data,
    )


def run_sharing(n_tasks: int = 50, base_seed: int = 0) -> ExperimentResult:
    """Fig 6c: CouchDB vs RPC vs in-memory task latency."""
    rows: List[List] = []
    data: Dict[str, Dict] = {}
    for spec in all_apps():
        latencies: Dict[str, MetricSeries] = {}
        for protocol in ("couchdb", "rpc", "in_memory"):
            env = Environment()
            streams = RandomStreams(base_seed)
            cluster = Cluster(env, DEFAULT.cluster)
            network = ClusterNetwork(env, DEFAULT.cluster)
            for server_id in cluster.servers:
                network.register_server(server_id)
            platform = OpenWhiskPlatform(
                env, cluster, streams, constants=DEFAULT.serverless,
                sharing=protocol if protocol != "in_memory" else "couchdb",
                scheduler=("hivemind" if protocol == "in_memory"
                           else "openwhisk"),
                keepalive_s=25.0,
                cluster_network=network)
            series = MetricSeries(protocol)
            shares = MetricSeries(f"{protocol}.share")

            def chains() -> Generator:
                parent_spec = spec.function_spec()
                # In-memory requires the same image so the child can run
                # in the parent's container.
                child_spec = (parent_spec if protocol == "in_memory"
                              else FunctionSpec(
                                  name=f"{spec.key.lower()}-agg",
                                  memory_mb=spec.memory_mb,
                                  image=f"{spec.key.lower()}-agg-image"))
                for _ in range(n_tasks):
                    start = env.now
                    parent = yield env.process(platform.invoke(
                        InvocationRequest(
                            spec=parent_spec,
                            service_s=spec.cloud_service_s * 0.7,
                            output_mb=max(0.5, spec.output_mb))))
                    child = yield env.process(platform.invoke(
                        InvocationRequest(
                            spec=child_spec,
                            service_s=spec.cloud_service_s * 0.3,
                            parent=parent,
                            colocate_with_parent=(
                                protocol == "in_memory"))))
                    series.add(env.now - start, time=start)
                    shares.add(child.data_share_s)
                    yield env.timeout(0.6)

            env.run(env.process(chains()))
            latencies[protocol] = series
            latencies[f"{protocol}.share"] = shares
        rows.append([spec.key,
                     round(latencies["couchdb"].median * 1000, 1),
                     round(latencies["rpc"].median * 1000, 1),
                     round(latencies["in_memory"].median * 1000, 1),
                     round(latencies["couchdb.share"].median * 1000, 2),
                     round(latencies["rpc.share"].median * 1000, 2),
                     round(latencies["in_memory.share"].median * 1000, 2)])
        data[spec.key] = {name: series.summary()
                          for name, series in latencies.items()}
    return ExperimentResult(
        figure="fig06c",
        title="Task latency (ms) by data-sharing protocol",
        headers=["job", "couchdb_med_ms", "rpc_med_ms", "inmem_med_ms",
                 "couch_share_ms", "rpc_share_ms", "inmem_share_ms"],
        rows=rows,
        data=data,
    )
