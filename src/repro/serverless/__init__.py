"""Serverless platform emulation (Apache OpenWhisk-style)."""

from .container import ContainerState, FunctionContainer
from .couchdb import CouchDB
from .datasharing import (
    CouchDBSharing,
    InMemorySharing,
    RemoteMemorySharing,
    RpcSharing,
)
from .function import FunctionSpec, Invocation, InvocationRequest
from .invoker import ActivationCancelled, Invoker
from .kafka import KafkaBus
from .openwhisk import OpenWhiskPlatform
from .region import RegionGateway, region_server_count
from .scheduler import HiveMindScheduler, OpenWhiskScheduler, Placement

__all__ = [
    "FunctionSpec",
    "InvocationRequest",
    "Invocation",
    "FunctionContainer",
    "ContainerState",
    "CouchDB",
    "KafkaBus",
    "ActivationCancelled",
    "Invoker",
    "OpenWhiskScheduler",
    "HiveMindScheduler",
    "Placement",
    "OpenWhiskPlatform",
    "RegionGateway",
    "region_server_count",
    "CouchDBSharing",
    "RpcSharing",
    "InMemorySharing",
    "RemoteMemorySharing",
]
