"""``repro.serve.cluster`` — multi-process replicated serving.

One coordinator process fronts N replica worker processes. Each replica
hydrates a complete single-node serving stack from a private snapshot of
the document store (shared-nothing), the coordinator routes requests by
consistent hash of ``(config, query)`` to keep per-replica caches warm,
sheds load with prompt 429s at a bounded per-replica queue depth, fails
over and restarts crashed replicas from fresh snapshots, and aggregates
health and metrics across the fleet. See API.md: "Cluster serving".

Quick start::

    from repro.serve.cluster import create_cluster

    with create_cluster(["demo:dataset=wikipedia"], replicas=2, port=0) as srv:
        print(srv.url)  # /expand, /search, /batch, /healthz, /metrics, ...

(The package lives under ``repro.serve`` because top-level
``repro.cluster`` is the *clustering-algorithms* package — k-means and
friends; this one is about serving topology.)
"""

from repro.serve.cluster.coordinator import (
    DEFAULT_QUEUE_DEPTH,
    DEFAULT_RETRY_AFTER,
    AdmissionController,
    ClusterCoordinator,
    CoordinatorMetrics,
    ProcessReplica,
    create_coordinator,
)
from repro.serve.cluster.hashring import DEFAULT_VNODES, HashRing
from repro.serve.cluster.replica import (
    ReplicaSpec,
    TailingReplicaService,
    build_replica_service,
    replica_main,
)
from repro.serve.cluster.server import ClusterServer, create_cluster
from repro.serve.cluster.transport import ReplicaClient, ReplicaTransport
from repro.serve.paging import (
    MAX_PAGE_LIMIT,
    PageRequest,
    apply_page,
    decode_cursor,
    encode_cursor,
    resolve_page,
)

__all__ = [
    "DEFAULT_QUEUE_DEPTH",
    "DEFAULT_RETRY_AFTER",
    "DEFAULT_VNODES",
    "MAX_PAGE_LIMIT",
    "AdmissionController",
    "ClusterCoordinator",
    "ClusterServer",
    "CoordinatorMetrics",
    "HashRing",
    "PageRequest",
    "ProcessReplica",
    "ReplicaClient",
    "ReplicaSpec",
    "ReplicaTransport",
    "TailingReplicaService",
    "apply_page",
    "build_replica_service",
    "create_cluster",
    "create_coordinator",
    "decode_cursor",
    "encode_cursor",
    "replica_main",
    "resolve_page",
]
