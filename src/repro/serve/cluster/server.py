"""The cluster's HTTP front: one socket, N replica processes behind it.

:class:`ClusterServer` is the single-node HTTP front
(:class:`~repro.serve.edge.HTTPFront`: request parsing, keep-alive,
TCP_NODELAY, ``Retry-After`` on 429s) pointed at a
:class:`~repro.serve.cluster.coordinator.ClusterCoordinator`. Proxied
responses arrive from replicas as already-serialized JSON and the shared
handler writes ``bytes`` payloads to the client socket verbatim instead
of re-parsing and re-dumping (the coordinator's share of a cache hit
stays two memcpys).
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.serve.cluster.coordinator import ClusterCoordinator
from repro.serve.edge import HTTPFront
from repro.serve.pool import ServeConfig


class ClusterServer(HTTPFront):
    """HTTP front of a :class:`ClusterCoordinator` (ExpansionServer-shaped).

    Same embedding surface as :class:`~repro.serve.app.ExpansionServer`:
    ``port=0`` for an ephemeral port, :meth:`start` for a daemon thread
    (it starts the coordinator first, spawning the replica fleet),
    :meth:`serve_forever` for the blocking CLI path (replicas must
    already be started), context-manager enter/exit. The first
    :meth:`stop` tears down the HTTP listener *and* the coordinator,
    which drains in-flight requests and then every replica.
    """

    @property
    def coordinator(self) -> ClusterCoordinator:
        return self._backend

    def _open(self) -> None:
        self._backend.start()

    def _release(self, drain_timeout: float) -> None:
        # The coordinator bounds its own drain (DEFAULT_DRAIN_TIMEOUT).
        self._backend.stop()


def create_cluster(
    configs: Iterable[ServeConfig | str],
    host: str = "127.0.0.1",
    port: int = 8080,
    **coordinator_kwargs: Any,
) -> ClusterServer:
    """Assemble configs → coordinator → HTTP front in one call.

    Keyword arguments (``replicas``, ``queue_depth``, ``retry_after``,
    ``cache_size``, ...) flow to :class:`ClusterCoordinator`. Nothing is
    spawned until :meth:`ClusterServer.start`.
    """
    return ClusterServer(
        ClusterCoordinator(configs, **coordinator_kwargs), host=host, port=port
    )
