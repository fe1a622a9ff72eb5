"""repro.serve — the long-running expansion service layer.

Turns the one-shot :class:`~repro.api.Session` world into a serving
system: a pool of warm sessions (one per named configuration), a
thread-safe LRU+TTL response cache keyed on the index generation,
live request/stage metrics, and a stdlib-only JSON-over-HTTP front
(``/expand``, ``/search``, ``/batch``, ``/configs``, ``/healthz``,
``/metrics``). See the "Serving" section of API.md.

Quick embedding::

    from repro.serve import ServeConfig, create_server

    server = create_server(
        [ServeConfig(name="wiki", dataset="wikipedia", algorithm="iskr")],
        port=0,                      # ephemeral port for embedding
        cache_size=512, cache_ttl=300.0,
    ).start()
    ...                              # requests against server.url
    server.stop()

Or from a shell: ``repro serve --configs wiki:dataset=wikipedia``.

For multi-process replicated serving — consistent-hash routing, snapshot
hydration, admission control — see :mod:`repro.serve.cluster`
(``repro cluster serve --replicas N``).
"""

from repro.serve.app import (
    DEFAULT_WORKERS,
    ExpansionServer,
    ExpansionService,
    create_server,
)
from repro.serve.cache import LRUTTLCache
from repro.serve.metrics import ServerMetrics
from repro.serve.pool import PooledSession, ServeConfig, SessionPool

__all__ = [
    "DEFAULT_WORKERS",
    "ExpansionServer",
    "ExpansionService",
    "LRUTTLCache",
    "PooledSession",
    "ServeConfig",
    "ServerMetrics",
    "SessionPool",
    "create_server",
]
