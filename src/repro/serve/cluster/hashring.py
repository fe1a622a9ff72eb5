"""Consistent hashing for query-affinity routing.

The coordinator routes every ``/expand`` and ``/search`` request by the
hash of its ``(config, query)`` key, so repeated queries land on the
same replica and that replica's three cache tiers (response LRU, session
retrieval cache, analysis cache) stay warm. A plain ``hash(key) % N``
would reshuffle *every* key when a replica joins or leaves; a consistent
hash ring remaps only the keys that pointed at the changed node, so one
replica crash does not flush the caches of the survivors.

Implementation: each node owns ``vnodes`` virtual points on a 64-bit
ring (the first 8 bytes of ``blake2b(node + ":" + i)``); a key routes to
the first virtual point clockwise of the key's own hash. ``blake2b`` is
keyed by nothing and seeded by nothing, so placement is deterministic
across processes and restarts — a cursor minted before a coordinator
restart still routes to the same replica after it.

:meth:`HashRing.preference` returns *all* distinct nodes in ring order
starting at the primary — the coordinator walks it to fail requests over
to the next live replica when the primary is down.
"""

from __future__ import annotations

import bisect
import hashlib

from repro.errors import ClusterError

#: Virtual points per node. 64 keeps the expected per-node load within a
#: few percent of uniform for single-digit node counts while the ring
#: stays small enough to rebuild on every membership change.
DEFAULT_VNODES = 64


def _hash64(data: str) -> int:
    """The first 8 bytes of ``blake2b(data)`` as a big-endian integer."""
    return int.from_bytes(
        hashlib.blake2b(data.encode("utf-8"), digest_size=8).digest(), "big"
    )


class HashRing:
    """A consistent hash ring over named nodes (see module docstring)."""

    def __init__(self, nodes: tuple[str, ...] | list[str] = (), vnodes: int = DEFAULT_VNODES) -> None:
        if vnodes < 1:
            raise ClusterError(f"vnodes must be >= 1, got {vnodes}")
        self._vnodes = vnodes
        self._points: list[int] = []  # sorted virtual-point hashes
        self._owners: dict[int, str] = {}  # point hash -> node
        self._nodes: set[str] = set()
        for node in nodes:
            self.add(node)

    # -- membership ----------------------------------------------------------

    @property
    def nodes(self) -> tuple[str, ...]:
        return tuple(sorted(self._nodes))

    @property
    def vnodes(self) -> int:
        return self._vnodes

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, node: object) -> bool:
        return node in self._nodes

    def add(self, node: str) -> None:
        if not node:
            raise ClusterError("ring nodes need a non-empty name")
        if node in self._nodes:
            raise ClusterError(f"node {node!r} is already on the ring")
        self._nodes.add(node)
        for i in range(self._vnodes):
            point = _hash64(f"{node}:{i}")
            # A 64-bit collision between two nodes' virtual points is
            # ~impossible at this scale; first owner keeps the point.
            if point not in self._owners:
                self._owners[point] = node
                bisect.insort(self._points, point)

    def remove(self, node: str) -> None:
        if node not in self._nodes:
            raise ClusterError(f"node {node!r} is not on the ring")
        self._nodes.discard(node)
        self._points = [p for p in self._points if self._owners[p] != node]
        self._owners = {p: n for p, n in self._owners.items() if n != node}

    # -- routing -------------------------------------------------------------

    def node_for(self, key: str) -> str:
        """The node owning ``key``: first virtual point clockwise of it."""
        if not self._points:
            raise ClusterError("cannot route on an empty ring")
        index = bisect.bisect(self._points, _hash64(key))
        if index == len(self._points):  # wrap past the top of the ring
            index = 0
        return self._owners[self._points[index]]

    def preference(self, key: str) -> list[str]:
        """All distinct nodes in ring order starting at ``key``'s owner.

        The failover walk: index 0 is :meth:`node_for`; each subsequent
        entry is the node that would own the key if every earlier entry
        were removed — so routing to the first *live* entry is exactly
        consistent-hash routing over the live membership.
        """
        if not self._points:
            raise ClusterError("cannot route on an empty ring")
        start = bisect.bisect(self._points, _hash64(key))
        order: list[str] = []
        seen: set[str] = set()
        for offset in range(len(self._points)):
            point = self._points[(start + offset) % len(self._points)]
            node = self._owners[point]
            if node not in seen:
                seen.add(node)
                order.append(node)
                if len(seen) == len(self._nodes):
                    break
        return order

    def describe(self) -> dict:
        """JSON-ready topology: nodes, vnodes, and per-node point counts."""
        counts: dict[str, int] = {node: 0 for node in self._nodes}
        for node in self._owners.values():
            counts[node] += 1
        return {
            "nodes": list(self.nodes),
            "vnodes": self._vnodes,
            "points": {node: counts[node] for node in self.nodes},
        }
