"""The coordinator ↔ replica wire: length-framed RPC over loopback.

``multiprocessing.connection`` gives exactly what a local cluster needs
— authenticated (HMAC challenge), length-prefixed message framing over a
loopback TCP socket — without HTTP parsing on the inter-process hop. One
request is the tuple ``(method, path, params)``; one response is
``(status, body_bytes, extras)`` where ``body_bytes`` is the replica's
already **serialized JSON payload** and ``extras`` is a small metadata
dict — carrying ``spans`` (the replica's finished trace spans, when the
request propagated trace context, so the coordinator can stitch one
cross-process trace), on a ``/batch`` reply ``items``, and on a 200
``/expand`` or unpaginated ``/search`` reply ``part`` and
``generation``. Shipping bytes is the cluster's hot-path trick: the
coordinator forwards a miss's body verbatim and keeps ``part`` (what
the replica's response cache holds, keyed under ``generation``) to
answer the next identical read itself, by splicing, with no RPC.

One message is reserved: :data:`WAKE` (sent by the coordinator after
its ``/ingest`` commits; no HTTP request can produce it) is answered by
the transport, not the handler: it wakes the replica's feed tailers.

``/batch`` items travel pre-encoded too (:func:`encode_reply`): a 200
``/batch`` reply's body is the sub-batch envelope without its report,
and ``extras["items"]`` holds each report item as its own JSON bytes
(the parts the replica's :class:`~repro.serve.edge.BatchBody` kept).
The coordinator sums the small envelopes and splices the item bytes
into its merged response in request order, so a scattered batch is
never decoded and re-encoded on the way through.

Both ends of every connection set ``TCP_NODELAY``. Above 16 KB,
``Connection._send_bytes`` writes the 4-byte length header and the
payload as two ``send`` calls; with Nagle on, the payload then waits
for the peer's delayed ACK of the header — about 40 ms on Linux — so
every reply past 16 KB (a full ``/expand`` report, most ``/batch``
sub-replies) would stall for that long on an otherwise idle loopback.

* :class:`ReplicaTransport` — replica side: an ephemeral-port listener
  plus a thread per coordinator connection, each looping recv →
  ``handle`` → send until EOF or :meth:`close`.
* :class:`ReplicaClient` — coordinator side: a small pool of persistent
  connections (borrow per request, return unless broken). Every failure
  mode — refused, reset, timeout, EOF — surfaces as
  :class:`ClusterError` so the coordinator's failover path has a single
  thing to catch.
"""

from __future__ import annotations

import os
import socket
import threading
from multiprocessing.connection import Client, Connection, Listener
from typing import Any, Callable, Mapping

from repro.errors import ClusterError
from repro.obs import TRACE_PARAM
from repro.serve.edge import BatchBody, ReadBody, encode

#: Seconds a coordinator waits on a replica reply before declaring it
#: unreachable (expansion cold paths are slow; hydrated hits are not).
DEFAULT_REQUEST_TIMEOUT = 60.0

Handle = Callable[[str, str, Mapping[str, Any]], tuple[int, Any]]

#: The reserved method of the wake message (see module docstring).
WAKE = "WAKE"


def encode_reply(payload: Any) -> tuple[bytes, dict[str, Any]]:
    """One handler payload → the ``(body, extras)`` a replica sends.

    A :class:`~repro.serve.edge.BatchBody` ships its report items in
    ``extras["items"]`` and its head as the body, and a
    :class:`~repro.serve.edge.ReadBody` its cacheable part (see module
    docstring); other bytes go as they are, and a dict (errors, admin
    routes) is encoded.
    """
    if isinstance(payload, BatchBody):
        return encode(payload.head), {"items": payload.items}
    if isinstance(payload, ReadBody):
        # Plain bytes: pickling the subclass would ship the part twice.
        return bytes(payload), {
            "part": payload.part, "generation": payload.generation
        }
    if isinstance(payload, bytes):
        return payload, {}
    return encode(payload), {}


def _no_delay(conn: Connection) -> Connection:
    """Set ``TCP_NODELAY`` on ``conn``'s socket (see module docstring).

    The temporary socket object only borrows the descriptor: ``detach``
    hands it back without closing it.
    """
    sock = socket.socket(fileno=conn.fileno())
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    finally:
        sock.detach()
    return conn


class ReplicaTransport:
    """Replica-side listener serving ``handle`` to coordinator clients.

    ``span_export`` (optional) is called with the request's trace id
    after the handler finishes; whatever span records it returns ride
    back in the response's ``extras["spans"]`` for coordinator-side
    trace stitching. ``wake`` (optional) answers the reserved
    :data:`WAKE` message.
    """

    def __init__(
        self,
        handle: Handle,
        host: str = "127.0.0.1",
        span_export: "Callable[[str], list | None] | None" = None,
        wake: Callable[[], None] | None = None,
    ) -> None:
        self._handle = handle
        self._span_export = span_export
        self._wake = wake
        self._authkey = os.urandom(16)
        self._listener = Listener((host, 0), authkey=self._authkey)
        self._closed = threading.Event()

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._listener.address
        return (host, int(port))

    @property
    def authkey(self) -> bytes:
        return self._authkey

    def serve(self) -> None:
        """Accept coordinator connections until :meth:`close` (blocking)."""
        while not self._closed.is_set():
            try:
                conn = self._listener.accept()
            except Exception:  # noqa: BLE001
                # accept() raises when close() tears the socket down, and
                # on a failed auth handshake; both mean "try again or stop".
                if self._closed.is_set():
                    break
                continue
            threading.Thread(
                target=self._serve_connection,
                args=(_no_delay(conn),),
                name="repro-cluster-replica-conn",
                daemon=True,
            ).start()

    def _serve_connection(self, conn: Connection) -> None:
        try:
            while not self._closed.is_set():
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    break
                try:
                    method, path, params = message
                    if method == WAKE:  # answered here, never by the handler
                        if self._wake is not None:
                            self._wake()
                        status, body, extras = 200, b"{}", {}
                    else:
                        # The handler strips the trace params from its own
                        # copy, so the id is captured here, before dispatch.
                        trace_id = None
                        if isinstance(params, Mapping):
                            trace_id = params.get(TRACE_PARAM)
                        status, payload = self._handle(
                            str(method), str(path), params
                        )
                        body, extras = encode_reply(payload)
                        if trace_id is not None and self._span_export is not None:
                            spans = self._span_export(str(trace_id))
                            if spans:
                                extras["spans"] = spans
                except Exception as exc:  # noqa: BLE001 — a request must not kill the loop
                    status, extras = 500, {}
                    body = encode(
                        {"error": "internal", "message": f"{type(exc).__name__}: {exc}"}
                    )
                try:
                    conn.send((int(status), body, extras))
                except (OSError, ValueError, BrokenPipeError):
                    break
        finally:
            conn.close()

    def close(self) -> None:
        """Stop accepting; in-flight connection loops exit on next recv."""
        self._closed.set()
        try:
            self._listener.close()
        except OSError:  # pragma: no cover - already closed
            pass


class ReplicaClient:
    """Coordinator-side connection pool for one replica."""

    def __init__(
        self,
        address: tuple[str, int],
        authkey: bytes,
        timeout: float = DEFAULT_REQUEST_TIMEOUT,
    ) -> None:
        self._address = (str(address[0]), int(address[1]))
        self._authkey = bytes(authkey)
        self._timeout = timeout
        self._idle: list[Connection] = []
        self._lock = threading.Lock()
        self._closed = False

    def _checkout(self) -> Connection:
        with self._lock:
            if self._closed:
                raise ClusterError("replica client is closed")
            if self._idle:
                return self._idle.pop()
        try:
            conn = Client(self._address, authkey=self._authkey)
        except Exception as exc:  # noqa: BLE001 — refused/reset/auth all mean "down"
            raise ClusterError(
                f"cannot connect to replica at {self._address}: {exc}"
            ) from None
        return _no_delay(conn)

    def _checkin(self, conn: Connection) -> None:
        with self._lock:
            if not self._closed:
                self._idle.append(conn)
                return
        conn.close()

    def request(
        self,
        method: str,
        path: str,
        params: Mapping[str, Any],
        timeout: float | None = None,
    ) -> tuple[int, bytes, dict[str, Any]]:
        """One RPC round-trip; broken connections are discarded, not reused.

        Returns ``(status, body, extras)``.
        """
        conn = self._checkout()
        try:
            conn.send((method, path, dict(params)))
            if not conn.poll(self._timeout if timeout is None else timeout):
                raise ClusterError(
                    f"replica at {self._address} timed out on {path}"
                )
            status, body, extras = conn.recv()
        except ClusterError:
            conn.close()
            raise
        except (OSError, EOFError, ValueError, TypeError) as exc:
            conn.close()
            raise ClusterError(
                f"replica at {self._address} failed on {path}: {exc}"
            ) from None
        self._checkin(conn)
        return int(status), bytes(body), dict(extras or {})

    def close(self) -> None:
        with self._lock:
            self._closed = True
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()
