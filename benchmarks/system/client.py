"""A minimal keep-alive HTTP/1.1 client over a raw socket.

``http.client`` parses every response header through the email
package, which costs tens of microseconds per header line: on a
sub-millisecond cache hit that would be the client measuring itself.
This client reads the status line and ``Content-Length`` and nothing
else, and sends the tenant header on every request.
"""

from __future__ import annotations

import json
import socket
from typing import Any


class HttpClient:
    """One persistent connection; one request in flight at a time."""

    def __init__(
        self, host: str, port: int, headers: dict[str, str] | None = None
    ) -> None:
        self._sock = socket.create_connection((host, port), timeout=60)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._host = host
        self._extra = "".join(
            f"{key}: {value}\r\n" for key, value in (headers or {}).items()
        )
        self._buf = b""

    def request(
        self, method: str, target: str, body: Any = None
    ) -> tuple[int, bytes]:
        """Send one request; return ``(status, response body bytes)``."""
        payload = b"" if body is None else json.dumps(body).encode("utf-8")
        head = (
            f"{method} {target} HTTP/1.1\r\nHost: {self._host}\r\n"
            f"{self._extra}Content-Length: {len(payload)}\r\n"
            + ("Content-Type: application/json\r\n" if payload else "")
            + "\r\n"
        )
        self._sock.sendall(head.encode("ascii") + payload)
        while b"\r\n\r\n" not in self._buf:
            self._fill()
        header, _, self._buf = self._buf.partition(b"\r\n\r\n")
        length = 0
        for line in header.split(b"\r\n")[1:]:
            if line[:15].lower() == b"content-length:":
                length = int(line[15:])
        while len(self._buf) < length:
            self._fill()
        data, self._buf = self._buf[:length], self._buf[length:]
        return int(header.split(None, 2)[1]), data

    def _fill(self) -> None:
        chunk = self._sock.recv(262144)
        if not chunk:
            raise ConnectionError("server closed the connection")
        self._buf += chunk

    def close(self) -> None:
        self._sock.close()
