"""Shard clients: how the router reaches a shard.

Two interchangeable implementations of ``request(method, path, body,
timeout, headers)``: an in-process wrapper around a
:class:`~.shard.ShardApp` (tier-1 tests, the identity control) and a
stdlib HTTP client for real worker processes. ``headers`` carries the
router's ``traceparent`` across the hop, so a merged trace stitches the
router span to the shard's spans on both transports. Transport failures
surface as :class:`ShardUnavailable` so the router's failover path has
one error type to catch regardless of transport.
"""

from __future__ import annotations

import json
import socket

from ...errors import ServeError
from ..http import PlainText, Response

__all__ = ["ShardUnavailable", "LocalShardClient", "HTTPShardClient"]


class ShardUnavailable(ServeError):
    """The shard could not be reached (down, timed out, refused)."""


class LocalShardClient:
    """In-process client over a :class:`~.shard.ShardApp`.

    ``down = True`` simulates a dead worker (tests and the local chaos
    harness); requests then raise :class:`ShardUnavailable` exactly like
    a refused socket would.
    """

    def __init__(self, app):
        self.app = app
        self.down = False

    def request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        timeout: float | None = None,
        headers: dict | None = None,
    ) -> Response:
        if self.down:
            raise ShardUnavailable(f"shard {self.app.shard} is down")
        return self.app.handle(method, path, body, headers)

    def describe(self) -> dict:
        return {"transport": "local", "shard": self.app.shard, "down": self.down}


class HTTPShardClient:
    """Stdlib HTTP/1.1 client for one shard worker."""

    def __init__(self, host: str, port: int, default_timeout_s: float = 5.0):
        self.host = host
        self.port = int(port)
        self.default_timeout_s = default_timeout_s

    def request(
        self,
        method: str,
        path: str,
        body: bytes | None = None,
        timeout: float | None = None,
        headers: dict | None = None,
    ) -> Response:
        import http.client  # only the router dials shards; workers never load it

        conn = http.client.HTTPConnection(
            self.host, self.port,
            timeout=timeout if timeout is not None else self.default_timeout_s,
        )
        try:
            send_headers = {"Content-Type": "application/json"} if body else {}
            if headers:
                send_headers.update(headers)
            conn.request(method, path, body=body, headers=send_headers)
            raw = conn.getresponse()
            payload = raw.read()
            content_type = raw.headers.get("Content-Type", "")
            response_headers = {
                k: v for k, v in raw.headers.items()
                if k not in ("Content-Type", "Content-Length")
            }
            if "application/json" in content_type:
                parsed = json.loads(payload or b"{}")
            else:
                parsed = PlainText(
                    body=payload.decode("utf-8"), content_type=content_type
                )
            return Response(raw.status, parsed, response_headers)
        except (OSError, socket.timeout, http.client.HTTPException) as error:
            raise ShardUnavailable(
                f"shard at {self.host}:{self.port} unreachable: {error}"
            ) from error
        finally:
            conn.close()

    def describe(self) -> dict:
        return {"transport": "http", "host": self.host, "port": self.port}
