"""A minimal asyncio HTTP/1.1 layer (stdlib only).

Just enough of RFC 9112 for a loopback what-if API and its load
generator: request-line + header parsing, ``Content-Length`` bodies,
keep-alive connections, bounded header/body sizes, and a graceful-drain
server wrapper.  Chunked transfer coding, TLS, and multipart are out of
scope by design — the service speaks small JSON documents.

The server tracks every open connection so :meth:`HTTPServer.drain` can
stop accepting, let in-flight requests finish, and then close the
stragglers — the mechanics behind zero-5xx SIGTERM restarts.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import dataclass
from typing import Awaitable, Callable, Dict, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

__all__ = ["BadRequest", "HTTPServer", "Request", "Response",
           "STATUS_REASONS", "canonical_json"]

#: Reason phrases for every status the service emits.
STATUS_REASONS = {
    200: "OK",
    204: "No Content",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}

_MAX_HEADER_BYTES = 32 * 1024
_MAX_BODY_BYTES = 4 * 1024 * 1024
_MAX_REQUESTS_PER_CONN = 10_000


def canonical_json(payload) -> bytes:
    """Canonical JSON: sorted keys, compact separators.

    The canonical encoding is what makes "N identical requests get
    byte-identical bodies" a testable guarantee rather than an accident
    of dict ordering.  It also composes: an object's encoding is its
    members' encodings joined in sorted key order, so a body may be
    spliced from cached member encodings.
    """
    return json.dumps(payload, sort_keys=True,
                      separators=(",", ":")).encode("utf-8")


class BadRequest(Exception):
    """Malformed or oversized request; carries the response status."""

    def __init__(self, message: str, status: int = 400):
        super().__init__(message)
        self.status = status


@dataclass
class Request:
    """One parsed HTTP request."""

    method: str
    path: str                       #: target path without the query string
    query: Dict[str, str]
    headers: Dict[str, str]         #: keys lower-cased
    body: bytes
    #: ``perf_counter`` stamps around the socket read + parse, so the
    #: request-trace layer can charge "http.parse" without re-timing.
    recv_start: float = 0.0
    recv_end: float = 0.0

    def json_body(self):
        """Decode the body as JSON, mapping failures to 400."""
        if not self.body:
            return {}
        try:
            return json.loads(self.body.decode("utf-8"))
        # Bad UTF-8, bad JSON and huge ints raise ValueError; nesting
        # deeper than the decoder's recursion limit raises RecursionError.
        except (ValueError, RecursionError) as exc:
            raise BadRequest(f"body is not valid JSON: {exc}") from exc


@dataclass
class Response:
    """One HTTP response; ``headers`` is extra (name, value) pairs."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: Tuple[Tuple[str, str], ...] = ()

    @classmethod
    def json(cls, payload, status: int = 200,
             headers: Tuple[Tuple[str, str], ...] = ()) -> "Response":
        """A response whose body is :func:`canonical_json` of *payload*."""
        return cls(status=status, body=canonical_json(payload),
                   content_type="application/json", headers=headers)

    @classmethod
    def error(cls, status: int, message: str,
              headers: Tuple[Tuple[str, str], ...] = ()) -> "Response":
        return cls.json({"error": message, "status": status},
                        status=status, headers=headers)

    def encode(self, keep_alive: bool) -> bytes:
        reason = STATUS_REASONS.get(self.status, "Unknown")
        lines = [f"HTTP/1.1 {self.status} {reason}",
                 f"Content-Type: {self.content_type}",
                 f"Content-Length: {len(self.body)}",
                 "Connection: " + ("keep-alive" if keep_alive else "close")]
        for name, value in self.headers:
            lines.append(f"{name}: {value}")
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("ascii")
        return head + self.body


async def read_request(reader: asyncio.StreamReader,
                       max_header_bytes: int = _MAX_HEADER_BYTES,
                       max_body_bytes: int = _MAX_BODY_BYTES
                       ) -> Optional[Request]:
    """Read one request; ``None`` on clean EOF before a request line."""
    try:
        head = await reader.readuntil(b"\r\n\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None                      # clean close between requests
        raise BadRequest("truncated request head") from exc
    except asyncio.LimitOverrunError as exc:
        raise BadRequest("request head too large", status=413) from exc
    recv_start = time.perf_counter()
    if len(head) > max_header_bytes:
        raise BadRequest("request head too large", status=413)

    try:
        text = head.decode("ascii")
    except UnicodeDecodeError as exc:
        raise BadRequest("non-ASCII bytes in request head") from exc
    lines = text.split("\r\n")
    parts = lines[0].split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise BadRequest(f"malformed request line {lines[0]!r}")
    method, target, _version = parts

    headers: Dict[str, str] = {}
    for line in lines[1:]:
        if not line:
            continue
        name, sep, value = line.partition(":")
        if not sep or not name.strip():
            raise BadRequest(f"malformed header line {line!r}")
        headers[name.strip().lower()] = value.strip()

    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise BadRequest("chunked transfer coding unsupported", status=501)

    body = b""
    if "content-length" in headers:
        try:
            length = int(headers["content-length"])
        except ValueError as exc:
            raise BadRequest("bad Content-Length") from exc
        if length < 0:
            raise BadRequest("bad Content-Length")
        if length > max_body_bytes:
            raise BadRequest("body too large", status=413)
        if length:
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError as exc:
                raise BadRequest("truncated body") from exc

    split = urlsplit(target)
    return Request(method=method.upper(), path=split.path or "/",
                   query=dict(parse_qsl(split.query)),
                   headers=headers, body=body,
                   recv_start=recv_start, recv_end=time.perf_counter())


Handler = Callable[[Request], Awaitable[Response]]


@dataclass
class _ConnState:
    writer: asyncio.StreamWriter
    busy: bool = False          #: a handler is currently running


class HTTPServer:
    """Keep-alive HTTP server with connection tracking and drain.

    ``handler`` is an async callable Request -> Response; exceptions it
    raises map to 500 without killing the connection loop.
    """

    def __init__(self, handler: Handler):
        self.handler = handler
        self._server: Optional[asyncio.AbstractServer] = None
        self._conns: Dict[asyncio.Task, _ConnState] = {}
        self._draining = False

    @property
    def draining(self) -> bool:
        return self._draining

    @property
    def connections(self) -> int:
        return len(self._conns)

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> int:
        """Bind and start accepting; returns the actual port."""
        # The StreamReader limit bounds readuntil() so an attacker (or a
        # confused client) cannot buffer unbounded header bytes.
        self._server = await asyncio.start_server(
            self._on_connection, host, port, limit=_MAX_HEADER_BYTES)
        return self._server.sockets[0].getsockname()[1]

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        state = _ConnState(writer=writer)
        assert task is not None
        self._conns[task] = state
        try:
            for _ in range(_MAX_REQUESTS_PER_CONN):
                if self._draining:
                    break
                try:
                    request = await read_request(reader)
                except BadRequest as exc:
                    writer.write(Response.error(exc.status, str(exc))
                                 .encode(keep_alive=False))
                    await writer.drain()
                    break
                if request is None:
                    break
                state.busy = True
                try:
                    try:
                        response = await self.handler(request)
                    except asyncio.CancelledError:
                        raise
                    except Exception as exc:   # handler bug -> 500
                        response = Response.error(
                            500, f"internal error: {exc}")
                finally:
                    state.busy = False
                keep = (not self._draining
                        and request.headers.get("connection", "")
                        .lower() != "close")
                writer.write(response.encode(keep_alive=keep))
                await writer.drain()
                if not keep:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self._conns.pop(task, None)
            try:
                writer.close()
            except Exception:
                pass

    async def drain(self, timeout_s: float = 10.0) -> None:
        """Stop accepting, let in-flight requests finish, close the rest.

        Idle keep-alive connections are closed immediately; connections
        with a handler mid-request get up to *timeout_s* to finish.
        """
        self._draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        # Nudge idle connections: their next read returns EOF.  Close is
        # schedule-only under asyncio, so _conns cannot mutate while we
        # iterate (the pop happens in each connection task's finally,
        # which needs the event loop back first).
        for state in self._conns.values():
            if not state.busy:
                try:
                    state.writer.close()
                except Exception:
                    pass
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout_s
        while self._conns and loop.time() < deadline:
            await asyncio.sleep(0.02)
        for task in list(self._conns):
            task.cancel()
        if self._conns:
            await asyncio.gather(*list(self._conns), return_exceptions=True)

    async def close(self) -> None:
        """Hard stop: cancel every connection without waiting."""
        await self.drain(timeout_s=0.0)
