"""Minimal asyncio HTTP/1.1 transport for the classification daemon.

The daemon must run on a bare python toolchain, so aiohttp is
deliberately *not* a dependency; this module implements exactly the
subset the daemon needs:

* request-line + header + ``Content-Length`` body parsing with hard
  caps — oversized or malformed input is answered 400/413/431 and the
  connection closed, never an unhandled exception;
* keep-alive with an idle timeout;
* connection tracking, so graceful drain can wait for in-flight
  responses to flush before the process exits.

Each connection is an :class:`asyncio.Protocol` with its own buffer.  A
request whose handler answers with a :class:`Response` is parsed,
answered and written inside the ``data_received`` call that delivered
its last byte: no task, no extra loop iteration.  A handler that must
wait returns an awaitable; only then does the connection start a task,
and it stops reading until that response is written, so pipelined
requests are answered in order.  Reading also stops while the write
buffer is above high water, so a client that never reads cannot grow
the daemon's memory.

No TLS, no chunked encoding: the daemon sits behind an operator's
reverse proxy in any real deployment.
"""

from __future__ import annotations

import asyncio
import json
import re
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable

__all__ = ["HttpError", "HttpServer", "Request", "Response"]

# Hard caps: one header line / the header count / the body.
MAX_LINE = 8192
MAX_HEADERS = 64
MAX_BODY = 1 << 20  # 1 MiB

# Keep-alive connections that send nothing for between one and two of
# these periods are closed.
IDLE_TIMEOUT_S = 30.0

# The end of a header block; bare-LF line endings are accepted.
_HEAD_END = re.compile(rb"\n\r?\n")
_MAX_HEAD = MAX_LINE * (MAX_HEADERS + 1)

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """A request that could not be parsed; maps to a 4xx and a close."""

    def __init__(self, status: int, reason: str) -> None:
        super().__init__(reason)
        self.status = status
        self.reason = reason


@dataclass(slots=True)
class Request:
    """One parsed HTTP request."""

    method: str
    path: str
    headers: dict[str, str]
    body: bytes


@dataclass(slots=True)
class Response:
    """One response to serialize; ``headers`` are extra headers."""

    status: int
    body: bytes = b""
    content_type: str = "application/json"
    headers: dict[str, str] = field(default_factory=dict)

    def encode(self, *, close: bool) -> bytes:
        head = (
            f"HTTP/1.1 {self.status} {_REASONS.get(self.status, 'Unknown')}\r\n"
            f"Content-Type: {self.content_type}\r\nContent-Length: {len(self.body)}\r\n"
            f"Connection: {'close' if close else 'keep-alive'}\r\n"
        )
        head += "".join(f"{name}: {value}\r\n" for name, value in self.headers.items())
        return (head + "\r\n").encode("latin-1") + self.body


# A handler answers at once with a Response, or returns an awaitable
# when the answer needs waiting.
Handler = Callable[[Request], "Response | Awaitable[Response]"]
# Called after each response is written, with the perf_counter_ns()
# reading taken when the request's bytes were complete.
ResponseHook = Callable[[Request, int], None]


def _parse_head(head: bytes) -> tuple[Request, int]:
    """The request (body still empty) and its body length, from a head."""
    lines = head.split(b"\n")
    if len(lines[0]) >= MAX_LINE:
        raise HttpError(431, "request line too long")
    parts = lines[0].decode("latin-1").split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1"):
        raise HttpError(400, "malformed request line")
    method, target, _version = parts
    headers: dict[str, str] = {}
    for line in lines[1:]:
        if len(line) >= MAX_LINE:
            raise HttpError(431, "header line too long")
        if len(headers) >= MAX_HEADERS:
            raise HttpError(431, "too many header fields")
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {name.strip()!r}")
        headers[name.strip().lower()] = value.strip()
    raw = headers.get("content-length", "0")
    try:
        length = int(raw)
    except ValueError:
        raise HttpError(400, f"bad Content-Length {raw!r}") from None
    if length < 0:
        raise HttpError(400, f"bad Content-Length {raw!r}")
    if length > MAX_BODY:
        raise HttpError(413, f"body of {length} bytes exceeds {MAX_BODY}")
    return Request(method=method, path=target, headers=headers, body=b""), length


class _Connection(asyncio.Protocol):
    """One client connection: buffer, parse, answer, in order."""

    _transport: asyncio.Transport
    _idle_timer: asyncio.TimerHandle

    def __init__(self, server: HttpServer) -> None:
        self._server = server
        self._loop = asyncio.get_running_loop()
        self._buffer = bytearray()
        self._scanned = 0  # buffer bytes already searched for a head end
        self._pending: tuple[Request, int] | None = None  # head parsed, body due
        self._task: asyncio.Task[None] | None = None  # a response being awaited
        self._write_paused = False
        self._heard = False  # bytes arrived since the idle timer last fired
        self.closed: asyncio.Future[None] = self._loop.create_future()

    # -- asyncio.Protocol callbacks ----------------------------------------

    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        assert isinstance(transport, asyncio.Transport)
        self._transport = transport
        self._server._connections.add(self)
        self._arm_idle_timer()

    def connection_lost(self, exc: Exception | None) -> None:
        # A response still being awaited runs to completion: admission
        # books its outcome, and _respond skips the write.
        self._server._connections.discard(self)
        self._idle_timer.cancel()
        self.closed.set_result(None)

    def data_received(self, data: bytes) -> None:
        self._buffer += data
        self._heard = True
        if self._task is None and not self._write_paused:
            self._process()

    def eof_received(self) -> None:
        # Reading is paused while a response is awaited, so an EOF seen
        # here can only cut a request short (or end an idle connection).
        if self._pending is not None:
            self._fail(HttpError(400, "truncated body"))
        elif self._buffer:
            self._fail(HttpError(400, "truncated header block"))

    def pause_writing(self) -> None:
        self._write_paused = True
        self._transport.pause_reading()

    def resume_writing(self) -> None:
        self._write_paused = False
        self._resume()

    # -- request handling --------------------------------------------------

    def _next_request(self) -> Request | None:
        """Take one complete request off the buffer, or ``None`` if none yet."""
        buffer = self._buffer
        if self._pending is None:
            match = _HEAD_END.search(buffer, self._scanned)
            if match is None:
                self._scanned = max(0, len(buffer) - 2)
                partial = len(buffer) - buffer.rfind(b"\n") - 1
                if partial >= MAX_LINE or len(buffer) > _MAX_HEAD:
                    raise HttpError(431, "header line too long")
                return None
            self._pending = _parse_head(bytes(buffer[: match.start()]))
            del buffer[: match.end()]
            self._scanned = 0
        request, length = self._pending
        if len(buffer) < length:
            return None
        request.body = bytes(buffer[:length])
        del buffer[:length]
        self._pending = None
        return request

    def _process(self) -> None:
        """Answer the buffered requests in order until one must wait."""
        transport = self._transport
        while not (self._write_paused or transport.is_closing()):
            try:
                request = self._next_request()
            except HttpError as exc:
                self._fail(exc)
                return
            if request is None:
                return
            started = time.perf_counter_ns()
            try:
                answer = self._server._handler(request)
            except Exception:  # staticcheck: ok[RC002] a handler bug must cost one connection, not the daemon
                transport.close()
                return
            if isinstance(answer, Response):
                self._respond(request, answer, started)
                continue
            transport.pause_reading()
            self._task = task = self._loop.create_task(self._finish(request, answer, started))
            self._server._tasks.add(task)
            task.add_done_callback(self._server._tasks.discard)
            return

    async def _finish(
        self, request: Request, answer: Awaitable[Response], started: int
    ) -> None:
        transport = self._transport
        try:
            response = await answer
        except Exception:  # staticcheck: ok[RC002] a handler bug must cost one connection, not the daemon
            transport.close()
            return
        finally:
            self._task = None
        self._respond(request, response, started)
        self._resume()

    def _resume(self) -> None:
        """Read and answer again, unless a response or the peer holds us."""
        if not (self._task or self._write_paused or self._transport.is_closing()):
            self._transport.resume_reading()
            self._process()

    def _respond(self, request: Request, response: Response, started: int) -> None:
        transport = self._transport
        if transport.is_closing():
            return  # the peer is gone; nobody is left to answer
        # Drain semantics: once the server is closing, every response
        # carries ``Connection: close`` so keep-alive clients migrate
        # off before the socket disappears.
        close = self._server.closing or request.headers.get("connection", "") == "close"
        transport.write(response.encode(close=close))
        if self._server._on_response is not None:
            self._server._on_response(request, started)
        if close:
            transport.close()

    def _fail(self, exc: HttpError) -> None:
        body = json.dumps({"error": exc.reason}).encode()
        transport = self._transport
        transport.write(Response(status=exc.status, body=body).encode(close=True))
        transport.close()

    # -- idle timeout: one lazily re-armed timer ---------------------------

    def _arm_idle_timer(self) -> None:
        self._idle_timer = self._loop.call_later(self._server._idle_timeout_s, self._on_idle_timer)

    def _on_idle_timer(self) -> None:
        transport = self._transport
        if transport.is_closing():
            return
        if self._heard or self._task is not None:
            self._heard = False
            self._arm_idle_timer()
        elif self._write_paused:
            transport.abort()  # it stopped reading too: nothing will flush
        else:
            transport.close()


class HttpServer:
    """One listening socket dispatching requests to a handler.

    The handler owns all application semantics (routing, drain
    refusals, accounting); the server guarantees only that every parsed
    request gets exactly one response and that malformed input gets a
    4xx instead of a stack trace.
    """

    def __init__(
        self,
        handler: Handler,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        idle_timeout_s: float = IDLE_TIMEOUT_S,
        on_response: ResponseHook | None = None,
    ) -> None:
        self._handler = handler
        self._on_response = on_response
        self._host = host
        self._port = port
        self._idle_timeout_s = idle_timeout_s
        self._server: asyncio.AbstractServer | None = None
        self._connections: set[_Connection] = set()
        self._tasks: set[asyncio.Task[None]] = set()
        self.closing = False

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` after :meth:`start`)."""
        assert self._server is not None, "server not started"
        sockets = self._server.sockets
        assert sockets
        return int(sockets[0].getsockname()[1])

    async def start(self) -> int:
        loop = asyncio.get_running_loop()
        self._server = await loop.create_server(
            lambda: _Connection(self), self._host, self._port
        )
        return self.port

    async def stop_accepting(self) -> None:
        """Close the listening socket; existing connections keep going.

        Also flips :attr:`closing`, so every subsequent response carries
        ``Connection: close`` — the first half of graceful drain.
        """
        self.closing = True
        if self._server is not None:
            self._server.close()

    async def wait_connections(self, *, grace_s: float = 5.0) -> None:
        """Wait (bounded) for open connections to finish, then cut them."""
        if self._connections:
            await asyncio.wait([conn.closed for conn in self._connections], timeout=grace_s)
        for conn in tuple(self._connections):
            conn._transport.abort()
        tasks = tuple(self._tasks)
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
