"""A minimal stdlib HTTP/1.1 server for the service plane.

The service plane needs exactly one thing from HTTP: JSON request in,
JSON response out, over localhost, with the same reader discipline as
:mod:`repro.protocol.net.frames` — every length is validated *before*
any allocation, truncation raises instead of hanging, and a peer that
trickles bytes forever runs into a deadline. The stdlib's
``http.server`` offers none of that under asyncio, so this module
implements the tiny subset the service uses:

* request bodies must carry ``Content-Length`` (chunked encoding is
  refused with 501 — the service's clients never send it);
* the request line is capped at 8 KiB, the header block at 64 KiB, and
  the body at the frame layer's ``DEFAULT_MAX_FRAME`` — all checked
  against the declared length before buffering, mirroring
  :func:`repro.protocol.net.frames.check_frame_length`;
* handlers are synchronous callables dispatched via
  ``loop.run_in_executor``, so blocking protocol work (a round pump, a
  job submission) never stalls the accept loop;
* ``start()``/``stop()`` run the asyncio loop on a daemon thread, and
  startup errors propagate to the caller. This is the package's one
  event loop: unlike an aggregator worker, which answers its one proxy
  in a blocking loop, the HTTP plane serves many remote clients at once.

This is transport *plumbing*: the HTTP envelope around control-plane
JSON is not part of the §7.1 protocol byte accounting (protocol bytes
are billed where they always were, in ``InMemoryTransport.send`` via
``_carry``/``_ship``). The server still counts its envelope bytes
in :attr:`HttpServer.bytes_in` / :attr:`HttpServer.bytes_out` as
operational telemetry.
"""

from __future__ import annotations

import asyncio
import json
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple
from urllib.parse import parse_qsl, urlsplit

from repro.errors import ReproError
from repro.protocol.net.frames import DEFAULT_MAX_FRAME

#: Reader-discipline caps (reject before allocating, like frames.py).
MAX_REQUEST_LINE = 8 * 1024
MAX_HEADER_BLOCK = 64 * 1024
MAX_BODY = DEFAULT_MAX_FRAME

_REASONS = {
    200: "OK",
    201: "Created",
    204: "No Content",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    409: "Conflict",
    413: "Payload Too Large",
    422: "Unprocessable Entity",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


class HttpError(ReproError):
    """An error with an HTTP status; handlers raise it to answer with
    a structured JSON error body instead of a 500."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


@dataclass
class Request:
    """One parsed HTTP request as the handler sees it."""

    method: str
    path: str
    query: Dict[str, str]
    headers: Dict[str, str]
    body: bytes

    def json(self) -> Dict[str, Any]:
        """The request body as a JSON object (400 on anything else)."""
        if not self.body:
            return {}
        try:
            payload = json.loads(self.body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError):
            raise HttpError(400, "request body is not valid JSON") from None
        if not isinstance(payload, dict):
            raise HttpError(400, "request body must be a JSON object")
        return payload


@dataclass
class Response:
    """What a handler returns; serialized by the connection loop."""

    status: int = 200
    body: bytes = b""
    content_type: str = "application/json"
    headers: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def json(cls, payload: Any, status: int = 200) -> "Response":
        body = (json.dumps(payload) + "\n").encode("utf-8")
        return cls(status=status, body=body)

    @classmethod
    def error(cls, status: int, message: str) -> "Response":
        return cls.json({"error": message}, status=status)

    def encode(self) -> bytes:
        reason = _REASONS.get(self.status, "Unknown")
        lines = [
            f"HTTP/1.1 {self.status} {reason}",
            f"content-type: {self.content_type}",
            f"content-length: {len(self.body)}",
        ]
        for name, value in self.headers.items():
            lines.append(f"{name}: {value}")
        head = "\r\n".join(lines) + "\r\n\r\n"
        return head.encode("latin-1") + self.body


#: Handler signature: a synchronous callable, run in the executor.
Handler = Callable[[Request], Response]


class _BadRequest(Exception):
    """Internal: a malformed request that still gets an HTTP reply."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.message = message


async def _read_line(reader: asyncio.StreamReader, limit: int,
                     what: str) -> bytes:
    """One CRLF-terminated line, capped at ``limit`` bytes."""
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.LimitOverrunError:
        raise _BadRequest(431, f"{what} exceeds {limit} bytes") from None
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            raise EOFError from None
        raise _BadRequest(400, f"connection closed mid-{what}") from None
    if len(line) > limit:
        raise _BadRequest(431, f"{what} exceeds {limit} bytes")
    return line.rstrip(b"\r\n")


async def _read_request(reader: asyncio.StreamReader,
                        max_body: int) -> Tuple[Request, int]:
    """Parse one request with the frames.py reject-before-allocate
    discipline; returns (request, envelope bytes consumed)."""
    request_line = await _read_line(reader, MAX_REQUEST_LINE, "request line")
    consumed = len(request_line) + 2
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3:
        raise _BadRequest(400, "malformed request line")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise _BadRequest(400, f"unsupported protocol version {version!r}")
    headers: Dict[str, str] = {}
    header_bytes = 0
    while True:
        line = await _read_line(reader, MAX_HEADER_BLOCK, "header block")
        consumed += len(line) + 2
        if not line:
            break
        header_bytes += len(line)
        if header_bytes > MAX_HEADER_BLOCK:
            raise _BadRequest(431,
                              f"header block exceeds {MAX_HEADER_BLOCK} bytes")
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise _BadRequest(400, f"malformed header line {line[:40]!r}")
        headers[name.strip().lower()] = value.strip()
    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise _BadRequest(501, "chunked transfer encoding is not supported")
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise _BadRequest(400,
                          f"bad content-length {length_text!r}") from None
    if length < 0:
        raise _BadRequest(400, f"negative content-length {length}")
    # The frames.py discipline: refuse the declared size before
    # buffering a single body byte.
    if length > max_body:
        raise _BadRequest(413, f"body of {length} bytes exceeds the "
                               f"{max_body}-byte limit")
    body = b""
    if length:
        try:
            body = await reader.readexactly(length)
        except asyncio.IncompleteReadError as exc:
            raise _BadRequest(400, f"connection closed mid-body "
                                   f"({len(exc.partial)}/{length} bytes)"
                              ) from None
        consumed += length
    split = urlsplit(target)
    query = dict(parse_qsl(split.query))
    return Request(method=method.upper(), path=split.path, query=query,
                   headers=headers, body=body), consumed


class HttpServer:
    """Serve one synchronous handler behind an asyncio accept loop.

    The handler runs in the default thread-pool executor, one request
    at a time per connection; connections are served concurrently and
    the *handler itself* is responsible for its own locking (the
    service app serializes on one ops lock).
    """

    def __init__(self, handler: Handler, host: str = "127.0.0.1",
                 port: int = 0, max_body: int = MAX_BODY,
                 timeout: float = 30.0) -> None:
        self.handler = handler
        self.host = host
        self.port = port
        self.max_body = max_body
        #: Per-request read deadline: a peer trickling bytes cannot
        #: hold a connection slot forever.
        self.timeout = timeout
        self.address: Optional[Tuple[str, int]] = None
        #: HTTP envelope telemetry (not §7.1 protocol accounting).
        self.bytes_in = 0
        self.bytes_out = 0
        self.requests_served = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        loop = asyncio.get_running_loop()
        try:
            while True:
                try:
                    request, consumed = await asyncio.wait_for(
                        _read_request(reader, self.max_body), self.timeout)
                except EOFError:
                    break
                except asyncio.TimeoutError:
                    break
                except _BadRequest as exc:
                    response = Response.error(exc.status, exc.message)
                    payload = response.encode()
                    self.bytes_out += len(payload)
                    writer.write(payload)
                    await writer.drain()
                    break
                self.bytes_in += consumed
                self.requests_served += 1
                response = await loop.run_in_executor(
                    None, self._dispatch, request)
                payload = response.encode()
                self.bytes_out += len(payload)
                writer.write(payload)
                await writer.drain()
                if request.headers.get("connection", "").lower() == "close":
                    break
        except (ConnectionError, OSError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    def _dispatch(self, request: Request) -> Response:
        try:
            return self.handler(request)
        except HttpError as exc:
            return Response.error(exc.status, exc.message)
        except Exception as exc:  # noqa: BLE001 - shipped to the caller
            return Response.error(
                500, f"{type(exc).__name__}: {exc}")

    # ------------------------------------------------------------------
    # Asyncio serving + threaded lifecycle
    # ------------------------------------------------------------------
    async def serve(self) -> None:
        """Run until :meth:`request_stop`."""
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            server = await asyncio.start_server(
                self._handle, self.host, self.port,
                limit=MAX_HEADER_BLOCK)
        except BaseException as exc:
            self._startup_error = exc
            self._started.set()
            return
        self.address = server.sockets[0].getsockname()[:2]
        self._started.set()
        async with server:
            await self._stop.wait()

    def request_stop(self) -> None:
        """Signal the serve loop to exit (safe from any thread)."""
        if self._loop is not None and self._stop is not None:
            try:
                self._loop.call_soon_threadsafe(self._stop.set)
            except RuntimeError:
                pass  # loop already closed: the server is down, which is the goal

    def start(self, timeout: float = 10.0) -> Tuple[str, int]:
        """Serve on a daemon thread; returns the bound ``(host, port)``."""
        if self._thread is not None:
            raise HttpError(500, "http server already started")
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self.serve()),
            name="repro-service-http", daemon=True)
        self._thread.start()
        if not self._started.wait(timeout):
            raise HttpError(500, "http server did not start in time")
        if self._startup_error is not None:
            raise HttpError(
                500, f"http server failed to bind: {self._startup_error}")
        assert self.address is not None
        return self.address

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the threaded server and join its thread."""
        self.request_stop()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None
