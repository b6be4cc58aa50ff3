"""A minimal stdlib HTTP/1.1 server for the service plane.

The service plane needs exactly one thing from HTTP: JSON request in,
JSON response out, over localhost, with the same reader discipline as
:mod:`repro.protocol.net.frames` — every length is validated *before*
any allocation, truncation raises instead of hanging, and a peer that
trickles bytes forever runs into a deadline. The stdlib's
``http.server`` offers none of that, so this module implements the tiny
subset the service uses:

* request bodies must carry ``Content-Length`` (chunked encoding is
  refused with 501 — the service's clients never send it);
* the request line is capped at 8 KiB, the header block at 64 KiB, and
  the body at the frame layer's ``DEFAULT_MAX_FRAME`` — all checked
  against the declared length before buffering, mirroring
  :func:`repro.protocol.net.frames.check_frame_length`;
* every connection is served on its own daemon thread
  (:class:`socketserver.ThreadingTCPServer`), which parses with plain
  blocking reads and calls the synchronous handler directly, so
  blocking protocol work (a round pump, a finalize) stalls only
  the client that asked for it;
* one deadline bounds each whole request, from the wait for its request
  line to its last body byte: a timer hangs the connection up, so
  neither an idle keep-alive peer nor one trickling a byte at a time
  holds its thread forever.

This is transport *plumbing*: the HTTP envelope around control-plane
JSON is not part of the §7.1 protocol byte accounting (protocol bytes
are billed where they always were, in ``InMemoryTransport.send`` via
``_carry``/``_ship``). The server still counts its envelope bytes
in :attr:`HttpServer.bytes_in` / :attr:`HttpServer.bytes_out` as
operational telemetry.
"""

from __future__ import annotations

import json
import socketserver
import threading
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, BinaryIO, Callable, Dict, Optional,
                    Set, Tuple)
from urllib.parse import parse_qsl, urlsplit

from repro.errors import ReproError
from repro.protocol.net import frames

if TYPE_CHECKING:
    import socket

#: Reader-discipline caps (reject before allocating, like frames.py).
MAX_REQUEST_LINE = 8 * 1024
MAX_HEADER_BLOCK = 64 * 1024
MAX_BODY = frames.DEFAULT_MAX_FRAME

#: How often the accept loop checks for :meth:`HttpServer.stop`.
_POLL_INTERVAL = 0.02

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
        except (ValueError, UnicodeDecodeError, RecursionError):
            # RecursionError: arrays or objects nested past the parser's depth
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


#: Handler signature: a synchronous callable, run on the connection's thread.
Handler = Callable[[Request], Response]


def _read_line(rfile: BinaryIO, limit: int, what: str) -> bytes:
    """One CRLF-terminated line, capped at ``limit`` bytes."""
    line = rfile.readline(limit + 1)
    if len(line) > limit:
        raise HttpError(431, f"{what} exceeds {limit} bytes")
    if not line.endswith(b"\n"):
        if not line:
            raise EOFError
        raise HttpError(400, f"connection closed mid-{what}")
    return line.rstrip(b"\r\n")


def _read_request(rfile: BinaryIO, max_body: int) -> Tuple[Request, int]:
    """Parse one request with the frames.py reject-before-allocate
    discipline; returns (request, envelope bytes consumed)."""
    request_line = _read_line(rfile, MAX_REQUEST_LINE, "request line")
    consumed = len(request_line) + 2
    parts = request_line.decode("latin-1").split()
    if len(parts) != 3:
        raise HttpError(400, "malformed request line")
    method, target, version = parts
    if not version.startswith("HTTP/1."):
        raise HttpError(400, f"unsupported protocol version {version!r}")
    headers: Dict[str, str] = {}
    header_bytes = 0
    while True:
        line = _read_line(rfile, MAX_HEADER_BLOCK, "header block")
        consumed += len(line) + 2
        if not line:
            break
        header_bytes += len(line)
        if header_bytes > MAX_HEADER_BLOCK:
            raise HttpError(431,
                            f"header block exceeds {MAX_HEADER_BLOCK} bytes")
        name, sep, value = line.decode("latin-1").partition(":")
        if not sep:
            raise HttpError(400, f"malformed header line {line[:40]!r}")
        headers[name.strip().lower()] = value.strip()
    if "chunked" in headers.get("transfer-encoding", "").lower():
        raise HttpError(501, "chunked transfer encoding is not supported")
    length_text = headers.get("content-length", "0")
    try:
        length = int(length_text)
    except ValueError:
        raise HttpError(400, f"bad content-length {length_text!r}") from None
    if length < 0:
        raise HttpError(400, f"negative content-length {length}")
    # The frames.py discipline: refuse the declared size before
    # buffering a single body byte.
    if length > max_body:
        raise HttpError(413, f"body of {length} bytes exceeds the "
                             f"{max_body}-byte limit")
    body = rfile.read(length) if length else b""
    if len(body) < length:
        raise HttpError(400, f"connection closed mid-body "
                             f"({len(body)}/{length} bytes)")
    consumed += length
    try:
        split = urlsplit(target)
    except ValueError:
        raise HttpError(400, f"malformed request target {target[:40]!r}") \
            from None
    query = dict(parse_qsl(split.query))
    return Request(method=method.upper(), path=split.path, query=query,
                   headers=headers, body=body), consumed


class _Connection(socketserver.StreamRequestHandler):
    """One client connection: parse, dispatch and reply until the peer
    hangs up, asks to close, sends a malformed request or misses the
    deadline."""

    server: _ThreadedServer

    def handle(self) -> None:
        http = self.server.http
        with http._lock:
            http._live.add(self.connection)
        try:
            while True:
                deadline = threading.Timer(http.timeout, frames.hang_up,
                                           (self.connection,))
                deadline.daemon = True
                deadline.start()
                try:
                    request, consumed = _read_request(self.rfile,
                                                      http.max_body)
                except EOFError:
                    return
                except HttpError as exc:  # malformed: answer, then close
                    self._reply(Response.error(exc.status, exc.message))
                    return
                finally:
                    deadline.cancel()
                http._count(consumed, 0, 1)
                self._reply(http._dispatch(request))
                if request.headers.get("connection", "").lower() == "close":
                    return
        except OSError:
            pass  # a reset, or the deadline hung up: nobody to answer
        finally:
            with http._lock:
                http._live.discard(self.connection)

    def _reply(self, response: Response) -> None:
        payload = response.encode()
        self.server.http._count(0, len(payload), 0)
        self.wfile.write(payload)


class _ThreadedServer(socketserver.ThreadingTCPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, http: HttpServer) -> None:
        self.http = http
        super().__init__((http.host, http.port), _Connection)


class HttpServer:
    """Serve one synchronous handler, one daemon thread per connection.

    Connections are served concurrently, so the *handler itself* is
    responsible for its own locking (the service app serializes on one
    ops lock).
    """

    def __init__(self, handler: Handler, host: str = "127.0.0.1",
                 port: int = 0, max_body: int = MAX_BODY,
                 timeout: float = 30.0) -> None:
        self.handler = handler
        self.host = host
        self.port = port
        self.max_body = max_body
        #: Whole-request read deadline: a peer trickling bytes cannot
        #: hold a connection slot forever.
        self.timeout = timeout
        self.address: Optional[Tuple[str, int]] = None
        #: HTTP envelope telemetry (not §7.1 protocol accounting).
        self.bytes_in = 0
        self.bytes_out = 0
        self.requests_served = 0
        self._lock = threading.Lock()
        self._live: Set[socket.socket] = set()
        self._server: Optional[_ThreadedServer] = None

    def _count(self, bytes_in: int, bytes_out: int, requests: int) -> None:
        with self._lock:
            self.bytes_in += bytes_in
            self.bytes_out += bytes_out
            self.requests_served += requests

    def _dispatch(self, request: Request) -> Response:
        try:
            return self.handler(request)
        except HttpError as exc:
            return Response.error(exc.status, exc.message)
        except Exception as exc:  # noqa: BLE001 - shipped to the caller
            return Response.error(
                500, f"{type(exc).__name__}: {exc}")

    def start(self) -> Tuple[str, int]:
        """Bind, then serve on a daemon thread; returns the bound
        ``(host, port)``."""
        if self._server is not None:
            raise HttpError(500, "http server already started")
        try:
            self._server = _ThreadedServer(self)
        except OSError as exc:
            raise HttpError(500, f"http server failed to bind: {exc}") \
                from None
        host, port = self._server.server_address[:2]
        self.address = (str(host), int(port))
        threading.Thread(target=self._server.serve_forever,
                         args=(_POLL_INTERVAL,), name="repro-service-http",
                         daemon=True).start()
        return self.address

    def stop(self) -> None:
        """Stop the accept loop (returns once it has), close the
        listener and hang up every open connection."""
        server, self._server = self._server, None
        if server is None:
            return
        server.shutdown()
        server.server_close()
        with self._lock:
            live = list(self._live)
        for connection in live:
            frames.hang_up(connection)
