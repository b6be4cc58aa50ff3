"""Length-prefixed framing for the networked protocol layer.

Everything that crosses a real socket in :mod:`repro.protocol.net` —
protocol messages shipped by :class:`~repro.protocol.net.SocketTransport`,
endpoint lifecycle calls forwarded to aggregator subprocesses, and their
replies — travels as one frame format::

    >I total length (kind byte + body)  |  B kind  |  body

Protocol messages themselves are carried opaque, already encoded by the
byte-exact codec in :mod:`repro.protocol.wire`; the frame layer adds only
routing (sender / recipient names) and the lifecycle verbs the
:class:`~repro.protocol.endpoint.ProtocolEndpoint` contract needs.

Robustness rules (exercised by ``tests/test_protocol_socket_failures.py``):

* a declared length beyond ``max_frame`` raises
  :class:`~repro.errors.ProtocolError` *before* any allocation — a
  corrupt or hostile peer cannot make the receiver buffer gigabytes;
* a connection that closes mid-frame raises ``ProtocolError`` naming the
  truncation — a crashed aggregator process surfaces as an error, never
  a silent partial read;
* a clean close at a frame boundary is distinguishable (``eof_ok=True``)
  so servers can treat it as an orderly shutdown.
"""

from __future__ import annotations

import json
import socket
import struct
import time
import traceback
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.errors import ProtocolError

# ---------------------------------------------------------------------------
# Frame kinds
# ---------------------------------------------------------------------------

#: Deliver one protocol message to the hosted endpoint
#: (body: length-prefixed sender name + wire-encoded message).
MSG = 0
#: Lifecycle verbs (body: ``>I`` round id).
ROUND_START = 1
IDLE = 2
ROUND_END = 3
#: Ask the hosted root for its finalized round summary (empty body).
SUMMARY = 4
#: Replace the hosted endpoint from a new spec without restarting the
#: process (body: JSON spec) — how ``advance_epoch`` re-wires live
#: aggregator processes.
RECONFIGURE = 5
#: Orderly process shutdown (empty body).
SHUTDOWN = 7
#: SocketTransport's ship-and-echo payload (body: wire-encoded message).
SHIP = 8

#: Replies from a hosted endpoint.
OUT = 16  # one outbox item (length-prefixed recipient + wire bytes)
DONE = 17  # the call completed; no more replies for this request
SUMMARY_DATA = 18  # JSON-serialized round summary
ERR = 19  # JSON {"error": class name, "message": str, "traceback": str}

_LEN = struct.Struct(">I")
#: A frame's length prefix and kind byte.
HEAD = struct.Struct(">IB")
_ROUND = struct.Struct(">I")

#: Default ceiling for one frame. Generous for the protocol's payloads
#: (a 6144-cell report is ~24 KiB) while bounding what a corrupt length
#: prefix can make a receiver allocate.
DEFAULT_MAX_FRAME = 64 * 1024 * 1024


def pack_frame(kind: int, body: bytes = b"") -> bytes:
    """One frame: length prefix, kind byte, body."""
    return b"".join((HEAD.pack(1 + len(body), kind), body))


def pack_round(round_id: int) -> bytes:
    return _ROUND.pack(round_id)


def unpack_round(body: bytes) -> int:
    if len(body) != _ROUND.size:
        raise ProtocolError(
            f"round-id frame body must be {_ROUND.size} bytes, got {len(body)}"
        )
    return _ROUND.unpack(body)[0]


def pack_name(name: str) -> bytes:
    """Length-prefixed endpoint name (sender or recipient)."""
    data = name.encode("utf-8")
    if len(data) > 0xFFFF:
        raise ProtocolError("endpoint name too long for frame header")
    return struct.pack(">H", len(data)) + data


def unpack_name(body: bytes) -> Tuple[str, bytes]:
    """Split a frame body into its leading name and the remainder."""
    if len(body) < 2:
        raise ProtocolError("frame body too short for a name header")
    (length,) = struct.unpack_from(">H", body, 0)
    if len(body) < 2 + length:
        raise ProtocolError("frame body truncated inside its name field")
    try:
        name = body[2 : 2 + length].decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ProtocolError(f"frame name is not UTF-8: {exc}") from None
    return name, body[2 + length :]


def pack_json(payload: Dict[str, Any]) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def unpack_json(body: bytes) -> Dict[str, Any]:
    try:
        decoded = json.loads(body.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise ProtocolError(f"malformed JSON frame body: {exc}") from None
    if not isinstance(decoded, dict):
        raise ProtocolError("JSON frame body must be an object")
    return decoded


def pack_error(exc: BaseException) -> bytes:
    """An ERR body carrying enough to re-raise on the calling side."""
    return pack_json(
        {
            "error": type(exc).__name__,
            "message": str(exc),
            "traceback": traceback.format_exc(limit=20),
        }
    )


def check_frame_length(length: int, max_frame: int) -> None:
    """Validate a declared frame length before allocating for it."""
    if length < 1:
        raise ProtocolError(f"frame length {length} is below the 1-byte minimum")
    if length > max_frame:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {max_frame}-byte limit"
        )


# ---------------------------------------------------------------------------
# Blocking socket I/O
# ---------------------------------------------------------------------------


def connect_stream(
    host: str, port: int, timeout: Optional[float] = None
) -> socket.socket:
    """Open the frame layer's canonical TCP connection to a peer.

    The single place the parent side of the protocol dials out from
    (protolint PL001 keeps raw socket creation confined to this module
    and the transport): TCP_NODELAY on, because every exchange is a
    small request/reply frame pair that must not sit in Nagle buffers.
    """
    sock = socket.create_connection((host, port), timeout=timeout)
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def listen_stream(host: str, port: int) -> socket.socket:
    """The hosting side's listening socket (``port=0``: ephemeral)."""
    return socket.create_server((host, port))


def accept_stream(listener: socket.socket) -> socket.socket:
    """Block until a peer connects; its connection, TCP_NODELAY on."""
    sock, _ = listener.accept()
    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
    return sock


def hang_up(sock: socket.socket) -> None:
    """Shut both directions down, waking a thread blocked reading
    ``sock`` (it sees EOF); a no-op on an already-closed socket."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass


def _peer_gone(message: str, timed_out: bool = False) -> ProtocolError:
    """A ProtocolError marked where the loss is *observed*: the stream
    ended (``peer_dead``) or the read deadline expired (``timed_out``
    too). Callers test the marker, never the message — a parse error on
    a complete frame from a live peer may well say "truncated"."""
    exc = ProtocolError(message)
    exc.peer_dead = True
    exc.timed_out = timed_out
    return exc


def _recv_exact(
    sock: socket.socket,
    count: int,
    context: str,
    deadline: Optional[float] = None,
) -> Optional[bytes]:
    """Read exactly ``count`` bytes; None on clean EOF before any byte.

    ``deadline`` (a ``time.monotonic()`` instant) hard-bounds the whole
    read: without it, a peer trickling one byte per socket-timeout
    interval could stretch a single frame forever — each ``recv``
    individually beats the timeout while the exchange never ends.
    """
    chunks: List[bytes] = []
    received = 0
    while received < count:
        if deadline is not None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise _peer_gone(
                    f"timed out waiting for {context} "
                    f"({received}/{count} bytes)",
                    timed_out=True,
                )
            sock.settimeout(min(sock.gettimeout() or remaining, remaining))
        try:
            chunk = sock.recv(count - received)
        except socket.timeout:
            raise _peer_gone(
                f"timed out waiting for {context} ({received}/{count} bytes)",
                timed_out=True,
            ) from None
        if not chunk:
            if received == 0:
                return None
            raise _peer_gone(
                f"connection closed mid-frame: {context} truncated at "
                f"{received}/{count} bytes"
            )
        chunks.append(chunk)
        received += len(chunk)
    return b"".join(chunks)


def send_frame(sock: socket.socket, kind: int, body: bytes = b"") -> None:
    sock.sendall(pack_frame(kind, body))


def send_frames(sock: socket.socket, replies: Iterable[Tuple[int, bytes]]) -> None:
    """Several ``(kind, body)`` frames in one write."""
    sock.sendall(b"".join(pack_frame(kind, body) for kind, body in replies))


def recv_frame(
    sock: socket.socket,
    max_frame: int = DEFAULT_MAX_FRAME,
    eof_ok: bool = False,
    deadline: Optional[float] = None,
) -> Optional[Tuple[int, bytes]]:
    """Read one frame; ``(kind, body)``, or None on clean EOF if allowed.

    ``deadline`` bounds the *whole* frame (header and payload together)
    against byte-trickling peers; see :func:`_recv_exact`.
    """
    header = _recv_exact(sock, _LEN.size, "frame length prefix", deadline)
    if header is None:
        if eof_ok:
            return None
        raise _peer_gone("connection closed while waiting for a frame")
    (length,) = _LEN.unpack(header)
    check_frame_length(length, max_frame)
    payload = _recv_exact(sock, length, "frame payload", deadline)
    if payload is None:
        raise _peer_gone("connection closed between frame header and payload")
    return payload[0], payload[1:]
