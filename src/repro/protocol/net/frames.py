"""The length-prefixed ship frame of :class:`~repro.protocol.net.SocketTransport`.

Every protocol message that crosses the transport's localhost TCP
connection travels as one frame::

    >I total length (kind byte + body)  |  B kind (SHIP)  |  body

The body is the message, already encoded by the byte-exact codec in
:mod:`repro.protocol.wire`; the frame adds only its length and kind.

Robustness rules (exercised by ``tests/test_protocol_socket_failures.py``):

* a declared length beyond ``max_frame``, or below the one kind byte,
  raises :class:`~repro.errors.ProtocolError` *before* any allocation —
  a corrupt length prefix cannot make the receiver buffer gigabytes;
* a connection that closes mid-frame is a
  :class:`~repro.errors.TransportError`, never a silent partial read.
"""

from __future__ import annotations

import socket
import struct

from repro.errors import ProtocolError

#: SocketTransport's ship-and-echo payload (body: wire-encoded message).
SHIP = 8

#: A frame's length prefix and kind byte.
HEAD = struct.Struct(">IB")

#: Default ceiling for one frame. Generous for the protocol's payloads
#: (a 6144-cell report is ~24 KiB) while bounding what a corrupt length
#: prefix can make a receiver allocate.
DEFAULT_MAX_FRAME = 64 * 1024 * 1024


def pack_frame(kind: int, body: bytes = b"") -> bytes:
    """One frame: length prefix, kind byte, body."""
    return b"".join((HEAD.pack(1 + len(body), kind), body))


def check_frame_length(length: int, max_frame: int) -> None:
    """Validate a declared frame length before allocating for it."""
    if length < 1:
        raise ProtocolError(f"frame length {length} is below the 1-byte minimum")
    if length > max_frame:
        raise ProtocolError(
            f"frame of {length} bytes exceeds the {max_frame}-byte limit"
        )


def hang_up(sock: socket.socket) -> None:
    """Shut both directions down, waking a thread blocked reading
    ``sock`` (it sees EOF); a no-op on an already-closed socket."""
    try:
        sock.shutdown(socket.SHUT_RDWR)
    except OSError:
        pass
