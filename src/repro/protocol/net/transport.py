"""A transport that ships every message through a real TCP connection.

:class:`SocketTransport` is the byte-exact
:class:`~repro.protocol.transport.WireTransport` with the loopback made
physical: each :meth:`~repro.protocol.transport.InMemoryTransport.send`
wire-encodes the message, wraps it in a length-prefixed frame and queues
it; reading a mailbox that has frames in flight first flushes the whole
queue, in send order, into a connected localhost TCP socket and reads it
back out of the peer end. Every byte of every protocol message therefore
crosses the kernel's TCP stack — framing bugs, partial reads and
oversized frames fail here, not in production — at one flush per tier of
a round; and as no reader sees a mailbox before everything queued ahead
of it has arrived, deliveries and transcript are the wire transport's.

Accounting is the shared :meth:`WireTransport._carry` path: the
counters bill ``len(wire.encode(message))`` exactly as the in-memory
wire transport does (frame overhead is transport plumbing, not §7.1
message bytes), so byte counts cannot drift between transports — the
equivalence tests assert equality.

A flush happens on one thread, so the pump interleaves non-blocking
writes and reads under ``select``: frames larger than the socket buffers
cannot deadlock it. Frames leave the queue in batches of at most
``_chunk`` bytes as the socket takes them, and each echoed frame is
decoded from one slice of the read buffer, so a flush holds a tier's
frames once. Its stall deadline bounds one frame (re-armed as each
completes), and a flush that fails mid-stream closes the transport.
"""

from __future__ import annotations

import math
import select
import socket
import threading
import time
from collections import deque
from typing import Any, Deque, List, Optional, Set, Tuple

from repro.errors import ConfigurationError, ProtocolError, TransportError
from repro.protocol import wire
from repro.protocol.net import frames
from repro.protocol.transport import WireTransport

_CHUNK = 256 * 1024


class SocketTransport(WireTransport):
    """Wire transport whose bytes round-trip a localhost TCP connection.

    ``max_frame`` (a positive int) caps one frame's length; ``timeout``
    (finite seconds > 0) is the pump's per-frame stall deadline. A value
    under which no send or flush could work is a
    :class:`~repro.errors.ConfigurationError` at construction.
    """

    def __init__(
        self,
        record_transcript: bool = False,
        max_frame: int = frames.DEFAULT_MAX_FRAME,
        timeout: float = 30.0,
    ) -> None:
        if isinstance(max_frame, bool) or not isinstance(max_frame, int) \
                or max_frame < 1:
            raise ConfigurationError(
                f"max_frame must be a positive int, got {max_frame!r}")
        if isinstance(timeout, bool) or not isinstance(timeout, (int, float)) \
                or not (math.isfinite(timeout) and timeout > 0):
            raise ConfigurationError(
                f"timeout must be a finite number of seconds > 0, "
                f"got {timeout!r}")
        super().__init__(record_transcript=record_transcript)
        # _closed first: __del__ runs even when __init__ died before the
        # sockets existed, and close() must find a coherent state.
        self._closed = True
        self.max_frame = max_frame
        self.timeout = timeout
        # Write pacing knobs, overridden per-send by the chaos transport
        # (slow-loris trickle). The defaults reproduce the plain pump.
        self._chunk = _CHUNK
        self._write_pause = 0.0
        self._lock = threading.Lock()
        # Sends framed but not yet on the wire, and the mailboxes they are for.
        self._queue: Deque[Tuple[str, str, str, bytes]] = deque()
        self._in_flight: Set[str] = set()
        listener = socket.create_server(("127.0.0.1", 0))
        try:
            self.port = listener.getsockname()[1]
            self._out = socket.create_connection(("127.0.0.1", self.port))
            self._in, _ = listener.accept()
        finally:
            listener.close()
        for sock in (self._out, self._in):
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            sock.setblocking(False)
        self._closed = False

    # ------------------------------------------------------------------
    # The byte-shipping hook (single accounting path stays in the base)
    # ------------------------------------------------------------------
    def _ship(self, mailbox: str, sender: str, recipient: str, encoded: bytes) -> None:
        """Frame and queue; :meth:`_flush` moves the bytes."""
        if self._closed:
            raise TransportError("socket transport is closed")
        frames.check_frame_length(1 + len(encoded), self.max_frame)
        frame = frames.pack_frame(frames.SHIP, encoded)
        with self._lock:
            self._queue.append((mailbox, sender, recipient, frame))
            self._in_flight.add(mailbox)

    def receive(self, endpoint: str) -> Optional[Tuple[str, Any]]:
        if endpoint in self._in_flight:
            self._flush()
        return super().receive(endpoint)

    def drain(self, endpoint: str) -> List[Tuple[str, Any]]:
        if endpoint in self._in_flight:
            self._flush()
        return super().drain(endpoint)

    def pending(self, endpoint: str) -> int:
        if endpoint in self._in_flight:
            self._flush()
        return super().pending(endpoint)

    def _flush(self) -> None:
        """Write the queued frames and read each back, in send order; an
        error mid-stream desynchronises the pair, so it closes the transport."""
        with self._lock:
            queue, self._queue = self._queue, deque()
            self._in_flight.clear()
            try:
                self._pump(queue)
            except BaseException:
                self.close()
                raise

    def _pump(self, queue: Deque[Tuple[str, str, str, bytes]]) -> None:
        """Interleaved under select; a frame is delivered as its echo completes.

        Frames leave ``queue`` in batches of at most ``_chunk`` bytes (a
        larger frame alone), joined only as the socket can take them;
        once written, only a frame's length stays, for its echo check."""
        written: Deque[Tuple[str, str, str, int]] = deque()
        out = memoryview(b"")
        buf = bytearray()
        deadline = time.monotonic() + self.timeout
        while queue or written:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TransportError(
                    f"socket transport stalled for {self.timeout}s "
                    f"mid-frame ({len(buf)} bytes echoed)"
                )
            readable, writable, _ = select.select(
                [self._in], [self._out] if out or queue else [], [], remaining
            )
            if writable:
                if not out:
                    out = self._batch(queue, written)
                try:
                    sent = self._out.send(out[: self._chunk])
                except BlockingIOError:
                    sent = 0
                out = out[sent:]
                if sent and (out or queue) and self._write_pause:
                    # Trickle pacing: the deadline above still bounds the
                    # frame being echoed, so a too-slow sender stalls out.
                    left = deadline - time.monotonic()
                    time.sleep(min(self._write_pause, max(0.0, left)))
            if not readable:
                continue
            chunk = self._in.recv(_CHUNK)
            if not chunk:
                raise TransportError("socket transport connection closed mid-frame")
            buf += chunk
            start = 0
            while written and len(buf) - start >= frames.HEAD.size:
                length, kind = frames.HEAD.unpack_from(buf, start)
                frames.check_frame_length(length, self.max_frame)
                mailbox, sender, recipient, frame_len = written[0]
                if 4 + length != frame_len or kind != frames.SHIP:
                    raise ProtocolError(
                        f"socket transport echoed {length} frame bytes of kind "
                        f"{kind}, expected {frame_len - 4} of kind SHIP"
                    )
                end = start + frame_len
                if len(buf) < end:
                    break
                written.popleft()
                message = wire.decode(buf[start + frames.HEAD.size : end])
                self._deliver(mailbox, sender, recipient, message)
                start = end
                deadline = time.monotonic() + self.timeout
            del buf[:start]

    def _batch(
        self,
        queue: Deque[Tuple[str, str, str, bytes]],
        written: Deque[Tuple[str, str, str, int]],
    ) -> memoryview:
        """Join the next frames of ``queue``, up to ``_chunk`` bytes, and
        move them to ``written`` as lengths."""
        parts: List[bytes] = []
        size = 0
        while queue and (not parts or size + len(queue[0][3]) <= self._chunk):
            mailbox, sender, recipient, frame = queue.popleft()
            parts.append(frame)
            size += len(frame)
            written.append((mailbox, sender, recipient, len(frame)))
        return memoryview(b"".join(parts))

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close both socket ends; idempotent, and safe on an instance
        whose ``__init__`` never finished (``__del__`` calls this during
        interpreter shutdown, when attributes may be missing and module
        globals already torn down)."""
        if getattr(self, "_closed", True):
            return
        self._closed = True
        self._queue, self._in_flight = deque(), set()
        for sock in (getattr(self, "_out", None), getattr(self, "_in", None)):
            if sock is None:
                continue
            try:
                sock.close()
            except OSError:
                pass

    def __enter__(self) -> "SocketTransport":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __del__(self) -> None:  # best-effort cleanup, must never raise
        try:
            self.close()
        except BaseException:  # allowlisted in devtools/protolint.py (PL004)
            pass
