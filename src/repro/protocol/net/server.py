"""Blocking frame server hosting one protocol endpoint behind a TCP port.

The server owns a single :class:`~repro.protocol.endpoint.ProtocolEndpoint`
and translates incoming frames into its lifecycle hooks: MSG becomes
``on_message``, ROUND_START / IDLE / ROUND_END become the round hooks,
SUMMARY asks a root for its finalized :class:`~repro.protocol.endpoint.
RoundSummary`. Replies stream back as OUT frames (the hook's outbox)
terminated by DONE, or a single ERR frame carrying the exception — so a
raise inside the hosted endpoint surfaces on the caller's side as the
same exception class, never as a hang.

One peer drives it — the :class:`~repro.protocol.net.proxy.
ProcessEndpointProxy` its pool connected, which sends one request frame
and waits for the replies — so the server is one blocking loop: accept a
connection, answer its requests in order with the same
:func:`~repro.protocol.net.frames.recv_frame` the proxy reads replies
with, go back to accept when the peer hangs up, return on SHUTDOWN.

The aggregator **worker** (:mod:`repro.protocol.net.worker`) runs
:meth:`EndpointServer.serve` as a subprocess's main loop;
:meth:`EndpointServer.start` runs the same loop on a daemon thread of
the calling process instead (how the net-layer tests host an endpoint
without a subprocess).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable, List, Optional, Tuple

from repro.errors import ProtocolError
from repro.protocol.endpoint import Outbox, ProtocolEndpoint
from repro.protocol import wire
from repro.protocol.net import frames
from repro.protocol.net.spec import build_endpoint, summary_to_spec

if TYPE_CHECKING:
    import socket

Reply = Tuple[int, bytes]


class EndpointServer:
    """Host one endpoint's lifecycle behind length-prefixed TCP frames.

    Parameters
    ----------
    endpoint:
        The hosted :class:`~repro.protocol.endpoint.ProtocolEndpoint`;
        a RECONFIGURE frame replaces it with
        :func:`~repro.protocol.net.spec.build_endpoint` of the new spec
        (how epoch advances re-wire a live process); nothing else
        changes it.
    """

    def __init__(
        self,
        endpoint: ProtocolEndpoint,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.endpoint = endpoint
        self.host = host
        self.port = port
        self.address: Optional[Tuple[str, int]] = None
        self._stopping = False
        self._conn: Optional[socket.socket] = None
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    # Frame dispatch
    # ------------------------------------------------------------------
    def _outbox_replies(self, outbox: Optional[Outbox]) -> List[Reply]:
        replies: List[Reply] = []
        for recipient, message in outbox or []:
            body = frames.pack_name(recipient) + wire.encode(message)
            replies.append((frames.OUT, body))
        replies.append((frames.DONE, b""))
        return replies

    def dispatch(self, kind: int, body: bytes) -> List[Reply]:
        """Turn one request frame into its reply frames."""
        try:
            return self._dispatch(kind, body)
        except BaseException as exc:  # noqa: BLE001 - shipped to caller
            return [(frames.ERR, frames.pack_error(exc))]

    def _dispatch(self, kind: int, body: bytes) -> List[Reply]:
        if kind == frames.MSG:
            sender, payload = frames.unpack_name(body)
            message = wire.decode(payload)
            return self._outbox_replies(self.endpoint.on_message(sender, message))
        if kind == frames.ROUND_START:
            round_id = frames.unpack_round(body)
            return self._outbox_replies(self.endpoint.on_round_start(round_id))
        if kind == frames.IDLE:
            round_id = frames.unpack_round(body)
            return self._outbox_replies(self.endpoint.on_idle(round_id))
        if kind == frames.ROUND_END:
            self.endpoint.on_round_end(frames.unpack_round(body))
            return [(frames.DONE, b"")]
        if kind == frames.SUMMARY:
            summary = self.endpoint.round_summary()
            return [(frames.SUMMARY_DATA, frames.pack_json(summary_to_spec(summary)))]
        if kind == frames.RECONFIGURE:
            self.endpoint = build_endpoint(frames.unpack_json(body))
            return [(frames.DONE, b"")]
        if kind == frames.SHUTDOWN:
            return [(frames.DONE, b"")]
        raise ProtocolError(f"unknown frame kind {kind}")

    # ------------------------------------------------------------------
    # The serve loop
    # ------------------------------------------------------------------
    def _answer(self, conn: socket.socket) -> bool:
        """Answer one peer's requests until it hangs up; True once it
        sent SHUTDOWN."""
        try:
            while True:
                frame = frames.recv_frame(conn, eof_ok=True)
                if frame is None:
                    return False
                kind, body = frame
                frames.send_frames(conn, self.dispatch(kind, body))
                if kind == frames.SHUTDOWN:
                    return True
        except (ProtocolError, OSError):
            # A framing violation (oversized / truncated frame) leaves
            # the stream unrecoverable, a reset leaves none: drop the
            # connection. The peer observes the close and raises.
            return False

    def _bind(self) -> socket.socket:
        listener = frames.listen_stream(self.host, self.port)
        self.address = listener.getsockname()[:2]
        return listener

    def _serve(self, listener: socket.socket) -> None:
        with listener:
            while not self._stopping:
                with frames.accept_stream(listener) as conn:
                    self._conn = conn
                    if self._stopping or self._answer(conn):
                        return

    def serve(
        self, announce: Optional[Callable[[Tuple[str, int]], None]] = None
    ) -> None:
        """Serve until a SHUTDOWN frame; ``announce`` gets the bound
        ``(host, port)`` once connections are accepted."""
        listener = self._bind()
        if announce is not None:
            announce(self.address)
        self._serve(listener)

    # ------------------------------------------------------------------
    # Threaded hosting (in-process, instead of a worker subprocess)
    # ------------------------------------------------------------------
    def start(self) -> Tuple[str, int]:
        """Serve on a daemon thread; returns the bound ``(host, port)``."""
        if self._thread is not None:
            raise ProtocolError("endpoint server already started")
        listener = self._bind()
        self._thread = threading.Thread(
            target=self._serve,
            args=(listener,),
            name=f"endpoint-server-{getattr(self.endpoint, 'endpoint_id', '?')}",
            daemon=True,
        )
        self._thread.start()
        assert self.address is not None
        return self.address

    def stop(self, timeout: float = 10.0) -> None:
        """End the threaded loop and join its thread: hang up the
        connection being served, then wake a blocked accept with a
        connection of our own."""
        self._stopping = True
        if self._conn is not None:
            frames.hang_up(self._conn)
        if self._thread is not None:
            assert self.address is not None
            try:
                frames.connect_stream(*self.address, timeout=timeout).close()
            except OSError:
                pass  # the listener is closed: the loop already returned
            self._thread.join(timeout)
            self._thread = None
