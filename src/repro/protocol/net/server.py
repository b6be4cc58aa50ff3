"""Asyncio frame server hosting one protocol endpoint behind a TCP port.

The server owns a single :class:`~repro.protocol.endpoint.ProtocolEndpoint`
and translates incoming frames into its lifecycle hooks: MSG becomes
``on_message``, ROUND_START / IDLE / ROUND_END become the round hooks,
SUMMARY asks a root for its finalized :class:`~repro.protocol.endpoint.
RoundSummary`. Replies stream back as OUT frames (the hook's outbox)
terminated by DONE, or a single ERR frame carrying the exception — so a
raise inside the hosted endpoint surfaces on the caller's side as the
same exception class, never as a hang.

The aggregator **worker** (:mod:`repro.protocol.net.worker`) runs it as
a subprocess's main loop; :meth:`EndpointServer.start` runs it on a
daemon thread of the calling process instead (how the net-layer tests
host an endpoint without a subprocess), and ``allowed_kinds`` narrows
the verbs a connection may send.

Dispatch is serialized under one lock across all connections: endpoint
state is single-threaded by contract, and the frame protocol is strictly
request/reply per connection.
"""

from __future__ import annotations

import asyncio
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.errors import ProtocolError
from repro.protocol.endpoint import Outbox, ProtocolEndpoint
from repro.protocol import wire
from repro.protocol.net import frames
from repro.protocol.net.spec import resolve_rule, summary_to_spec

Reply = Tuple[int, bytes]


class EndpointServer:
    """Host one endpoint's lifecycle behind length-prefixed TCP frames.

    Parameters
    ----------
    endpoint:
        The hosted :class:`~repro.protocol.endpoint.ProtocolEndpoint`.
    rebuild:
        Optional spec-to-endpoint factory enabling RECONFIGURE frames
        (the worker passes :func:`~repro.protocol.net.spec.build_endpoint`
        so epoch advances can re-wire the live process). Without it,
        RECONFIGURE is refused.
    delay_s:
        Chaos knob: sleep this long before dispatching each frame,
        modelling a slow aggregation server. The driver's quiescence
        logic must tolerate it (see the failure-mode tests).
    hang_after:
        Chaos knob: after this many dispatched frames the server stops
        replying (sleeps ~forever per request) *without* exiting — the
        wedged-worker failure mode. EOF-based crash detection cannot see
        it; the proxy's per-exchange deadline (and the pool's
        kill-and-respawn) must.
    allowed_kinds:
        Optional allow-list of frame kinds this deployment accepts;
        anything else is refused with an ERR frame. The aggregator
        worker needs the full verb set; a query-only surface passes
        ``{frames.SUMMARY}`` so a connecting client cannot mutate round
        state, swap the threshold rule, or stop the service. None
        (default) allows everything.
    """

    def __init__(
        self,
        endpoint: ProtocolEndpoint,
        host: str = "127.0.0.1",
        port: int = 0,
        max_frame: int = frames.DEFAULT_MAX_FRAME,
        rebuild: Optional[Callable[[Dict[str, Any]], ProtocolEndpoint]] = None,
        delay_s: float = 0.0,
        hang_after: Optional[int] = None,
        allowed_kinds: Optional[frozenset[int]] = None,
    ) -> None:
        self.endpoint = endpoint
        self.host = host
        self.port = port
        self.max_frame = max_frame
        self.rebuild = rebuild
        self.delay_s = delay_s
        self.hang_after = hang_after
        self._dispatched = 0
        self.allowed_kinds = (
            frozenset(allowed_kinds) if allowed_kinds is not None else None
        )
        self.address: Optional[Tuple[str, int]] = None
        self._lock = threading.Lock()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop: Optional[asyncio.Event] = None
        self._thread: Optional[threading.Thread] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None

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
        """Turn one request frame into its reply frames (thread-safe)."""
        if self.delay_s:
            time.sleep(self.delay_s)
        self._dispatched += 1
        if self.hang_after is not None and self._dispatched > self.hang_after:
            # Wedge, don't die: no reply ever comes, the connection stays
            # open, the process stays alive. An hour outlasts any test's
            # deadline while keeping the hang recoverable by SIGKILL.
            time.sleep(3600.0)
        with self._lock:
            try:
                return self._dispatch_locked(kind, body)
            except BaseException as exc:  # noqa: BLE001 - shipped to caller
                return [(frames.ERR, frames.pack_error(exc))]

    def _dispatch_locked(self, kind: int, body: bytes) -> List[Reply]:
        if self.allowed_kinds is not None and kind not in self.allowed_kinds:
            raise ProtocolError(
                f"frame kind {kind} is not permitted on this endpoint "
                f"(query-only surface)"
            )
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
        if kind == frames.SET_RULE:
            spec = frames.unpack_json(body)
            self.endpoint.threshold_rule = resolve_rule(spec["rule"])
            return [(frames.DONE, b"")]
        if kind == frames.RECONFIGURE:
            if self.rebuild is None:
                raise ProtocolError(
                    "this endpoint server does not support reconfiguration"
                )
            self.endpoint = self.rebuild(frames.unpack_json(body))
            return [(frames.DONE, b"")]
        if kind == frames.SHUTDOWN:
            return [(frames.DONE, b"")]
        raise ProtocolError(f"unknown frame kind {kind}")

    # ------------------------------------------------------------------
    # Asyncio serving
    # ------------------------------------------------------------------
    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            while True:
                frame = await frames.aio_recv_frame(
                    reader, self.max_frame, eof_ok=True
                )
                if frame is None:
                    break
                kind, body = frame
                for reply_kind, reply_body in self.dispatch(kind, body):
                    writer.write(frames.pack_frame(reply_kind, reply_body))
                await writer.drain()
                if kind == frames.SHUTDOWN and (
                    self.allowed_kinds is None
                    or frames.SHUTDOWN in self.allowed_kinds
                ):
                    self.request_stop()
                    break
        except ProtocolError:
            # Framing violation (oversized / truncated frame): the stream
            # is unrecoverable, drop the connection. The peer observes the
            # close and raises on its side.
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def serve(
        self, announce: Optional[Callable[[Tuple[str, int]], None]] = None
    ) -> None:
        """Run until :meth:`request_stop`; ``announce`` gets the port."""
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()
        try:
            server = await asyncio.start_server(self._handle, self.host, self.port)
        except BaseException as exc:
            self._startup_error = exc
            self._started.set()
            raise
        self.address = server.sockets[0].getsockname()[:2]
        self._started.set()
        if announce is not None:
            announce(self.address)
        async with server:
            await self._stop.wait()

    def request_stop(self) -> None:
        """Signal the serve loop to exit (safe from any thread)."""
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)

    # ------------------------------------------------------------------
    # Threaded hosting (in-process, instead of a worker subprocess)
    # ------------------------------------------------------------------
    def start(self, timeout: float = 10.0) -> Tuple[str, int]:
        """Serve on a daemon thread; returns the bound ``(host, port)``."""
        if self._thread is not None:
            raise ProtocolError("endpoint server already started")
        self._thread = threading.Thread(
            target=lambda: asyncio.run(self.serve()),
            name=f"endpoint-server-{getattr(self.endpoint, 'endpoint_id', '?')}",
            daemon=True,
        )
        self._thread.start()
        if not self._started.wait(timeout):
            raise ProtocolError("endpoint server did not start in time")
        if self._startup_error is not None:
            raise ProtocolError(
                f"endpoint server failed to bind: {self._startup_error}"
            )
        assert self.address is not None
        return self.address

    def stop(self, timeout: float = 10.0) -> None:
        """Stop the threaded server and join its thread."""
        self.request_stop()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None
