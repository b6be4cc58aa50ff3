"""Parent-side proxy for an endpoint hosted behind a socket.

A :class:`ProcessEndpointProxy` *is* a
:class:`~repro.protocol.endpoint.ProtocolEndpoint`: the existing driver
(:class:`~repro.protocol.runner.ProtocolRunner`)
calls its lifecycle hooks exactly as they would a local aggregator, and
each hook becomes one request/reply exchange of length-prefixed frames
with the hosting process. The hosted endpoint's outbox comes back as OUT
frames and is returned to the driver unchanged — the round logic neither
knows nor cares that the aggregation happened in another process.

Failure semantics (the satellite contract):

* the hosting process dying mid-round (EOF, reset, refused write)
  raises :class:`~repro.errors.ProtocolError` naming the endpoint —
  never a hang;
* a hook that raises in the hosted process arrives as an ERR frame and
  is re-raised here as the *same* exception class (``MissingReportError``
  from an unrecoverable clique stays ``MissingReportError``);
* every exchange is bounded by a socket timeout.

Supervision: a proxy handed out by a
:class:`~repro.protocol.net.pool.ProcessAggregatorPool` with restart
budget left (``max_restarts``) does not surface a peer death (EOF,
reset, *or* a hung worker caught by the per-exchange deadline). It journals the current round's exchanges,
asks the pool for a fresh process (same spec, same endpoint id, new
PID), replays the journal into it and retries the failed exchange. With
a budget of 0 — the default — or with no pool behind it (a proxy
connected by hand), the first death raises as above.

Why replay is sound: the hosted aggregators are deterministic functions
of the exchange sequence, and the protocol's messages are idempotent
under identical resends (a clique aggregator accepts a bit-identical
report twice; the root accepts a duplicate partial). Replaying the
journal therefore reconstructs exactly the state the dead process held,
and the driver — which never learns about the crash — completes the
round **bit-identically** to an undisturbed run. Outboxes produced
during replay are discarded: the driver already delivered them.

Faults come from outside: a signal to a worker's pid kills or wedges
it, and the proxy only classifies what it sees (EOF or reset is a death,
an expired deadline a hang). Replay runs through the same ``_exchange``,
so a replacement killed mid-replay is a genuine crash loop.
"""

from __future__ import annotations

import logging
import socket
import time
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.errors import (
    ConfigurationError,
    MissingReportError,
    ProtocolError,
    RoundStateError,
    TransportError,
)
from repro.protocol import wire
from repro.protocol.client import RoundConfig
from repro.protocol.endpoint import Outbox, ProtocolEndpoint, RoundSummary
from repro.protocol.net import frames
from repro.protocol.net.spec import summary_from_spec

if TYPE_CHECKING:
    from repro.protocol.net.pool import ProcessAggregatorPool

logger = logging.getLogger(__name__)

BACKOFF_BASE_S = 0.05
BACKOFF_MAX_S = 2.0


def _backoff_s(restart_no: int) -> float:
    """Backoff before restart ``n`` of a round (1-based):
    ``BACKOFF_BASE_S * 2**(n-1)`` seconds, capped at ``BACKOFF_MAX_S``."""
    return min(BACKOFF_MAX_S, BACKOFF_BASE_S * 2 ** max(0, restart_no - 1))


#: Exception classes an ERR frame may name; anything else re-raises as
#: ProtocolError so a hosted bug cannot smuggle arbitrary types across.
_ERROR_TYPES = {
    cls.__name__: cls
    for cls in (
        ProtocolError,
        MissingReportError,
        RoundStateError,
        TransportError,
        ConfigurationError,
    )
}


#: Exchange kinds that rebuild round state and are therefore journaled
#: for replay. SUMMARY / RECONFIGURE / SHUTDOWN are not: a summary
#: changes no state, a replacement is spawned from the reconfigured
#: spec, and a shutdown must not be retried against a fresh process.
_REPLAYED_KINDS = frozenset(
    (frames.ROUND_START, frames.MSG, frames.IDLE, frames.ROUND_END)
)


class ProcessEndpointProxy(ProtocolEndpoint):
    """Drive a socket-hosted endpoint through the standard lifecycle.

    ``pool`` is the :class:`~repro.protocol.net.pool.ProcessAggregatorPool`
    that launched the hosting process and can respawn it; its
    ``max_restarts`` is the per-round budget this proxy spends. None (a
    proxy connected by hand) has nothing to respawn.
    """

    def __init__(
        self,
        endpoint_id: str,
        sock: socket.socket,
        config: Optional[RoundConfig] = None,
        timeout: float = 60.0,
        pid: Optional[int] = None,
        pool: "Optional[ProcessAggregatorPool]" = None,
    ) -> None:
        self.endpoint_id = endpoint_id
        self.config = config
        self.timeout = timeout
        self.pid = pid
        self._pool = pool
        #: The current round's (kind, body) exchange journal.
        self._journal: List[Tuple[int, bytes]] = []
        self._restarts_this_round = 0
        self._needs_respawn = False
        self._adopt_socket(sock)  # also marks the proxy open
        self._summary_spec: Optional[Dict[str, Any]] = None

    @classmethod
    def connect(
        cls,
        host: str,
        port: int,
        endpoint_id: str,
        config: Optional[RoundConfig] = None,
        timeout: float = 60.0,
        pid: Optional[int] = None,
        pool: "Optional[ProcessAggregatorPool]" = None,
    ) -> "ProcessEndpointProxy":
        sock = frames.connect_stream(host, port, timeout=timeout)
        return cls(endpoint_id, sock, config=config, timeout=timeout,
                   pid=pid, pool=pool)

    # ------------------------------------------------------------------
    # Frame exchange
    # ------------------------------------------------------------------
    def _adopt_socket(self, sock: socket.socket) -> None:
        """Take ownership of a (possibly replacement) connection.

        Called again after the pool respawns a crashed worker: the proxy
        keeps its identity and journal, only the plumbing changes.
        """
        self._sock = sock
        self._sock.settimeout(self.timeout)
        try:
            self._peer = "%s:%s" % self._sock.getpeername()[:2]
        except OSError:
            self._peer = "<unconnected>"
        self._closed = False

    def _died(self, why: str, dead: bool = True) -> ProtocolError:
        """A ProtocolError naming the endpoint; ``dead=True`` (actual
        peer-process death / hang, as opposed to local misuse like
        calling a closed proxy) tags it ``peer_dead`` so :meth:`_call`
        can tell a respawnable crash from an unretriable condition
        without string matching."""
        who = f"endpoint process {self.endpoint_id!r}"
        if self.pid is not None:
            who += f" (pid {self.pid})"
        exc = ProtocolError(f"{who} {why}")
        exc.peer_dead = dead
        return exc

    def _timeout_error(self, started: float) -> ProtocolError:
        elapsed = time.monotonic() - started
        exc = self._died(
            f"timed out mid-exchange after {elapsed:.2f}s "
            f"(timeout {self.timeout}s, peer {self._peer})"
        )
        exc.timed_out = True
        return exc

    def _call(self, kind: int, body: bytes = b"") -> Outbox:
        """The supervised exchange loop: exchange, and on peer death
        respawn + replay while the round's restart budget lasts. With a
        budget of 0 the first death propagates as raised.
        """
        pool = self._pool
        if pool is None or kind == frames.SHUTDOWN:
            # No pool: nothing to respawn or replay with. And SHUTDOWN
            # must never respawn a dead worker just to kill it again.
            return self._exchange(kind, body)
        budget = pool.max_restarts
        if kind == frames.ROUND_START:
            self._journal.clear()
            self._restarts_this_round = 0
        while True:
            try:
                if self._needs_respawn:
                    self._respawn_and_replay(pool)
                outbox = self._exchange(kind, body)
            except ProtocolError as exc:
                if not exc.peer_dead or budget == 0:
                    raise  # a live peer's error, or no budget to retry on
                self._note_death(budget, exc)  # raises once it is spent
                continue
            if budget and kind in _REPLAYED_KINDS:
                self._journal.append((kind, body))
            return outbox

    def _note_death(self, budget: int, exc: ProtocolError) -> None:
        """Account one worker death; schedule a respawn or give up."""
        if self._restarts_this_round >= budget:
            raise ProtocolError(
                f"endpoint process {self.endpoint_id!r} crash-looped: died "
                f"{self._restarts_this_round + 1} time(s) this round, "
                f"restart budget {budget} exhausted "
                f"({exc})"
            ) from exc
        self._restarts_this_round += 1
        self._needs_respawn = True
        logger.warning(
            "%s %s (%s); restart %d/%d",
            self.endpoint_id,
            "hung" if exc.timed_out else "died",
            exc,
            self._restarts_this_round,
            budget,
        )
        time.sleep(_backoff_s(self._restarts_this_round))

    def _respawn_and_replay(self, pool: "ProcessAggregatorPool") -> None:
        """Fresh process, same identity: adopt its socket, replay the
        round journal to rebuild the partial state the dead worker held.

        Raises the usual death errors if the *replacement* dies during
        replay — the loop in :meth:`_call` catches them, so a replacement
        killed again burns restart budget as a genuine crash loop.
        """
        sock, self.pid = pool.respawn(self.endpoint_id)
        self._adopt_socket(sock)
        for kind, body in self._journal:
            # Outboxes were already delivered by the driver before the
            # crash; replay only rebuilds endpoint state.
            self._exchange(kind, body)
        self._needs_respawn = False

    def _exchange(self, kind: int, body: bytes = b"") -> Outbox:
        """One request/reply exchange; returns the hosted outbox.

        The exchange as a whole is bounded by ``timeout``: the deadline
        is threaded into every frame read, so a peer trickling bytes
        cannot stretch one exchange past it (satellite contract: the
        error names the elapsed time and the peer address).
        """
        if self._closed:
            raise self._died("is closed", dead=False)
        started = time.monotonic()
        deadline = started + self.timeout
        try:
            self._sock.settimeout(self.timeout)
            frames.send_frame(self._sock, kind, body)
            outbox: Outbox = []
            while True:
                frame = frames.recv_frame(self._sock, deadline=deadline)
                assert frame is not None  # eof_ok=False raises instead
                reply_kind, reply_body = frame
                if reply_kind == frames.DONE:
                    return outbox
                if reply_kind == frames.OUT:
                    recipient, payload = frames.unpack_name(reply_body)
                    outbox.append((recipient, wire.decode(payload)))
                    continue
                if reply_kind == frames.SUMMARY_DATA:
                    self._summary_spec = frames.unpack_json(reply_body)
                    return outbox
                if reply_kind == frames.ERR:
                    self._raise_remote(frames.unpack_json(reply_body))
                raise ProtocolError(
                    f"unexpected reply frame kind {reply_kind} from "
                    f"{self.endpoint_id!r}"
                )
        except socket.timeout:
            raise self._timeout_error(started) from None
        except (ConnectionError, BrokenPipeError, OSError) as exc:
            raise self._died(f"died mid-round ({exc})") from None
        except ProtocolError as exc:
            # recv_frame marks the errors it raises where it observes
            # the loss: EOF / a close mid-frame (a killed process closes
            # its socket mid-exchange) and deadline expiry. Anything
            # unmarked — an error relayed by an ERR frame, a complete
            # reply that fails to parse — came from a live process and
            # must not be misreported as dead, whatever its message
            # contains.
            if exc.timed_out:
                raise self._timeout_error(started) from None
            if exc.peer_dead:
                raise self._died(f"died mid-round ({exc})") from None
            raise

    def _raise_remote(self, err: Dict[str, Any]) -> None:
        name = err.get("error", "ProtocolError")
        message = err.get("message", "remote endpoint error")
        exc_type = _ERROR_TYPES.get(name, ProtocolError)
        raise exc_type(f"[{self.endpoint_id}] {message}")

    # ------------------------------------------------------------------
    # ProtocolEndpoint lifecycle (what the driver calls)
    # ------------------------------------------------------------------
    def on_round_start(self, round_id: int) -> Outbox:
        return self._call(frames.ROUND_START, frames.pack_round(round_id))

    def on_message(self, sender: str, message: Any) -> Outbox:
        body = frames.pack_name(sender) + wire.encode(message)
        return self._call(frames.MSG, body)

    def on_idle(self, round_id: int) -> Outbox:
        return self._call(frames.IDLE, frames.pack_round(round_id))

    def on_round_end(self, round_id: int) -> None:
        self._call(frames.ROUND_END, frames.pack_round(round_id))

    # ------------------------------------------------------------------
    # Root-only surface
    # ------------------------------------------------------------------
    def round_summary(self) -> RoundSummary:
        self._summary_spec = None
        self._call(frames.SUMMARY)
        if self._summary_spec is None:
            raise self._died("returned no summary")
        return summary_from_spec(self._summary_spec, self.config)

    # ------------------------------------------------------------------
    # Pool plumbing
    # ------------------------------------------------------------------
    def reconfigure(self, spec: Dict[str, Any]) -> None:
        """Swap the hosted endpoint from a new spec, process kept alive."""
        self._call(frames.RECONFIGURE, frames.pack_json(spec))

    def shutdown(self) -> None:
        """Ask the hosting process to exit; tolerant of an already-dead peer."""
        if self._closed:
            return
        try:
            self._call(frames.SHUTDOWN)
        except ProtocolError:
            pass
        self.close()

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            try:
                self._sock.close()
            except OSError:
                pass
