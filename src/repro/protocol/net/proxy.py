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
"""

from __future__ import annotations

import socket
import time
from typing import Any, Dict, Optional

from repro.protocol.endpoint import ThresholdRuleFn

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
from repro.protocol.net.spec import resolve_rule, rule_spec, summary_from_spec

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


class ProcessEndpointProxy(ProtocolEndpoint):
    """Drive a socket-hosted endpoint through the standard lifecycle."""

    def __init__(
        self,
        endpoint_id: str,
        sock: socket.socket,
        config: Optional[RoundConfig] = None,
        max_frame: int = frames.DEFAULT_MAX_FRAME,
        timeout: float = 60.0,
        pid: Optional[int] = None,
        rule: Optional[str] = None,
    ) -> None:
        self.endpoint_id = endpoint_id
        self.config = config
        self.max_frame = max_frame
        self.timeout = timeout
        self.pid = pid
        self._adopt_socket(sock)
        # The local mirror of the hosted root's threshold rule MUST
        # start in sync with what the process was spawned with: epoch
        # advances read it back (session.root.threshold_rule) to carry
        # the rule into the re-wire.
        self._rule: ThresholdRuleFn = resolve_rule(rule or "mean")
        self._summary_spec: Optional[Dict[str, Any]] = None
        self._closed = False

    @classmethod
    def connect(
        cls,
        host: str,
        port: int,
        endpoint_id: str,
        config: Optional[RoundConfig] = None,
        max_frame: int = frames.DEFAULT_MAX_FRAME,
        timeout: float = 60.0,
        pid: Optional[int] = None,
        rule: Optional[str] = None,
    ) -> "ProcessEndpointProxy":
        sock = frames.connect_stream(host, port, timeout=timeout)
        return cls(
            endpoint_id,
            sock,
            config=config,
            max_frame=max_frame,
            timeout=timeout,
            pid=pid,
            rule=rule,
        )

    # ------------------------------------------------------------------
    # Frame exchange
    # ------------------------------------------------------------------
    def _adopt_socket(self, sock: socket.socket) -> None:
        """Take ownership of a (possibly replacement) connection.

        The supervisor calls this after respawning a crashed worker: the
        proxy keeps its identity and journal, only the plumbing changes.
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
        calling a closed proxy) tags it ``peer_dead`` so the supervisor
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
                frame = frames.recv_frame(
                    self._sock, self.max_frame, deadline=deadline
                )
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
            # recv_frame raises ProtocolError on EOF/truncation: a killed
            # process closes its socket mid-exchange. A *remote* error
            # relayed by an ERR frame (marked below) is not a crash —
            # the process is alive and must not be misreported as dead,
            # whatever its message contains.
            if getattr(exc, "remote", False):
                raise
            if "timed out" in str(exc):
                raise self._timeout_error(started) from None
            if "closed" in str(exc) or "truncated" in str(exc):
                raise self._died(f"died mid-round ({exc})") from None
            raise

    def _raise_remote(self, err: Dict[str, Any]) -> None:
        name = err.get("error", "ProtocolError")
        message = err.get("message", "remote endpoint error")
        exc_type = _ERROR_TYPES.get(name, ProtocolError)
        exc = exc_type(f"[{self.endpoint_id}] {message}")
        exc.remote = True
        raise exc

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

    @property
    def threshold_rule(self) -> ThresholdRuleFn:
        """Local mirror of the hosted root's threshold rule; assigning
        pushes the (named) rule to the process."""
        return self._rule

    @threshold_rule.setter
    def threshold_rule(self, rule: ThresholdRuleFn) -> None:
        spec = rule_spec(rule)
        self._call(frames.SET_RULE, frames.pack_json({"rule": spec}))
        self._rule = resolve_rule(spec)

    # ------------------------------------------------------------------
    # Pool plumbing
    # ------------------------------------------------------------------
    def reconfigure(self, spec: Dict[str, Any]) -> None:
        """Swap the hosted endpoint from a new spec, process kept alive."""
        self._call(frames.RECONFIGURE, frames.pack_json(spec))
        if "threshold_rule" in spec:
            self._rule = resolve_rule(spec["threshold_rule"])

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
