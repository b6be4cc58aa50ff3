"""Remote clients of the HTTP service plane.

:class:`RemoteClient` is the paper's browser extension as seen from
another process: it enrolls over HTTP, rebuilds its *real*
:class:`~repro.protocol.client.ProtocolClient` — key material included —
from the service's deterministic enrollment spec, and then drives that
client through the round entirely via the API: report upload, mailbox
polling, adjustment replies, threshold receipt. The protocol objects
and the blinding math are exactly the in-process ones; only the
transport between client and operator changed, which is the point — the
equivalence tests assert the aggregate is bit-identical to an
in-memory-transport round.

The HTTP plumbing is :class:`ServiceHTTP`, a thin blocking JSON client
over :class:`http.client.HTTPConnection` (stdlib, no raw sockets — the
protolint PL001 rule holds for this package). Errors come back as
:class:`ServiceAPIError` carrying the HTTP status and the server's
structured error message.
"""

from __future__ import annotations

import base64
import http.client
import json
from typing import Any, Dict, List, Optional, Sequence

from repro.errors import ProtocolError, ReproError
from repro.protocol import wire
from repro.protocol.client import ProtocolClient
from repro.protocol.membership import MembershipManager
from repro.protocol.spec import config_from_spec

DEFAULT_TIMEOUT_S = 30.0


class ServiceAPIError(ReproError):
    """A non-2xx answer from the service, with its status and message."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(f"HTTP {status}: {message}")
        self.status = status
        self.message = message


class ServiceHTTP:
    """Blocking JSON-over-HTTP client for one service endpoint."""

    def __init__(self, host: str, port: int,
                 token: Optional[str] = None,
                 timeout_s: float = DEFAULT_TIMEOUT_S) -> None:
        self.host = host
        self.port = port
        self.token = token
        self.timeout_s = timeout_s

    def request(self, method: str, path: str,
                payload: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        body = None if payload is None else json.dumps(payload)
        headers = {"content-type": "application/json"}
        if self.token is not None:
            headers["authorization"] = f"Bearer {self.token}"
        conn = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout_s)
        try:
            conn.request(method, path, body=body, headers=headers)
            response = conn.getresponse()
            raw = response.read()
        finally:
            conn.close()
        try:
            parsed = json.loads(raw) if raw else {}
        except (ValueError, RecursionError):
            raise ServiceAPIError(
                response.status,
                f"unparseable response body {raw[:80]!r}") from None
        if response.status >= 400:
            detail = parsed.get("error") if isinstance(parsed, dict) \
                else None
            raise ServiceAPIError(response.status,
                                  detail or f"request to {path} failed")
        if not isinstance(parsed, dict):
            raise ServiceAPIError(response.status,
                                  f"expected a JSON object from {path}")
        return parsed

    def get(self, path: str) -> Dict[str, Any]:
        return self.request("GET", path)

    def post(self, path: str,
             payload: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
        return self.request("POST", path, payload or {})


class OperatorClient:
    """The operator's side of the API: epochs, rounds, snapshots,
    shutdown."""

    def __init__(self, host: str, port: int, token: str,
                 timeout_s: float = DEFAULT_TIMEOUT_S) -> None:
        self.http = ServiceHTTP(host, port, token=token,
                                timeout_s=timeout_s)

    def status(self) -> Dict[str, Any]:
        return self.http.get("/v1/status")

    def advance_epoch(self, leaves: Sequence[str] = ()) -> Dict[str, Any]:
        return self.http.post("/v1/epoch", {"leaves": list(leaves)})

    def open_round(self) -> int:
        return int(self.http.post("/v1/rounds")["round_id"])

    def advance(self, round_id: int) -> Dict[str, Any]:
        return self.http.post(f"/v1/rounds/{round_id}/advance")

    def finalize(self, round_id: int) -> Dict[str, Any]:
        return self.http.post(f"/v1/rounds/{round_id}/finalize")

    def summary(self, round_id: int) -> Dict[str, Any]:
        return self.http.get(f"/v1/rounds/{round_id}/summary")

    def snapshot(self, week: int) -> Dict[str, Any]:
        return self.http.get(f"/v1/snapshots/{week}")

    def shutdown(self) -> Dict[str, Any]:
        return self.http.post("/v1/shutdown")


class RemoteClient:
    """One user's extension, driven against the service from outside.

    Lifecycle::

        remote = RemoteClient(host, port, "u01")
        remote.enroll()              # stages the join, stores the token
        ... operator advances the epoch ...
        remote.sync()                # rebuilds the ProtocolClient locally
        remote.observe("http://ad")  # browsing happens
        remote.begin_round(rid)      # uploads the blinded report
        remote.pump(rid)             # polls mail, answers notices
    """

    def __init__(self, host: str, port: int, user_id: str,
                 timeout_s: float = DEFAULT_TIMEOUT_S) -> None:
        self.user_id = user_id
        self.http = ServiceHTTP(host, port, timeout_s=timeout_s)
        self.token: Optional[str] = None
        self.client: Optional[ProtocolClient] = None
        self._observations: List[str] = []

    def enroll(self) -> str:
        """Stage the join; stores and returns the bearer token."""
        answer = self.http.post("/v1/enroll", {"user_id": self.user_id})
        self.token = str(answer["token"])
        self.http.token = self.token
        return self.token

    # ------------------------------------------------------------------
    # Deterministic local rebuild
    # ------------------------------------------------------------------
    def sync(self) -> ProtocolClient:
        """Rebuild this user's :class:`ProtocolClient` from the service's
        enrollment spec: replay epoch 0 and every transition, then pick
        out our own client. Observations recorded before the sync are
        replayed onto the rebuilt client."""
        spec = self.http.get("/v1/enrollment")
        config = config_from_spec(spec["config"])
        manager = MembershipManager.from_history(
            list(spec["epoch0_roster"]), config,
            transitions=[(list(t["joins"]), list(t["leaves"]),
                          int(t["first_round"]))
                         for t in spec["transitions"]],
            seed=int(spec["seed"]), use_oprf=bool(spec["use_oprf"]),
            num_cliques=int(spec["num_cliques"]))
        client = manager.client_of(self.user_id)
        # The replay hosts the whole panel, but no peer of ours blinds
        # in this process: a shared provider would fold our pads into
        # pending sums nobody builds. A device squeezes its own pads.
        client.blinding.pad_streams = None
        expected = spec["user"]
        if client.clique_id != int(expected["clique_id"]):
            raise ProtocolError(
                f"local rebuild put {self.user_id!r} in clique "
                f"{client.clique_id}, the service says "
                f"{expected['clique_id']} — replay diverged")
        if client.uplink != str(expected["uplink"]):
            raise ProtocolError(
                f"local rebuild points {self.user_id!r} at "
                f"{client.uplink!r}, the service says "
                f"{expected['uplink']!r} — replay diverged")
        for url in self._observations:
            client.observe_ad(url)
        self.client = client
        return client

    def _require_client(self) -> ProtocolClient:
        if self.client is None:
            raise ProtocolError(
                f"{self.user_id!r} has no local protocol client; call "
                f"sync() after the epoch advance")
        return self.client

    # ------------------------------------------------------------------
    # Browsing and the round
    # ------------------------------------------------------------------
    def observe(self, url: str) -> None:
        """Record an ad impression (before or after :meth:`sync`)."""
        self._observations.append(url)
        if self.client is not None:
            self.client.observe_ad(url)

    def _post_outbox(self, round_id: int,
                     outbox: Sequence[Any]) -> int:
        for _recipient, message in outbox:
            payload = base64.b64encode(wire.encode(message)).decode("ascii")
            self.http.post(f"/v1/rounds/{round_id}/messages",
                           {"payload": payload})
        return len(outbox)

    def begin_round(self, round_id: int) -> int:
        """Open the round locally: uploads the blinded report."""
        client = self._require_client()
        return self._post_outbox(round_id, client.on_round_start(round_id))

    def pump(self, round_id: int) -> int:
        """Drain our mailbox, react, post the replies; returns how many
        messages were processed (0 = nothing pending)."""
        client = self._require_client()
        answer = self.http.get(f"/v1/rounds/{round_id}/mailbox")
        messages = answer["messages"]
        for entry in messages:
            message = wire.decode(base64.b64decode(entry["payload"]))
            replies = client.on_message(str(entry["from"]), message)
            self._post_outbox(round_id, replies)
        return len(messages)

    @property
    def last_threshold(self) -> Optional[float]:
        return None if self.client is None else self.client.last_threshold


def run_remote_round(operator: OperatorClient,
                     participants: Sequence[RemoteClient],
                     max_cycles: int = 10_000) -> Dict[str, Any]:
    """Drive one full round through the API: open, report, poll until
    quiescent (advancing the server's idle phase when polling stalls),
    finalize. Returns the finalized round-result spec.

    The loop mirrors the in-process driver's quiescence rule: pump every
    participant; if nothing was delivered, fire the server's idle phase;
    if that emitted nothing either, the round is done. Messages parked
    in non-participating users' mailboxes (this round's missing users)
    do not hold the round open — finalize accounts them as undelivered,
    matching the deployment reality that an offline extension picks its
    broadcast up whenever it next polls.
    """
    round_id = operator.open_round()
    for participant in participants:
        participant.begin_round(round_id)
    for _ in range(max_cycles):
        delivered = sum(p.pump(round_id) for p in participants)
        if delivered:
            continue
        advanced = operator.advance(round_id)
        if advanced["emitted"]:
            continue
        return operator.finalize(round_id)
    raise ProtocolError(f"round {round_id} did not quiesce within "
                        f"{max_cycles} cycles")
