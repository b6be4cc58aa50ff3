"""The HTTP route layer and the composed ``repro serve`` service.

:class:`ServiceApp` maps the REST surface onto
:class:`~repro.service.state.ServiceState`:

====== ================================== ========= =======================
Method Path                               Auth      Meaning
====== ================================== ========= =======================
GET    /v1/healthz                        none      liveness probe
POST   /v1/enroll                         none      stage a join, mint token
POST   /v1/epoch                          operator  freeze joins/leaves
GET    /v1/status                         any       service status
GET    /v1/enrollment                     client    own rebuild spec
POST   /v1/rounds                         operator  open the next round
GET    /v1/rounds/current                 any       the open round id
POST   /v1/rounds/{rid}/messages          client    submit report/adjustment
GET    /v1/rounds/{rid}/mailbox           client    drain own mailbox
POST   /v1/rounds/{rid}/advance           operator  fire the idle phase
POST   /v1/rounds/{rid}/finalize          operator  close the round
GET    /v1/rounds/{rid}/summary           any       finalized RoundResult
GET    /v1/snapshots/{week}               any       WeeklySnapshot spec
GET    /v1/history/weeks                  any       recorded weeks
GET    /v1/history/rounds                 any       persisted rounds
GET    /v1/history/flagged                any       flagged campaigns view
GET    /v1/history/trend                  any       one campaign's trajectory
POST   /v1/shutdown                       operator  request clean shutdown
====== ================================== ========= =======================

Ordering rules the auth tests pin down: authentication runs before the
body is even parsed, authorization (role) before any state is read, and
every protocol mutation happens under one ops lock — a rejected request
can not have mutated protocol state, and two racing requests serialize.

Wire payloads (reports, adjustments, mailbox messages) travel as base64
of the byte-exact :mod:`repro.protocol.wire` encoding inside the JSON
envelope; the protocol bytes themselves are accounted where they always
were, in the transport's ``_carry``/``_ship`` seam.
"""

from __future__ import annotations

import base64
import binascii
import threading
from typing import Any, Optional, Tuple

from repro.errors import ConfigurationError, ProtocolError, TransportError
from repro.protocol.client import RoundConfig
from repro.service.auth import ROLE_CLIENT, ROLE_OPERATOR, Principal, TokenBook
from repro.service.http import HttpError, HttpServer, Request, Response
from repro.service.state import ServiceState

OPERATOR_PRINCIPAL = "operator"


class ServiceApp:
    """Routes requests; owns nothing but the dispatch table."""

    def __init__(self, state: ServiceState, tokens: TokenBook,
                 shutdown: Optional[threading.Event] = None) -> None:
        self.state = state
        self.tokens = tokens
        self.shutdown = shutdown or threading.Event()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def __call__(self, request: Request) -> Response:
        try:
            return self._route(request)
        except HttpError:
            raise
        except (ConfigurationError, ValueError) as exc:
            raise HttpError(422, str(exc)) from None
        except ProtocolError as exc:
            raise HttpError(409, str(exc)) from None
        except TransportError as exc:
            raise HttpError(409, str(exc)) from None

    def _route(self, request: Request) -> Response:
        parts = [p for p in request.path.split("/") if p]
        if not parts or parts[0] != "v1":
            raise HttpError(404, f"no such route {request.path!r}")
        parts = parts[1:]
        method = request.method
        if parts == ["healthz"]:
            return Response.json({"ok": True})
        if parts == ["enroll"] and method == "POST":
            return self._enroll(request)
        # Everything below authenticates first — before the body is
        # parsed, before any state is touched.
        principal = self.tokens.authenticate(
            request.headers.get("authorization"))
        if parts == ["epoch"] and method == "POST":
            return self._epoch(request, principal)
        if parts == ["status"] and method == "GET":
            with self.state.lock:
                return Response.json(self.state.status())
        if parts == ["enrollment"] and method == "GET":
            return self._enrollment(principal)
        if parts == ["rounds"] and method == "POST":
            return self._open_round(principal)
        if parts == ["rounds", "current"] and method == "GET":
            with self.state.lock:
                return Response.json({"round_id": self.state.open_round})
        if len(parts) == 3 and parts[0] == "rounds":
            return self._round_route(request, principal,
                                     self._int(parts[1], "round id"),
                                     parts[2])
        if len(parts) == 2 and parts[0] == "snapshots" and method == "GET":
            week = self._int(parts[1], "week")
            with self.state.lock:
                return Response.json(self.state.snapshot_spec(week))
        if parts[:1] == ["history"] and method == "GET":
            return self._history_route(request, tuple(parts[1:]))
        if parts == ["shutdown"] and method == "POST":
            self.tokens.require(principal, ROLE_OPERATOR)
            self.shutdown.set()
            return Response.json({"shutting_down": True})
        raise HttpError(404, f"no such route {method} {request.path!r}")

    @staticmethod
    def _int(text: str, what: str) -> int:
        """A round id, week or epoch: 400 unless ``0 <= n < 2**63``,
        the range the store's SQLite INTEGER columns hold."""
        try:
            value = int(text)
        except ValueError:
            raise HttpError(400, f"bad {what} {text!r}") from None
        if not 0 <= value < 2 ** 63:
            raise HttpError(400, f"{what} {value} is out of range")
        return value

    # ------------------------------------------------------------------
    # Enrollment and epochs
    # ------------------------------------------------------------------
    def _enroll(self, request: Request) -> Response:
        payload = request.json()
        user_id = payload.get("user_id")
        if not isinstance(user_id, str) or not user_id:
            raise HttpError(400, "enroll needs a non-empty 'user_id' string")
        if user_id == OPERATOR_PRINCIPAL:
            raise HttpError(409, f"{user_id!r} is reserved for the operator")
        with self.state.lock:
            if self.tokens.is_active(user_id):
                raise HttpError(
                    409, f"{user_id!r} already holds a live token; a second "
                         f"enrollment would hijack the first")
            self.state.enroll(user_id)
            token = self.tokens.mint(user_id, ROLE_CLIENT)
        return Response.json({"user_id": user_id, "token": token,
                              "pending": True}, status=201)

    def _epoch(self, request: Request, principal: Principal) -> Response:
        self.tokens.require(principal, ROLE_OPERATOR)
        payload = request.json()
        leaves = payload.get("leaves", [])
        if not isinstance(leaves, list) \
                or not all(isinstance(u, str) for u in leaves):
            raise HttpError(400, "'leaves' must be a list of user ids")
        with self.state.lock:
            result = self.state.advance_epoch(leaves=leaves)
            # A leave revokes: the departed token must not authenticate
            # in the next epoch.
            for user_id in result["left"]:
                self.tokens.revoke(user_id)
        return Response.json(result)

    def _enrollment(self, principal: Principal) -> Response:
        self.tokens.require(principal, ROLE_CLIENT)
        with self.state.lock:
            return Response.json(self.state.enrollment_spec(principal.name))

    # ------------------------------------------------------------------
    # Rounds
    # ------------------------------------------------------------------
    def _open_round(self, principal: Principal) -> Response:
        self.tokens.require(principal, ROLE_OPERATOR)
        with self.state.lock:
            round_id = self.state.start_round()
        return Response.json({"round_id": round_id}, status=201)

    def _round_route(self, request: Request, principal: Principal,
                     round_id: int, action: str) -> Response:
        method = request.method
        if action == "messages" and method == "POST":
            self.tokens.require(principal, ROLE_CLIENT)
            payload = request.json()
            encoded = payload.get("payload")
            if not isinstance(encoded, str):
                raise HttpError(
                    400, "'payload' must be the base64 wire encoding")
            try:
                raw = base64.b64decode(encoded, validate=True)
            except (binascii.Error, ValueError):
                raise HttpError(400, "'payload' is not valid base64") \
                    from None
            with self.state.lock:
                if self.state.open_round != round_id:
                    raise HttpError(
                        409, f"round {round_id} is not the open round "
                             f"({self.state.open_round})")
                return Response.json(
                    self.state.submit(principal.name, raw))
        if action == "mailbox" and method == "GET":
            self.tokens.require(principal, ROLE_CLIENT)
            with self.state.lock:
                messages = self.state.drain_mailbox(principal.name, round_id)
            return Response.json({"messages": [
                {"from": m["from"],
                 "payload": base64.b64encode(m["payload"]).decode("ascii")}
                for m in messages]})
        if action == "advance" and method == "POST":
            self.tokens.require(principal, ROLE_OPERATOR)
            with self.state.lock:
                return Response.json(self.state.advance(round_id))
        if action == "finalize" and method == "POST":
            self.tokens.require(principal, ROLE_OPERATOR)
            with self.state.lock:
                self.state.finalize(round_id)
                return Response.json(self.state.summary_spec(round_id))
        if action == "summary" and method == "GET":
            with self.state.lock:
                return Response.json(self.state.summary_spec(round_id))
        raise HttpError(404, f"no such round route {method} {action!r}")

    # ------------------------------------------------------------------
    # Longitudinal history (store-backed, any authenticated principal)
    # ------------------------------------------------------------------
    def _history_route(self, request: Request,
                       rest: Tuple[str, ...]) -> Response:
        def opt_int(name: str) -> Optional[int]:
            raw = request.query.get(name)
            return None if raw is None else self._int(raw, name)

        if rest == ("weeks",):
            with self.state.lock:
                return Response.json({"weeks": self.state.history_weeks()})
        if rest == ("rounds",):
            epoch, week = opt_int("epoch"), opt_int("week")
            with self.state.lock:
                return Response.json(
                    {"rounds": self.state.history_rounds(epoch=epoch,
                                                         week=week)})
        if rest == ("flagged",):
            since_week = opt_int("since_week") or 0
            with self.state.lock:
                return Response.json(
                    {"since_week": since_week,
                     "campaigns": self.state.history_flagged(since_week)})
        if rest == ("trend",):
            ad = request.query.get("ad")
            if not ad:
                raise HttpError(
                    400, "trend needs an 'ad' query parameter (the "
                         "campaign's ad identity)")
            with self.state.lock:
                return Response.json(
                    {"ad_identity": ad,
                     "trend": self.state.history_trend(ad)})
        raise HttpError(
            404, f"no such history route GET /{'/'.join(rest)}")


class ReproService:
    """The whole service plane, composed: state + auth + HTTP.

    What ``repro serve`` boots, and what in-process tests drive via
    :meth:`start`/:meth:`close` (or as a context manager). The operator
    token is settled before the store opens, so a refused
    ``operator_token`` leaves nothing to close.
    """

    def __init__(self, config: RoundConfig, seed: int = 0,
                 num_cliques: int = 1, use_oprf: bool = False,
                 threshold_rule: str = "mean", transport: str = "wire",
                 host: str = "127.0.0.1", port: int = 0,
                 operator_token: Optional[str] = None,
                 store: Optional[str] = None,
                 session_name: str = "service",
                 ) -> None:
        self.tokens = TokenBook()
        if operator_token is None:
            self.operator_token = self.tokens.mint(
                OPERATOR_PRINCIPAL, ROLE_OPERATOR)
        else:
            self.operator_token = self.tokens.adopt(
                OPERATOR_PRINCIPAL, ROLE_OPERATOR, operator_token)
        self.state = ServiceState(
            config, seed=seed, num_cliques=num_cliques, use_oprf=use_oprf,
            threshold_rule=threshold_rule, transport=transport,
            store=store, session_name=session_name)
        self.shutdown_requested = threading.Event()
        self.app = ServiceApp(self.state, self.tokens,
                              shutdown=self.shutdown_requested)
        self.http = HttpServer(self.app, host=host, port=port)
        self._started = False

    def start(self) -> Tuple[str, int]:
        """Bind and serve; returns the bound ``(host, port)``."""
        address = self.http.start()
        self._started = True
        return address

    @property
    def address(self) -> Optional[Tuple[str, int]]:
        return self.http.address

    def wait_for_shutdown(self,
                          timeout: Optional[float] = None) -> bool:
        """Block until POST /v1/shutdown (or timeout); True if requested."""
        return self.shutdown_requested.wait(timeout)

    def close(self) -> None:
        if self._started:
            self.http.stop()
            self._started = False
        self.state.close()

    def __enter__(self) -> "ReproService":
        self.start()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
