"""The operator behind the HTTP plane: a ``ProtocolSession`` stepped by
HTTP requests.

The routes are a thin skin; the operator is one
:class:`~repro.api.ProtocolSession` over a
:class:`~repro.protocol.runner.RemotePopulation` — members whose
clients run in other processes. The session owns what it owns for an
in-process deployment: enrollment and epochs, the aggregation tree, the
round watermark and recording into the store, which is the one record
of a finalized round. This module keeps what HTTP adds: validating what
a remote client sends, the service-plane refusals, undelivered-mail
telemetry and the weekly stats row.

**Every protocol byte still crosses the accounting seam.** The service
refuses ``transport="memory"``: a report POSTed over HTTP is decoded
from its wire bytes, then *re-sent* through ``transport.send(user,
clique-aggregator, message)`` — the one ``_carry``/``_ship`` path every
transport uses — so an HTTP round's byte counts equal an in-process
round's. The service takes no fault plan: WAN faults ride a
:class:`~repro.protocol.net.ChaosSocketTransport` of their own, which
the HTTP plane does not build.

**Remote clients rebuild themselves from the enrollment spec**, since
enrollment and epoch advances are deterministic (see
:meth:`ServiceState.enrollment_spec` and
:class:`repro.service.client.RemoteClient`). The operator therefore
knows the shared seed and could derive client secrets — a fidelity
limit documented in ``docs/service.md``.

The round is the in-process driver's quiescence loop, split at the HTTP
boundary: ``start_round`` opens it, ``submit`` feeds one client message
through the transport and delivers what is pending, ``advance`` fires
the idle phase (the deployment's phase timeout: "whoever has not
reported is missing"), and ``finalize`` closes it once the root has a
summary. Client-bound mail waits in each member's mailbox until polled.
A report from a user the recovery notice named missing is refused (409)
before it is stored.
"""

from __future__ import annotations

import threading
from dataclasses import asdict
from typing import (
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.api import ProtocolSession, SessionConfig, resolve_transport
from repro.errors import (ConfigurationError, MissingReportError,
                          ProtocolError, StoreError)
from repro.protocol import wire
from repro.protocol.aggregator import clique_endpoint_id
from repro.protocol.client import RoundConfig
from repro.protocol.membership import Epoch, MembershipManager
from repro.protocol.messages import BlindedReport, BlindingAdjustment
from repro.protocol.spec import (
    WeeklySnapshot,
    config_to_spec,
    resolve_rule,
    result_to_spec,
    snapshot_to_spec,
)
from repro.protocol.runner import RemotePopulation, RoundResult
from repro.store.history import HistoryStore, WeeklyStatsRecord

#: Transports the service plane accepts. "memory" is refused: its
#: object mailboxes never produce wire bytes, so HTTP-vs-socket byte
#: parity — the property this subsystem exists to keep assertable —
#: would be vacuous.
SERVICE_TRANSPORTS = ("wire", "socket")

#: Message types a client may submit over HTTP. Everything else an
#: endpoint emits is server-to-client traffic.
_CLIENT_MESSAGE_TYPES = (BlindedReport, BlindingAdjustment)


class ServiceState:
    """The operator: one :class:`~repro.api.ProtocolSession`, created at
    the first epoch. Not thread-safe by itself — the app layer
    serializes every call under one ops lock (:attr:`lock`).

    A store file belongs to one service life. Enrollment is a pure
    function of ``(roster, config, seed)`` and a new life starts again
    at round 0, so a second life recording under a session name the
    store already holds would blind different weeks' reports with the
    same ``(pair, round)`` one-time pads; construction refuses it with
    :class:`~repro.errors.StoreError`. (Resuming a life needs the
    clients' tokens persisted as well — not implemented.)
    """

    def __init__(self, config: RoundConfig, seed: int = 0,
                 num_cliques: int = 1, use_oprf: bool = False,
                 threshold_rule: str = "mean",
                 transport: str = "wire",
                 store: "Union[HistoryStore, str, None]" = None,
                 session_name: str = "service") -> None:
        if transport not in SERVICE_TRANSPORTS:
            raise ConfigurationError(
                f"the service plane needs a byte-exact transport so HTTP "
                f"rounds stay byte-comparable to socket rounds; expected "
                f"one of {SERVICE_TRANSPORTS}, got {transport!r}")
        rule = resolve_rule(threshold_rule)  # validate the name early
        self.config = config
        self.seed = seed
        self.num_cliques = num_cliques
        self.use_oprf = use_oprf
        self.transport_name = transport
        #: Durable history behind the ``/v1/history/*`` routes; the
        #: default in-memory store answers them but dies with the process.
        self._owns_store = store is None or isinstance(store, str)
        if store is None:
            store = HistoryStore()
        elif isinstance(store, str):
            store = HistoryStore(store)
        if session_name in store.session_names():
            last = store.last_round_id(session_name)
            progress = ("no round finalized" if last is None
                        else f"last round {last}")
            message = (
                f"store {store.path!r} already records session "
                f"{session_name!r} ({progress}); a new service life would "
                f"re-enroll with the same seed and reuse its one-time pads "
                f"from round 0 — point --store at a new file")
            if self._owns_store:
                store.close()
            raise StoreError(message)
        self.store = store
        self.session_name = session_name
        self.lock = threading.RLock()
        instance, self._owns_transport = resolve_transport(transport)
        assert instance is not None
        self.transport = instance
        self._settings = SessionConfig(transport=instance,
                                       threshold_rule=rule)
        self.session: Optional[ProtocolSession] = None
        self._pending_joins: List[str] = []
        self._open_round: Optional[int] = None
        self._reports_seen: Dict[str, int] = {}
        #: Telemetry: messages left in a mailbox nobody drained at
        #: finalize time (broadcasts addressed to users that never
        #: polled — e.g. the round's missing users).
        self.undelivered: List[Tuple[int, str, str, str]] = []
        self._closed = False

    def _session(self) -> ProtocolSession:
        if self.session is None:
            raise ProtocolError(
                "no epoch exists yet; advance the epoch first")
        return self.session

    def _epoch(self) -> Epoch:
        epoch = self._session().epoch
        assert epoch is not None  # the session has a membership
        return epoch

    def _uplink(self, user_id: str) -> str:
        """``user_id``'s clique aggregator; refuses non-members."""
        clique_id = self._epoch().clique_of.get(user_id)
        if clique_id is None:
            raise ProtocolError(
                f"{user_id!r} is not a member of the current epoch")
        return clique_endpoint_id(clique_id)

    # ------------------------------------------------------------------
    # Enrollment and epochs
    # ------------------------------------------------------------------
    @property
    def roster(self) -> List[str]:
        """The active epoch's roster (empty before the first epoch)."""
        return list(self._epoch().user_ids) if self.session else []

    @property
    def pending_joins(self) -> List[str]:
        return list(self._pending_joins)

    def enroll(self, user_id: str) -> None:
        """Stage ``user_id`` to join at the next epoch advance."""
        if not user_id or len(user_id) > 256:
            raise ConfigurationError(
                f"user_id must be a non-empty string of at most 256 "
                f"characters, got {user_id!r}")
        if user_id in self._pending_joins or user_id in self.roster:
            raise ConfigurationError(
                f"{user_id!r} is already enrolled or pending")
        self._pending_joins.append(user_id)

    def advance_epoch(self, leaves: Sequence[str] = ()) -> Dict[str, Any]:
        """Freeze pending joins (and apply ``leaves``) into a new epoch.

        The first call enrolls epoch 0 and creates the session, which
        records every epoch — the lineage :meth:`enrollment_spec`
        replays. Refused while a round is open.
        """
        if self._open_round is not None:
            raise ProtocolError(
                f"round {self._open_round} is open; finalize it before "
                f"advancing the epoch")
        joins = sorted(self._pending_joins)
        if self.session is None:
            if leaves:
                raise ConfigurationError(
                    "no epoch exists yet; there is nobody to remove")
            if not joins:
                raise ConfigurationError(
                    "enroll at least one client before the first epoch")
            members = RemotePopulation(MembershipManager.enroll(
                joins, self.config, seed=self.seed, use_oprf=self.use_oprf,
                num_cliques=self.num_cliques))
            self.session = ProtocolSession.create(
                members, settings=self._settings, store=self.store,
                store_name=self.session_name)
            left: List[str] = []
        else:
            unknown = sorted(set(leaves) - set(self.roster))
            if unknown:
                raise ConfigurationError(
                    f"cannot remove users not in the epoch: {unknown[:5]}")
            left = list(self.session.advance_epoch(joins=joins,
                                                   leaves=leaves).left)
        self._pending_joins.clear()
        epoch = self._epoch()
        return {
            "epoch": epoch.epoch_id,
            "size": epoch.size,
            "num_cliques": epoch.num_cliques,
            "min_clique_size": epoch.min_clique_size,
            "first_round": epoch.first_round,
            "left": left,
        }

    def enrollment_spec(self, user_id: str) -> Dict[str, Any]:
        """Everything a remote process needs to rebuild ``user_id``'s
        :class:`~repro.protocol.client.ProtocolClient` deterministically:
        the enrollment identity and epoch lineage the store holds (what
        :meth:`repro.api.ProtocolSession.resume` replays too)."""
        uplink = self._uplink(user_id)
        identity = self.store.session_record(self.session_name)
        assert identity is not None  # recorded at the first epoch
        first, *later = self.store.epoch_records(self.session_name)
        return {
            "config": config_to_spec(identity.config),
            "seed": identity.seed,
            "use_oprf": identity.use_oprf,
            "num_cliques": identity.num_cliques,
            "epoch0_roster": sorted(first.roster),
            "transitions": [{"joins": list(e.joins), "leaves": list(e.leaves),
                             "first_round": e.first_round} for e in later],
            "user": {
                "user_id": user_id,
                "clique_id": self._epoch().clique_of[user_id],
                "uplink": uplink,
            },
        }

    # ------------------------------------------------------------------
    # The round lifecycle over HTTP
    # ------------------------------------------------------------------
    @property
    def open_round(self) -> Optional[int]:
        return self._open_round

    def start_round(self) -> int:
        """Open the session's next round on the server endpoints."""
        session = self._session()
        if self._open_round is not None:
            raise ProtocolError(
                f"round {self._open_round} is already open")
        round_id = session.next_round
        session.open_round(round_id)
        self._open_round = round_id
        self._reports_seen = {}
        session.deliver_pending()
        return round_id

    def _require_round(self, round_id: int) -> None:
        if self._open_round is None:
            raise ProtocolError("no round is open")
        if round_id != self._open_round:
            raise ProtocolError(
                f"round {round_id} is not the open round "
                f"({self._open_round})")

    def submit(self, user_id: str, payload: bytes) -> Dict[str, Any]:
        """One client message, from wire bytes, through the seam.

        Validates that the decoded message is a client-side message of
        the open round sent by the authenticated ``user_id``, sends it
        through ``transport.send`` — the accounting path — to the user's
        clique aggregator and delivers what is pending. A message the
        aggregator refuses (a late report) raises with its bytes billed.
        """
        if self._open_round is None:
            raise ProtocolError("no round is open")
        uplink = self._uplink(user_id)
        message = wire.decode(payload)
        if not isinstance(message, _CLIENT_MESSAGE_TYPES):
            raise ProtocolError(
                f"clients submit BlindedReport or BlindingAdjustment "
                f"messages only, got {type(message).__name__}")
        if message.user_id != user_id:
            raise ProtocolError(
                f"message user_id {message.user_id!r} does not match the "
                f"authenticated principal {user_id!r}")
        if message.round_id != self._open_round:
            raise ProtocolError(
                f"message is for round {message.round_id}, but round "
                f"{self._open_round} is open")
        self.transport.send(user_id, uplink, message)
        self._session().deliver_pending()
        if isinstance(message, BlindedReport):
            self._reports_seen[user_id] = message.round_id
        return {"round_id": self._open_round, "accepted": True}

    def drain_mailbox(self, user_id: str,
                      round_id: int) -> List[Dict[str, Any]]:
        """Pop ``user_id``'s pending server-to-client messages as wire
        bytes (the HTTP layer base64-encodes them)."""
        self._require_round(round_id)
        self._uplink(user_id)  # refuses non-members
        return [{"from": sender, "payload": wire.encode(message)}
                for sender, message in self.transport.drain(user_id)]

    def advance(self, round_id: int) -> Dict[str, Any]:
        """Fire the idle phase — the deployment's phase timeout, where a
        clique aggregator declares non-reporters missing and starts the
        recovery round, and later releases its partial aggregate."""
        self._require_round(round_id)
        self._session().deliver_pending()
        emitted = self._session().idle_phase(round_id)
        self._session().deliver_pending()
        return {
            "round_id": round_id,
            "emitted": emitted,
            "pending": self.pending_by_user(),
        }

    def pending_by_user(self) -> Dict[str, int]:
        """Undrained client-mailbox depths (polling telemetry)."""
        return {uid: n for uid in self.roster
                if (n := self.transport.pending(uid))}

    def finalize(self, round_id: int) -> RoundResult:
        """Close the round once the root holds a finalized summary.

        Raises :class:`~repro.errors.ProtocolError` (HTTP 409 upstream)
        while partials are still outstanding; once, closing the round
        unrecorded, when nobody reported. The session records the
        round under week == round id (one round per weekly window).
        Mail nobody polled — e.g. the missing users' broadcasts — is
        drained into :attr:`undelivered`, not left for the next round.
        """
        self._require_round(round_id)
        self._session().deliver_pending()
        try:
            # Raises until the root finalized, leaving the round open.
            result = self._session().close_round(round_id, week=round_id)
        except MissingReportError:
            self._open_round = None
            raise
        for user_id in self.roster:
            for sender, message in self.transport.drain(user_id):
                self.undelivered.append(
                    (round_id, user_id, sender, type(message).__name__))
        self._open_round = None
        self.store.save_weekly_record(WeeklyStatsRecord(
            week=round_id, users_threshold=result.users_threshold,
            num_reporting=len(result.reported_users),
            num_missing=len(result.missing_users),
            distribution=tuple(result.distribution.values)))
        return result

    # ------------------------------------------------------------------
    # Queries (answered from the store, no recomputation)
    # ------------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        epoch = self._epoch() if self.session else None
        return {
            "epoch": epoch.epoch_id if epoch else None,
            "roster_size": epoch.size if epoch else 0,
            "pending_joins": len(self._pending_joins),
            "open_round": self._open_round,
            "next_round": self.session.next_round if self.session else 0,
            "reports_received": len(self._reports_seen),
            "rounds_finalized": [r.round_id for r in self.store.round_history(
                session=self.session_name)],
            "transport": self.transport_name,
            "total_bytes": self.transport.total_bytes,
            "total_messages": self.transport.total_messages,
            "undelivered": len(self.undelivered),
        }

    def _finalized(self, round_id: int, missing: str) -> RoundResult:
        record = self.store.round_record(self.session_name, round_id)
        if record is None:
            raise ProtocolError(missing)
        return record.result(self.config)

    def summary_spec(self, round_id: int) -> Dict[str, Any]:
        return result_to_spec(self._finalized(
            round_id, f"round {round_id} has not been finalized"))

    def snapshot_spec(self, week: int) -> Dict[str, Any]:
        result = self._finalized(week, f"no snapshot exists for week {week}")
        return snapshot_to_spec(WeeklySnapshot(
            week=week, users_threshold=result.users_threshold,
            distribution=result.distribution, round_result=result))

    def history_rounds(self, epoch: Optional[int] = None,
                       week: Optional[int] = None) -> List[Dict[str, Any]]:
        """Persisted rounds as JSON-ready dicts (summary spec omitted —
        the full aggregate is the round-summary route's job)."""
        return [{
            "session": r.session,
            "round_id": r.round_id,
            "epoch": r.epoch_id,
            "week": r.week,
            "users_threshold": r.users_threshold,
            "num_reporting": r.num_reporting,
            "num_missing": r.num_missing,
            "recovery_round_used": r.recovery_round_used,
            "total_bytes": r.total_bytes,
            "total_messages": r.total_messages,
        } for r in self.store.round_history(epoch=epoch, week=week)]

    def history_flagged(self, since_week: int = 0) -> List[Dict[str, Any]]:
        """Campaigns the detector flagged as targeted, from the SQL view."""
        return [asdict(c) for c in self.store.flagged_campaigns(since_week)]

    def history_trend(self, ad_identity: str) -> List[Dict[str, Any]]:
        """One campaign's week-by-week trajectory."""
        return [asdict(t) for t in self.store.trend(ad_identity)]

    def history_weeks(self) -> List[int]:
        """Weeks with persisted aggregate stats."""
        return self.store.recorded_weeks()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self.session is not None:
            self.session.close()
        if self._owns_transport:
            close = getattr(self.transport, "close", None)
            if callable(close):
                close()
        if self._owns_store:
            self.store.close()
