"""Server-side protocol state behind the HTTP plane.

The HTTP routes are a thin skin; this module is the operator: it owns
the enrollment (an epoch-aware
:class:`~repro.protocol.membership.MembershipManager`), the aggregation
endpoints (per-clique :class:`~repro.protocol.aggregator.CliqueAggregator`
fan-out plus the :class:`~repro.protocol.aggregator.RootAggregator`),
and one byte-exact transport every protocol message crosses.

Two design decisions carry the whole subsystem:

**Every protocol byte still crosses the accounting seam.** The service
refuses ``transport="memory"`` and runs the
:class:`~repro.protocol.transport.WireTransport` family only: a report
POSTed over HTTP is decoded from its wire bytes, then *re-sent* through
``transport.send(user, clique-aggregator, message)`` — the single
``_carry``/``_ship`` path every other transport uses. Byte counts
are therefore directly comparable between an HTTP-driven round and an
in-process socket round (the equivalence tests assert equality), and a
:class:`~repro.protocol.net.ChaosSocketTransport` fault plan injects its
WAN faults *under* the HTTP plane unchanged
(``transport="socket"`` + ``fault_plan``).

**Remote clients rebuild themselves from the enrollment spec.**
:func:`~repro.protocol.enrollment.enroll_users` is deterministic in
``(roster, config, seed, ...)`` and epoch advances are deterministic in
the join/leave sequence, so the service hands a client everything needed
to reconstruct its own :class:`~repro.protocol.client.ProtocolClient` —
key material included — in another process (see
:meth:`ServiceState.enrollment_spec` and
:class:`repro.service.client.RemoteClient`). The privacy consequence
(the operator knows the shared seed and could derive client secrets) is
a fidelity limit of the reproduction, documented in ``docs/service.md``;
the paper's deployment runs real per-client key exchange instead.

The round lifecycle is the in-process driver's quiescence loop, split
at the HTTP boundary: a :class:`~repro.protocol.runner.ProtocolRunner`
over the aggregation tree (the clients are remote) moves every message,
and the service calls its four phases when the remote traffic dictates
— ``start_round`` opens the round, ``submit`` feeds one client message
through the transport and delivers what is pending, ``advance`` fires
the idle phase (the deployment phase-timeout: "whoever has not reported
is missing"), and ``finalize`` closes the round once the root has a
summary. Client-bound traffic (notices, the threshold broadcast) waits
in the clients' transport mailboxes until polled over HTTP.
"""

from __future__ import annotations

import threading
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.api import resolve_transport
from repro.errors import ConfigurationError, ProtocolError, StoreError
from repro.protocol import wire
from repro.protocol.aggregator import clique_endpoint_id
from repro.protocol.client import RoundConfig
from repro.protocol.enrollment import enroll_users
from repro.protocol.membership import MembershipManager
from repro.protocol.messages import BlindedReport, BlindingAdjustment
from repro.protocol.net.spec import (
    WeeklySnapshot,
    config_to_spec,
    resolve_rule,
    result_to_spec,
    snapshot_to_spec,
)
from repro.protocol.runner import (
    ClientPopulation,
    ProtocolRunner,
    RoundResult,
    build_aggregation_tree,
)
from repro.store.history import (
    HistoryStore,
    SessionRecord,
    WeeklyStatsRecord,
)
from repro.store.recorder import SessionRecorder

if TYPE_CHECKING:
    from repro.protocol.net.chaos import FaultPlan

#: Transports the service plane accepts. "memory" is refused: its
#: object mailboxes never produce wire bytes, so HTTP-vs-socket byte
#: parity — the property this subsystem exists to keep assertable —
#: would be vacuous.
SERVICE_TRANSPORTS = ("wire", "socket")

#: Message types a client may submit over HTTP. Everything else an
#: endpoint emits is server-to-client traffic.
_CLIENT_MESSAGE_TYPES = (BlindedReport, BlindingAdjustment)


class ServiceState:
    """The operator's protocol state: enrollment, epochs, rounds.

    Not thread-safe by itself — the app layer serializes every call
    under one ops lock (:attr:`lock`).

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
                 share_pad_streams: bool = True,
                 threshold_rule: str = "mean",
                 transport: str = "wire",
                 fault_plan: "Optional[FaultPlan]" = None,
                 store: "Union[HistoryStore, str, None]" = None,
                 session_name: str = "service") -> None:
        if transport not in SERVICE_TRANSPORTS:
            raise ConfigurationError(
                f"the service plane needs a byte-exact transport so HTTP "
                f"rounds stay byte-comparable to socket rounds; expected "
                f"one of {SERVICE_TRANSPORTS}, got {transport!r}")
        resolve_rule(threshold_rule)  # validate the name early
        self.config = config
        self.seed = seed
        self.num_cliques = num_cliques
        self.use_oprf = use_oprf
        self.share_pad_streams = share_pad_streams
        self.threshold_rule = threshold_rule
        self.transport_name = transport
        #: Durable round history behind the ``/v1/history/*`` routes:
        #: every epoch and finalized round persists as it happens, so
        #: historical queries never recompute and the file outlives the
        #: process for offline analysis. Default is an in-memory store
        #: (the endpoints still answer, nothing survives the process).
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
        self._recorder = SessionRecorder(store, session_name)
        self.lock = threading.RLock()
        instance, self._owns_transport = resolve_transport(
            transport, fault_plan=fault_plan)
        assert instance is not None
        self.transport = instance
        self.manager: Optional[MembershipManager] = None
        self._pending_joins: List[str] = []
        #: Drives the aggregation tree; rebuilt with it every epoch.
        self._runner: Optional[ProtocolRunner] = None
        self._uplink_of: Dict[str, str] = {}
        self._open_round: Optional[int] = None
        self._next_round = 0
        self._reports_seen: Dict[str, int] = {}
        self._snapshots: Dict[int, WeeklySnapshot] = {}
        #: Telemetry: messages left in a mailbox nobody drained at
        #: finalize time (broadcasts addressed to users that never
        #: polled — e.g. the round's missing users).
        self.undelivered: List[Tuple[int, str, str, str]] = []
        self._closed = False

    # ------------------------------------------------------------------
    # Enrollment and epochs
    # ------------------------------------------------------------------
    @property
    def roster(self) -> List[str]:
        """The active epoch's roster (empty before the first epoch)."""
        if self.manager is None:
            return []
        return list(self.manager.epoch.user_ids)

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

        The first call performs the epoch-0 enrollment; later calls
        advance the membership manager. Either way the store records the
        epoch — the lineage :meth:`enrollment_spec` replays from. Refused
        while a round is open.
        """
        if self._open_round is not None:
            raise ProtocolError(
                f"round {self._open_round} is open; finalize it before "
                f"advancing the epoch")
        if self.manager is None:
            if leaves:
                raise ConfigurationError(
                    "no epoch exists yet; there is nobody to remove")
            if not self._pending_joins:
                raise ConfigurationError(
                    "enroll at least one client before the first epoch")
            roster = sorted(self._pending_joins)
            enrollment = enroll_users(
                roster, self.config, seed=self.seed,
                use_oprf=self.use_oprf, num_cliques=self.num_cliques,
                share_pad_streams=self.share_pad_streams)
            self.manager = MembershipManager(enrollment)
            self._recorder.record_session(SessionRecord(
                name=self.session_name, config=self.config,
                seed=self.seed, use_oprf=self.use_oprf,
                num_cliques=self.num_cliques,
                share_pad_streams=self.share_pad_streams))
            self._recorder.record_epoch(self.manager.epoch)
            left: List[str] = []
        else:
            unknown = sorted(set(leaves) - set(self.roster))
            if unknown:
                raise ConfigurationError(
                    f"cannot remove users not in the epoch: {unknown[:5]}")
            joins = sorted(self._pending_joins)
            transition = self.manager.advance_epoch(
                joins=joins, leaves=leaves, first_round=self._next_round)
            self._recorder.record_transition(transition)
            left = list(transition.left)
        self._pending_joins.clear()
        self._next_round = max(self._next_round,
                               self.manager.epoch.first_round)
        self._rebuild_endpoints()
        epoch = self.manager.epoch
        return {
            "epoch": epoch.epoch_id,
            "size": epoch.size,
            "num_cliques": epoch.num_cliques,
            "min_clique_size": epoch.min_clique_size,
            "first_round": epoch.first_round,
            "left": left,
        }

    def _rebuild_endpoints(self) -> None:
        """(Re-)wire the aggregation fan-out over the same transport."""
        assert self.manager is not None
        population = ClientPopulation(self.manager.clients)
        self._uplink_of = {
            user_id: clique_endpoint_id(clique_id)
            for user_id, clique_id in self.manager.epoch.clique_of.items()}
        endpoints, root = build_aggregation_tree(
            self.config, population.members(), population.user_ids,
            threshold_rule=resolve_rule(self.threshold_rule))
        self._runner = ProtocolRunner(endpoints, root,
                                      transport=self.transport)
        for user_id in self._uplink_of:
            self.transport.register(user_id)

    def _deliver(self) -> None:
        """Deliver server-bound mail until the server side is quiet."""
        assert self._runner is not None
        while self._runner.deliver_pending():
            pass

    def enrollment_spec(self, user_id: str) -> Dict[str, Any]:
        """Everything a remote process needs to rebuild ``user_id``'s
        :class:`~repro.protocol.client.ProtocolClient` deterministically:
        the enrollment identity plus the epoch lineage the store holds —
        epoch 0's roster, then each later epoch's delta (what
        :meth:`repro.api.ProtocolSession.resume` replays too)."""
        if self.manager is None:
            raise ProtocolError(
                "no epoch exists yet; advance the epoch first")
        if user_id not in self._uplink_of:
            raise ProtocolError(
                f"{user_id!r} is not a member of the current epoch")
        epoch = self.manager.epoch
        first, *later = self.store.epoch_records(self.session_name)
        return {
            "config": config_to_spec(self.config),
            "seed": self.seed,
            "use_oprf": self.use_oprf,
            "num_cliques": self.num_cliques,
            "share_pad_streams": self.share_pad_streams,
            "epoch0_roster": sorted(first.roster),
            "transitions": [{"joins": list(e.joins), "leaves": list(e.leaves),
                             "first_round": e.first_round} for e in later],
            "user": {
                "user_id": user_id,
                "clique_id": epoch.clique_of[user_id],
                "uplink": self._uplink_of[user_id],
            },
        }

    # ------------------------------------------------------------------
    # The round lifecycle over HTTP
    # ------------------------------------------------------------------
    @property
    def open_round(self) -> Optional[int]:
        return self._open_round

    def start_round(self) -> int:
        """Open the next round on the server endpoints."""
        if self._runner is None:
            raise ProtocolError("no epoch exists yet; advance the epoch "
                                "before opening a round")
        if self._open_round is not None:
            raise ProtocolError(
                f"round {self._open_round} is already open")
        round_id = self._next_round
        self._runner.open_round(round_id)
        self._open_round = round_id
        self._reports_seen = {}
        self._deliver()
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

        Decodes the payload with the byte-exact codec, validates that it
        is a client-side message of the open round actually sent by the
        authenticated ``user_id``, then sends it through
        ``transport.send`` — the accounting path — to the user's clique
        aggregator and delivers what is pending on the server side.
        """
        if self._open_round is None:
            raise ProtocolError("no round is open")
        uplink = self._uplink_of.get(user_id)
        if uplink is None:
            raise ProtocolError(
                f"{user_id!r} is not a member of the current epoch")
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
        if isinstance(message, BlindedReport):
            self._reports_seen[user_id] = message.round_id
        self._deliver()
        return {"round_id": self._open_round, "accepted": True}

    def drain_mailbox(self, user_id: str,
                      round_id: int) -> List[Dict[str, Any]]:
        """Pop ``user_id``'s pending server-to-client messages as wire
        bytes (the HTTP layer base64-encodes them)."""
        self._require_round(round_id)
        if user_id not in self._uplink_of:
            raise ProtocolError(
                f"{user_id!r} is not a member of the current epoch")
        out = []
        for sender, message in self.transport.drain(user_id):
            out.append({"from": sender, "payload": wire.encode(message)})
        return out

    def advance(self, round_id: int) -> Dict[str, Any]:
        """Fire the idle phase: the deployment's phase timeout.

        This is where a clique aggregator decides "whoever has not
        reported by now is missing" and starts the recovery round, and
        later where it releases its partial aggregate — the driver's
        ``idle_phase``, triggered by the operator instead of transport
        quiescence.
        """
        self._require_round(round_id)
        assert self._runner is not None
        self._deliver()
        emitted = self._runner.idle_phase(round_id)
        self._deliver()
        return {
            "round_id": round_id,
            "emitted": emitted,
            "pending": self.pending_by_user(),
        }

    def pending_by_user(self) -> Dict[str, int]:
        """Undrained client-mailbox depths (polling telemetry)."""
        return {uid: n for uid in sorted(self._uplink_of)
                if (n := self.transport.pending(uid))}

    def finalize(self, round_id: int) -> RoundResult:
        """Close the round once the root holds a finalized summary.

        Raises :class:`~repro.errors.ProtocolError` (HTTP 409 upstream)
        while partials are still outstanding. Leftover client-mailbox
        messages — broadcasts to users that never polled, e.g. this
        round's missing users — are drained into :attr:`undelivered`
        rather than poisoning the next round's mailboxes.
        """
        self._require_round(round_id)
        assert self._runner is not None and self.manager is not None
        self._deliver()
        # Raises until the root finalized, leaving the round open.
        result = self._runner.close_round(round_id)
        for user_id in sorted(self._uplink_of):
            for sender, message in self.transport.drain(user_id):
                self.undelivered.append(
                    (round_id, user_id, sender, type(message).__name__))
        snapshot = WeeklySnapshot(
            week=round_id, users_threshold=result.users_threshold,
            distribution=result.distribution, round_result=result)
        self._snapshots[round_id] = snapshot
        self._open_round = None
        self._next_round = round_id + 1
        self.manager.note_round(round_id)
        # Persist the finalized round (week == round id on the service
        # plane: one reporting round per weekly window) and its stats.
        self._recorder.week = round_id
        self._recorder.record_round(result, self.manager.epoch.epoch_id)
        self.store.save_weekly_record(WeeklyStatsRecord(
            week=round_id, users_threshold=result.users_threshold,
            num_reporting=len(result.reported_users),
            num_missing=len(result.missing_users),
            distribution=tuple(result.distribution.values)))
        return result

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def status(self) -> Dict[str, Any]:
        epoch = self.manager.epoch if self.manager is not None else None
        return {
            "epoch": epoch.epoch_id if epoch else None,
            "roster_size": epoch.size if epoch else 0,
            "pending_joins": len(self._pending_joins),
            "open_round": self._open_round,
            "next_round": self._next_round,
            "reports_received": len(self._reports_seen),
            "rounds_finalized": sorted(self._snapshots),
            "transport": self.transport_name,
            "total_bytes": self.transport.total_bytes,
            "total_messages": self.transport.total_messages,
            "undelivered": len(self.undelivered),
        }

    def summary_spec(self, round_id: int) -> Dict[str, Any]:
        snapshot = self._snapshots.get(round_id)
        if snapshot is None:
            raise ProtocolError(f"round {round_id} has not been finalized")
        return result_to_spec(snapshot.round_result)

    def snapshot_spec(self, week: int) -> Dict[str, Any]:
        snapshot = self._snapshots.get(week)
        if snapshot is None:
            raise ProtocolError(f"no snapshot exists for week {week}")
        return snapshot_to_spec(snapshot)

    # ------------------------------------------------------------------
    # Longitudinal history (answered from the store, no recomputation)
    # ------------------------------------------------------------------
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
        return [{
            "ad_identity": c.ad_identity,
            "week": c.week,
            "flagged_users": c.flagged_users,
            "users_seen": c.users_seen,
            "users_threshold": c.users_threshold,
        } for c in self.store.flagged_campaigns(since_week)]

    def history_trend(self, ad_identity: str) -> List[Dict[str, Any]]:
        """One campaign's week-by-week trajectory."""
        return [{
            "week": t.week,
            "users_seen": t.users_seen,
            "flagged_users": t.flagged_users,
            "users_threshold": t.users_threshold,
        } for t in self.store.trend(ad_identity)]

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
        if self._owns_transport:
            close = getattr(self.transport, "close", None)
            if callable(close):
                close()
        if self._owns_store:
            self.store.close()
