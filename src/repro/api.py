"""``repro.api`` — the stable public facade of the reproduction.

This module is the supported entry point for running the paper's §6
privacy-preserving counting protocol and the count-based detection it
feeds. Everything here is a thin, stable veneer over the endpoint/runner
machinery in :mod:`repro.protocol`; the internals may keep moving, the
names below will not.

* :class:`ProtocolSession` — a long-lived binding of an enrolled
  population to its wiring; call :meth:`~ProtocolSession.run_round` once
  per reporting window and :meth:`~ProtocolSession.advance_epoch` when
  the population churns between windows.
* :class:`SessionConfig` — the one value that names and validates every
  wiring option (transport, threshold rule, client backend, tree
  fan-in); every layer above — the pipeline, the
  deployment loop, the CLI — accepts and forwards it unchanged.
* :func:`run_private_round` — one-shot convenience: enrolled clients in,
  :class:`~repro.protocol.runner.RoundResult` out.

Impressions in, classified (user, ad) pairs out, is
:class:`~repro.core.pipeline.DetectionPipeline`'s job (``repro detect``
on the command line).

The session lifecycle mirrors a deployment's operational cadence::

    session = ProtocolSession.create(users, config, num_cliques=8)
    r0 = session.run_next_round()          # epoch 0
    r1 = session.run_next_round()
    session.advance_epoch(joins=["new-user"], leaves=["churned-user"])
    r2 = session.run_next_round()          # epoch 1, same key material

One constructor, one driver, one settings value.
:meth:`ProtocolSession.create` builds a session from whatever the caller
holds — user ids, an :class:`~repro.protocol.enrollment.Enrollment`, a
:class:`~repro.protocol.membership.MembershipManager`, a
:class:`~repro.protocol.army.ClientArmy` or a
:class:`~repro.protocol.runner.RemotePopulation`; the synchronous
:class:`~repro.protocol.runner.ProtocolRunner` drives every round; and a
:class:`SessionConfig` says how the parties are wired, rejecting invalid
combinations when it is constructed — before any enrollment work is
spent. Attach a :class:`~repro.store.HistoryStore`
(``create(..., store="panel.db")``) and every round, epoch and verdict
persists as it happens; :meth:`ProtocolSession.resume` then rebuilds a
crashed session from that history, bit-identical to an uninterrupted
run.

``advance_epoch`` re-shards minimally (see
:mod:`repro.protocol.membership`): users keep their DH key pairs and
every surviving pair secret, the per-clique aggregators are re-wired in
place over the same transport, and round ids keep increasing so pads are
never reused across epochs. There is one lifecycle for both client
backends: ``session.membership`` owns the roster, epoch and round
watermark of every session that has key material — per-user client
objects or a :class:`~repro.protocol.army.ClientArmy` (``session.army``)
— and only its backend hook, re-wiring the cliques churn touched,
differs. The same replay therefore resumes either backend.

A third population, selected by its type like the army, is
:class:`~repro.protocol.runner.RemotePopulation`: members whose clients
run in another process. The HTTP operator behind ``repro serve`` is
such a session, stepping the round's phases (``open_round`` ...
``close_round``) as remote traffic arrives.

There is one aggregation topology: a clique aggregator per blinding
clique feeding the root, through regional merge tiers when ``fan_in``
bounds the fan-out (the paper's single back-end is the one-clique
tree). Transports are selected by name — ``transport="memory"``
(default), ``"wire"`` (byte-exact codec round-trip) or ``"socket"``
(real TCP frames, :mod:`repro.protocol.net`). The aggregators always
run in the operator's process, re-wired in place by ``advance_epoch``.
Sessions that own sockets or a store are context managers; call
:meth:`ProtocolSession.close` (or use ``with``) when done.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Any,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import (ConfigurationError, MissingReportError,
                          RoundStateError)
from repro.protocol.army import ClientArmy
from repro.protocol.client import ProtocolClient, RoundConfig
from repro.protocol.endpoint import (
    ProtocolEndpoint,
    ThresholdRuleFn,
    mean_threshold,
)
from repro.protocol.enrollment import Enrollment, enroll_users
from repro.protocol.membership import (
    CLIENT_BACKENDS,
    Epoch,
    EpochTransition,
    MembershipManager,
)
from repro.protocol.spec import rule_spec
from repro.protocol.runner import (
    ClientPopulation,
    Clients,
    ProtocolRunner,
    RemotePopulation,
    RoundResult,
    as_population,
    build_aggregation_tree,
)
from repro.protocol.transport import InMemoryTransport

if TYPE_CHECKING:
    from repro.store.history import EpochRecord, HistoryStore

#: What ``transport=`` accepts: a named transport or a live instance.
TransportSpec = Union[str, InMemoryTransport, None]

__all__ = [
    "ProtocolSession",
    "SessionConfig",
    "run_private_round",
    "RoundConfig",
    "RoundResult",
]

#: Named transports ``SessionConfig(transport=...)`` resolves; an
#: :class:`~repro.protocol.transport.InMemoryTransport` instance is
#: accepted as well. ``"wire"`` round-trips every message through the
#: byte-exact codec, ``"socket"`` ships the same bytes through a real
#: localhost TCP connection (length-prefixed frames).
TRANSPORTS = ("memory", "wire", "socket")


def _check_transport(spec: TransportSpec) -> None:
    """The spec names a known transport or is an instance (a
    :class:`~repro.protocol.net.ChaosSocketTransport` carries its own
    fault plan)."""
    if not (spec is None or isinstance(spec, InMemoryTransport)
            or spec in TRANSPORTS):
        raise ConfigurationError(
            f"unknown transport {spec!r}; expected one of {TRANSPORTS} or "
            f"an InMemoryTransport instance")


def resolve_transport(
    spec: TransportSpec,
) -> Tuple[Optional[InMemoryTransport], bool]:
    """Transport spec -> (instance-or-None, session_owns_it)."""
    _check_transport(spec)
    if spec is None or isinstance(spec, InMemoryTransport):
        return spec, False
    if spec == "memory":
        return InMemoryTransport(), True
    if spec == "wire":
        from repro.protocol.transport import WireTransport
        return WireTransport(), True
    from repro.protocol.net import SocketTransport
    return SocketTransport(), True


@dataclass(frozen=True)
class SessionConfig:
    """Validated wiring options — the one place they are named.

    Collects every knob that shapes *how* a session runs — transport,
    threshold rule, client backend, tree fan-in — as
    one immutable, validated value, separate from *what* population
    runs (the source argument of :meth:`~ProtocolSession.create`) and
    from the protocol parameters themselves
    (:class:`~repro.protocol.client.RoundConfig`). Every check that
    does not need the population happens here, at construction, so an
    invalid combination fails before any enrollment work is spent; the
    layers above (:class:`~repro.core.pipeline.DetectionPipeline`,
    :class:`~repro.backend.operations.LongitudinalDeployment`, the CLI)
    accept and forward this value instead of re-listing its fields.

    Fields
    ------
    transport:
        ``"memory"`` / ``"wire"`` / ``"socket"`` (see
        :data:`TRANSPORTS`) or an
        :class:`~repro.protocol.transport.InMemoryTransport` instance;
        None is a fresh in-memory transport. A named transport is
        created, owned and closed by the session; an instance stays the
        caller's to close. Seeded WAN faults ride their own transport:
        pass ``ChaosSocketTransport(plan)`` with a
        :class:`~repro.protocol.net.FaultPlan`.
    threshold_rule:
        Maps the #Users distribution to ``Users_th`` (default: mean,
        §4.2); fixed for the session's life. It must be a named rule (a
        :class:`~repro.core.thresholds.ThresholdRule`'s ``compute`` or
        the default): rules are persisted and served by name.
    client_backend:
        ``"objects"`` or ``"batched"`` (see :data:`CLIENT_BACKENDS`);
        picks the population representation when
        :meth:`~ProtocolSession.create` enrolls from user ids.
    fan_in:
        An ``int`` bound (>= 2) on the partial-aggregate fan-in of the
        aggregation tree (regional merge tiers appear above it); None
        keeps every clique aggregator feeding the root directly.

    Use :func:`dataclasses.replace` to derive variants::

        base = SessionConfig(client_backend="batched", fan_in=64)
        wired = replace(base, transport="wire")
    """

    transport: TransportSpec = None
    threshold_rule: ThresholdRuleFn = mean_threshold
    client_backend: str = "objects"
    fan_in: Optional[int] = None

    def __post_init__(self) -> None:
        if self.client_backend not in CLIENT_BACKENDS:
            raise ConfigurationError(
                f"unknown client_backend {self.client_backend!r}; "
                f"expected one of {CLIENT_BACKENDS}")
        _check_transport(self.transport)
        rule_spec(self.threshold_rule)  # refuses a rule it cannot name
        if self.fan_in is not None and (isinstance(self.fan_in, bool)
                                        or not isinstance(self.fan_in, int)):
            raise ConfigurationError(
                f"fan_in must be an int, got {self.fan_in!r}")
        if self.fan_in is not None and self.fan_in < 2:
            raise ConfigurationError(
                f"fan_in must be >= 2 (a 1-child tier merges nothing), "
                f"got {self.fan_in}")


class ProtocolSession:
    """An enrolled population bound to its wiring, round after round.

    One constructor, one driver, one settings value: build a session
    with :meth:`create` (from user ids, an enrollment, a membership
    manager, an army or remote members), say how it is wired with one
    :class:`SessionConfig`, and the synchronous
    :class:`~repro.protocol.runner.ProtocolRunner` drives every round.

    A session wires the parties once — clients, one aggregator per
    blinding clique and the root — and then drives as many rounds as
    the deployment needs over the same transport, draining every mailbox
    each round. Sessions built from an epoch-aware enrollment (any
    :func:`~repro.protocol.enrollment.enroll_users` result) also support
    :meth:`advance_epoch`, which applies membership churn and re-wires
    the aggregation endpoints in place.

    Parameters
    ----------
    config:
        The shared :class:`~repro.protocol.client.RoundConfig`.
    clients:
        Enrolled :class:`~repro.protocol.client.ProtocolClient` objects
        (see :func:`~repro.protocol.enrollment.enroll_users`), a
        :class:`~repro.protocol.army.ClientArmy` or a
        :class:`~repro.protocol.runner.RemotePopulation`.
    settings:
        The validated :class:`SessionConfig`; defaults apply when
        omitted. (``client_backend`` only matters to :meth:`create`,
        which picks the population representation before this runs.)
    membership:
        Optional :class:`~repro.protocol.membership.MembershipManager`
        enabling :meth:`advance_epoch`; built automatically by
        :meth:`create`, and here for an army (whose manager must drive
        that very army).
    """

    def __init__(self, config: RoundConfig, clients: Clients,
                 settings: Optional[SessionConfig] = None, *,
                 membership: Optional[MembershipManager] = None) -> None:
        settings = settings if settings is not None else SessionConfig()
        self.config = config
        self.settings = settings
        if isinstance(clients, ClientArmy):
            if membership is None:
                membership = MembershipManager(clients)
            elif membership.army is not clients:
                raise ConfigurationError(
                    "a batched-backend session's roster lives in the "
                    "MembershipManager built from its army; don't pass a "
                    "different manager")
        #: Owner of the roster, epoch and round watermark for either
        #: client backend (None only for bare client objects that carry
        #: no key material).
        self.membership = membership
        #: The batched client backend, when this session hosts one.
        self.army: Optional[ClientArmy] = (
            membership.army if membership is not None else None)
        #: Remote members: a live view, re-wired as is on epoch advances.
        self._remote = clients if isinstance(clients, RemotePopulation) \
            else None
        self._closed = False
        self._store: "Optional[HistoryStore]" = None
        self._store_name = ""
        self._owns_store = False
        #: The detection week stamped on every round recorded while it
        #: is set (the pipeline sets it before a window's round).
        self.week: Optional[int] = None
        #: The round counter of a session built from bare client
        #: objects; a membership keeps its own watermark (see
        #: :attr:`next_round`).
        self._next_round = 0
        transport, self._owns_transport = resolve_transport(
            settings.transport)
        try:
            self._wire(clients, transport)
        except BaseException:
            # Wiring failures must not strand the owned socket transport:
            # the caller never gets a session object to close.
            if self._owns_transport:
                close = getattr(transport, "close", None)
                if callable(close):
                    close()
            raise

    def _wire(self, clients: Clients,
              transport: Optional[InMemoryTransport]) -> None:
        """(Re-)build endpoints and runner; shared by construction and
        epoch advances (which pass the session's existing transport).

        Once the transport exists the population registers
        its members' mailboxes; ``self.clients`` holds per-user client
        objects only (empty for the army and remote members).
        """
        population = as_population(clients)
        aggregation, root = build_aggregation_tree(
            self.config, population.members(), population.user_ids,
            threshold_rule=self.settings.threshold_rule,
            fan_in=self.settings.fan_in)
        # The tree is registered, and so opened each round, before the
        # clients: its aggregators drop the last round's reports (whose
        # cells they hold) before the clients build the next round's, so
        # the process holds one round of report cells.
        endpoints = [*aggregation, *population.endpoints]
        self._runner = ProtocolRunner(endpoints, root, transport=transport)
        self.root = root
        population.register_mailboxes(self._runner.transport)
        self.clients: List[ProtocolClient] = (
            list(population.endpoints)
            if isinstance(population, ClientPopulation) else [])

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def create(cls, source: Union[Sequence[str], Enrollment,
                                  MembershipManager, ClientArmy,
                                  RemotePopulation],
               config: Optional[RoundConfig] = None,
               settings: Optional[SessionConfig] = None,
               *,
               store: "Union[HistoryStore, str, None]" = None,
               store_name: str = "session",
               **enroll_kwargs: Any) -> "ProtocolSession":
        """The one documented way to build a session.

        ``source`` is the population, in whichever representation the
        caller already has:

        * a sequence of **user ids** — epoch-0 enrollment happens here
          (``config`` required; ``enroll_kwargs`` — ``seed``,
          ``use_oprf``, ``num_cliques``, ... —
          forward to :func:`~repro.protocol.enrollment.enroll_users`,
          and ``settings.client_backend`` picks per-user client objects
          or the struct-of-arrays
          :class:`~repro.protocol.army.ClientArmy`);
        * an :class:`~repro.protocol.enrollment.Enrollment` — wrapped,
          membership-aware whenever it carries key material;
        * a :class:`~repro.protocol.membership.MembershipManager` — the
          session joins its epoch lifecycle mid-flight;
        * a :class:`~repro.protocol.army.ClientArmy` — the batched
          backend; a membership manager is built around it;
        * a :class:`~repro.protocol.runner.RemotePopulation` — clients
          in another process; its membership is the session's.

        ``settings`` is a validated :class:`SessionConfig` (wiring:
        transport, threshold rule, fan-in); defaults apply when
        omitted. ``store`` (a
        :class:`~repro.store.history.HistoryStore` or a path for one)
        attaches durable history recording via :meth:`attach_store`
        before any round runs.
        """
        settings = settings if settings is not None else SessionConfig()
        if isinstance(source, (Enrollment, MembershipManager, ClientArmy,
                               RemotePopulation)):
            kind = type(source).__name__
            if config is not None and config is not source.config:
                raise ConfigurationError(
                    f"the {kind} carries its own RoundConfig; don't pass "
                    f"a different one to create()")
            if enroll_kwargs:
                raise ConfigurationError(
                    f"enrollment keywords {sorted(enroll_kwargs)} only "
                    f"apply when create() enrolls from user ids; the "
                    f"{kind} is already enrolled")
        else:
            user_ids = list(source)
            non_ids = [u for u in user_ids if not isinstance(u, str)]
            if non_ids:
                raise ConfigurationError(
                    f"create() enrolls from user-id strings (or wraps an "
                    f"Enrollment / MembershipManager / ClientArmy); got a "
                    f"sequence containing {type(non_ids[0]).__name__}")
            if config is None:
                raise ConfigurationError(
                    "enrolling from user ids needs the shared RoundConfig: "
                    "create(user_ids, config, ...)")
            enroll = (ClientArmy.enroll
                      if settings.client_backend == "batched"
                      else enroll_users)
            source = enroll(user_ids, config, **enroll_kwargs)
        if isinstance(source, Enrollment):
            # Membership-aware whenever it carries key material; the
            # clients keep the caller's enrollment order.
            membership = MembershipManager(source) if source.keypairs \
                else None
            clients: Clients = source.clients
        elif isinstance(source, RemotePopulation):
            membership, clients = source.membership, source
        else:
            # A manager is joined mid-lifecycle; an army gets its own.
            membership = source if isinstance(source, MembershipManager) \
                else MembershipManager(source)
            clients = membership.population
        session = cls(source.config, clients, settings,
                      membership=membership)
        if store is not None:
            try:
                session.attach_store(store, name=store_name)
            except BaseException:
                session.close()
                raise
        return session

    @classmethod
    def resume(cls, store: "Union[HistoryStore, str]",
               name: str = "session",
               settings: Optional[SessionConfig] = None) -> "ProtocolSession":
        """Reconstruct a crashed session from its persisted history.

        Reads the session's enrollment identity, epoch lineage and
        round watermark from ``store`` (a
        :class:`~repro.store.history.HistoryStore` or a path for one)
        and rebuilds the membership by deterministic replay
        (:meth:`~repro.protocol.membership.MembershipManager.
        from_history`): re-enroll the epoch-0 roster with the recorded
        seed, re-apply every recorded epoch transition with its
        recorded ``first_round``, then mark the last persisted round as
        spent. Key material being a pure function of that history, the
        resumed session's next round is **bit-identical** (aggregate
        and wire bytes) to the round the uninterrupted session would
        have run — and its round counter starts after every persisted
        round, so one-time pads stay one-time.

        Re-attaching the store (:meth:`attach_store`) verifies the
        replayed final epoch against the persisted roster/clique
        snapshot; any drift (a store written by different code, an
        edited file) raises :class:`~repro.errors.StoreError` instead
        of silently running with wrong cliques. ``settings`` re-wires
        transport and fan-in freely — wiring is not part of the persisted
        identity. The client backend is: a lineage resumes on the
        backend the store recorded, whatever ``settings.client_backend``
        says (that field only picks a representation when
        :meth:`create` enrolls).

        The store stays attached (recording continues seamlessly);
        :meth:`close` closes it when ``store`` was a path.
        """
        from repro.errors import StoreError
        from repro.store.history import HistoryStore
        owns = isinstance(store, str)
        if isinstance(store, str):
            store = HistoryStore(store)
        try:
            record = store.session_record(name)
            if record is None:
                known = store.session_names()
                raise StoreError(
                    f"store has no session named {name!r}"
                    + (f" (it has {known})" if known else
                       " (it has no sessions at all)"))
            epochs = store.epoch_records(name)
            if not epochs or epochs[0].epoch_id != 0:
                raise StoreError(
                    f"session {name!r} has no contiguous epoch history "
                    f"from epoch 0; cannot replay its enrollment")
            expected = [e.epoch_id for e in epochs]
            if expected != list(range(len(epochs))):
                raise StoreError(
                    f"session {name!r} has a gap in its epoch history "
                    f"(recorded epochs {expected}); cannot replay")
            membership = MembershipManager.from_history(
                epochs[0].roster, record.config,
                transitions=[(e.joins, e.leaves, e.first_round)
                             for e in epochs[1:]],
                last_round=store.last_round_id(name),
                client_backend=record.client_backend,
                seed=record.seed, use_oprf=record.use_oprf,
                num_cliques=record.num_cliques)
            session = cls(record.config, membership.population, settings,
                          membership=membership)
        except BaseException:
            if owns:
                store.close()
            raise
        try:
            session.attach_store(store, name=name)
        except BaseException:
            session.close()
            if owns:
                store.close()
            raise
        session._owns_store = owns
        return session

    # ------------------------------------------------------------------
    # Durable history
    # ------------------------------------------------------------------
    def attach_store(self, store: "Union[HistoryStore, str]",
                     name: str = "session") -> None:
        """Attach a :class:`~repro.store.history.HistoryStore`: from now
        on every completed round (tagged with :attr:`week`) and epoch
        transition is persisted as it happens, making :meth:`resume`
        possible.

        ``store`` may be a live store or a path (opened — and migrated
        to schema HEAD — here). The session's enrollment identity
        (config, seed, clique count, backend) is recorded under
        ``name``; attaching a *different* identity under an existing
        name raises :class:`~repro.errors.StoreError`, as does
        attaching at an epoch whose lineage the store cannot account
        for (attach at creation, or re-attach via :meth:`resume`).
        :meth:`close` closes the store exactly when it was opened here
        from a path; a store instance stays the caller's.

        Rounds completed *before* the store was attached are not
        back-filled; attach before the first round (easiest via
        ``create(..., store=...)``) for a resumable record.
        """
        from repro.errors import StoreError
        from repro.store.history import HistoryStore, SessionRecord
        if self._store is not None:
            raise ConfigurationError(
                f"this session already records to store "
                f"{self._store.path!r} as {self._store_name!r}; one "
                f"session, one store")
        owns = isinstance(store, str)
        if isinstance(store, str):
            store = HistoryStore(store)
        try:
            membership = self.membership
            if membership is None:
                raise ConfigurationError(
                    "durable history needs an enrollment identity "
                    "(seed, clique count) to make resume possible; "
                    "build the session via ProtocolSession.create from "
                    "user ids, an Enrollment, a MembershipManager or a "
                    "ClientArmy — not from bare client objects")
            identity = SessionRecord(
                name=name, config=self.config, seed=membership.seed,
                use_oprf=membership.use_oprf,
                num_cliques=membership.num_cliques,
                share_pad_streams=True,
                client_backend=membership.client_backend)
            epoch = membership.epoch
            store.record_session(identity)
            stored = {e.epoch_id: e for e in store.epoch_records(name)}
            current = stored.get(epoch.epoch_id)
            if current is not None:
                if (current.roster != tuple(epoch.user_ids)
                        or current.clique_of != dict(epoch.clique_of)
                        or current.first_round != epoch.first_round):
                    raise StoreError(
                        f"store already records epoch {epoch.epoch_id} "
                        f"of session {name!r} with a different roster or "
                        f"clique map; refusing to attach a diverged "
                        f"session lineage")
            elif epoch.epoch_id == 0:
                store.record_epoch(name, _epoch_record(epoch))
            elif epoch.epoch_id - 1 in stored:
                # The session advanced exactly one epoch past the
                # store's record (e.g. churn applied before attach):
                # the join/leave delta is recoverable by diffing
                # rosters, and replay stays deterministic.
                prev = set(stored[epoch.epoch_id - 1].roster)
                now = set(epoch.user_ids)
                store.record_epoch(name, _epoch_record(
                    epoch, joins=now - prev, leaves=prev - now))
            else:
                raise StoreError(
                    f"cannot attach at epoch {epoch.epoch_id}: the store "
                    f"records epochs {sorted(stored)} of session "
                    f"{name!r} and the lineage in between is unknown, so "
                    f"a later resume could not replay it (attach the "
                    f"store before advancing epochs)")
        except BaseException:
            if owns:
                store.close()
            raise
        self._store = store
        self._store_name = name
        self._owns_store = owns

    @property
    def store(self) -> "Optional[HistoryStore]":
        """The attached history store (None when nothing records)."""
        return self._store

    @property
    def transport(self) -> InMemoryTransport:
        return self._runner.transport

    @property
    def endpoints(self) -> List[ProtocolEndpoint]:
        return list(self._runner.endpoints)

    @property
    def epoch(self) -> Optional[Epoch]:
        """The current epoch (None for sessions without membership)."""
        return self.membership.epoch if self.membership else None

    @property
    def next_round(self) -> int:
        """The round id :meth:`run_next_round` will use.

        With a membership this is the membership's round watermark: it
        owns round ids, so every session built on one manager (and
        every epoch advanced on it directly) moves the same counter,
        and no two of them run one round id on the same pads.
        """
        if self.membership is not None:
            return self.membership.next_round
        return self._next_round

    # ------------------------------------------------------------------
    # Rounds
    # ------------------------------------------------------------------
    def _check_round_id(self, round_id: int) -> None:
        epoch = self.epoch
        if epoch is not None and epoch.epoch_id > 0 \
                and round_id < epoch.first_round:
            raise RoundStateError(
                f"round {round_id} predates epoch {epoch.epoch_id} "
                f"(first_round={epoch.first_round}); pads are keyed by "
                f"(pair, round) and pairs survive epochs, so reusing an "
                f"earlier round id would reuse one-time pads")

    def run_round(self, round_id: int) -> RoundResult:
        """Execute one complete reporting round (with fault recovery)."""
        self._check_round_id(round_id)
        return self._finish_round(round_id, self._runner.run_round(round_id))

    # The runner's phases, stepped by a caller whose clients are remote
    # (it feeds their messages into the transport between them).
    def open_round(self, round_id: int) -> None:
        """Start ``round_id`` on every endpoint (pad-reuse checked)."""
        self._check_round_id(round_id)
        self._runner.open_round(round_id)

    def deliver_pending(self) -> None:
        """Deliver until no endpoint has mail (the runner's one call)."""
        self._runner.deliver_pending()

    def idle_phase(self, round_id: int) -> bool:
        """Fire every endpoint's phase timeout; True when any emitted."""
        return self._runner.idle_phase(round_id)

    def close_round(self, round_id: int,
                    week: Optional[int] = None) -> RoundResult:
        """End and record the round (tagged ``week`` when given); raises,
        leaving it open, while the root has no summary. A round nobody
        reported in raises :class:`~repro.errors.MissingReportError`
        and is over all the same: unrecorded, its id spent."""
        try:
            result = self._runner.close_round(round_id)
        except MissingReportError:
            self._spend_round(round_id)
            raise
        if week is not None:
            self.week = week
        return self._finish_round(round_id, result)

    def _spend_round(self, round_id: int) -> None:
        """Mark ``round_id``'s pads spent: no later round reuses it."""
        if self.membership is not None:
            self.membership.note_round(round_id)
        else:
            self._next_round = max(self._next_round, round_id + 1)

    def _finish_round(self, round_id: int,
                      result: RoundResult) -> RoundResult:
        """Spend the round's pads and persist it (what :meth:`resume`
        replays)."""
        self._spend_round(round_id)
        if self._store is not None:
            epoch = self.epoch
            self._store.record_round(
                self._store_name, result,
                epoch.epoch_id if epoch is not None else 0, week=self.week)
        return result

    def run_next_round(self) -> RoundResult:
        """Run the next round in the session's monotonic round sequence."""
        return self.run_round(self.next_round)

    # ------------------------------------------------------------------
    # Epoch lifecycle
    # ------------------------------------------------------------------
    def advance_epoch(self, joins: Sequence[str] = (),
                      leaves: Sequence[str] = ()) -> EpochTransition:
        """Apply membership churn and re-wire the session in place.

        Delegates the key-material work to the session's
        :class:`~repro.protocol.membership.MembershipManager` (only
        users whose clique changed are re-keyed), then rebuilds the
        aggregation endpoints — one aggregator per surviving clique —
        over the *same* transport, so
        byte/message accounting and the staying users' dropouts persist
        across the transition. The new epoch's ``first_round`` is the
        membership's next round id: rounds never reuse an id across
        epochs, keeping every pairwise pad one-time.

        Both client backends take this one path: the manager drives
        per-user client objects and the struct-of-arrays army alike.
        """
        if self.membership is None:
            raise ConfigurationError(
                "this session has no membership manager; construct it via "
                "ProtocolSession.create (an enrollment built by "
                "enroll_users carries the required key material)")
        transition = self.membership.advance_epoch(joins=joins,
                                                   leaves=leaves)
        self._wire(self._remote or self.membership.population,
                   self.transport)
        if self._store is not None:
            self._store.record_epoch(self._store_name, _epoch_record(
                transition.epoch, transition.joined, transition.left,
                moved=transition.moved, modexps=transition.modexps,
                secrets_reused=transition.secrets_reused,
                secrets_dropped=transition.secrets_dropped))
        return transition

    def reset_windows(self) -> None:
        """Clear every client's observation window (new weekly window)."""
        if self.army is not None:
            self.army.reset_window()
            return
        for client in self.clients:
            client.reset_window()

    # ------------------------------------------------------------------
    # Dropouts (§6 fault tolerance)
    # ------------------------------------------------------------------
    def drop_users(self, user_ids: Iterable[str]) -> None:
        """Silence roster members from the next round on, until
        :meth:`restore_users` or they leave: no report, no adjustment,
        and their cliques' survivors recover the round. The one dropout
        mechanism of both backends: the army silences its rows, a client
        object its :attr:`~repro.protocol.client.ProtocolClient.dropped`
        flag, and either takes effect at the next round start (a round
        already open completes as it began). Ids outside the roster,
        and remote members (who drop out by not submitting), raise
        :class:`~repro.errors.ConfigurationError`."""
        self._silence(self._roster_ids(user_ids, "drop"), True)

    def restore_users(self, user_ids: Iterable[str]) -> None:
        """Let dropped users report again (refused as :meth:`drop_users`)."""
        self._silence(self._roster_ids(user_ids, "restore"), False)

    def _roster_ids(self, user_ids: Iterable[str], verb: str) -> List[str]:
        if self._remote is not None:
            raise ConfigurationError(
                f"cannot {verb} remote members: they drop out by not submitting")
        ids = list(user_ids)
        roster = {c.user_id for c in self.clients} if self.army is None \
            else self.army.clique_of
        unknown = [uid for uid in ids if uid not in roster]
        if unknown:
            raise ConfigurationError(f"cannot {verb} {unknown}: not in the roster")
        return ids

    def _silence(self, user_ids: Iterable[str], silent: bool) -> None:
        if self.army is not None:
            (self.army.drop_users if silent else self.army.restore_users)(user_ids)
            return
        silenced = set(user_ids)
        for client in self.clients:
            if client.user_id in silenced:
                client.dropped = silent

    # ------------------------------------------------------------------
    # Resource lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release owned resources (idempotent).

        Closes any transport the session created from a named spec
        (``transport="socket"``) and an attached history store
        the session opened from a path. A caller-provided transport or
        store instance is the caller's to close.
        """
        if self._closed:
            return
        self._closed = True
        if self._owns_transport:
            close = getattr(self.transport, "close", None)
            if callable(close):
                close()
        if self._owns_store and self._store is not None:
            self._store.close()

    def __enter__(self) -> "ProtocolSession":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _epoch_record(epoch: Epoch, joins: Iterable[str] = (),
                  leaves: Iterable[str] = (), moved: Sequence[str] = (),
                  **counts: int) -> "EpochRecord":
    """One epoch snapshot plus how it was reached, as the store keeps
    it (epoch 0 is recorded with an empty delta at attach time)."""
    from repro.store.history import EpochRecord
    return EpochRecord(
        epoch_id=epoch.epoch_id, first_round=epoch.first_round,
        num_cliques=epoch.num_cliques, roster=tuple(epoch.user_ids),
        clique_of=dict(epoch.clique_of), joins=tuple(sorted(joins)),
        leaves=tuple(sorted(leaves)), moved=tuple(moved), **counts)


def run_private_round(config: RoundConfig, clients: Clients,
                      round_id: int = 0,
                      settings: Optional[SessionConfig] = None,
                      ) -> RoundResult:
    """One-shot §6 round: wire a session, run it, return the result.

    The session (and any sockets it owns) is closed
    before returning; pass a transport *instance* in ``settings`` to
    inspect byte accounting afterwards. ``clients`` may be per-user
    client objects or a :class:`~repro.protocol.army.ClientArmy`.
    """
    with ProtocolSession(config, clients, settings) as session:
        return session.run_round(round_id)
