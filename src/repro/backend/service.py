"""Back-end service: the weekly operational cadence of eyeWnder.

Glues the pieces the paper's Figure 1 shows around the back-end server:
run the privacy-preserving aggregation round for the week, persist the
resulting statistics to the metadata store, and answer the queries the
extension needs for local classification (threshold + per-ad estimates).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.api import ProtocolSession, SessionConfig
from repro.core.thresholds import ThresholdRule
from repro.errors import ConfigurationError, RoundStateError
from repro.protocol.client import ProtocolClient, RoundConfig
from repro.protocol.enrollment import Enrollment
from repro.protocol.membership import EpochTransition
from repro.protocol.runner import RoundResult
from repro.statsutil.distributions import EmpiricalDistribution
from repro.store.history import HistoryStore


class _LiveRootHandle:
    """Delegates every attribute to the session's *current* root.

    ``advance_epoch`` rebinds ``session.root`` to a freshly wired
    aggregation endpoint; a server holding the old object by reference
    would keep answering remote queries from the stale pre-epoch root
    forever. Hosting this handle instead resolves the live root on
    every dispatch.
    """

    def __init__(self, session: ProtocolSession) -> None:
        self._session = session

    def __getattr__(self, name: str) -> Any:
        return getattr(self._session.root, name)


@dataclass
class WeeklySnapshot:
    """What the service retains from one weekly round."""

    week: int
    users_threshold: float
    distribution: EmpiricalDistribution
    round_result: RoundResult

    def to_spec(self) -> Dict[str, Any]:
        """JSON-serializable form (see :mod:`repro.protocol.net.spec`):
        the HTTP plane's snapshot-query payload."""
        from repro.protocol.net.spec import snapshot_to_spec
        return snapshot_to_spec(self)

    @classmethod
    def from_spec(cls, spec: Dict[str, Any],
                  config: RoundConfig) -> "WeeklySnapshot":
        """Inverse of :meth:`to_spec`; the embedded round result's
        aggregate is reconstructed bit-identically."""
        from repro.protocol.net.spec import snapshot_from_spec
        return snapshot_from_spec(spec, config)


class BackendService:
    """Operates weekly aggregation rounds and serves their outputs.

    Construct with an epoch-aware enrollment (``enrollment=...`` or
    :meth:`from_enrollment`) to unlock :meth:`advance_epoch` — the
    between-weeks membership rotation that re-keys only users whose
    clique changed instead of re-running enrollment.
    """

    def __init__(self, config: RoundConfig,
                 clients: Optional[Sequence[ProtocolClient]] = None,
                 store: "Union[HistoryStore, str, None]" = None,
                 users_rule: ThresholdRule = ThresholdRule.MEAN,
                 settings: Optional[SessionConfig] = None,
                 enrollment: Optional[Enrollment] = None,
                 session_name: str = "backend") -> None:
        if enrollment is not None:
            if clients is not None:
                raise ConfigurationError(
                    "pass clients or enrollment, not both (an enrollment "
                    "serves its own client population)")
            clients = enrollment.clients
        if clients is None:
            raise ConfigurationError(
                "BackendService needs clients or an enrollment")
        self.config = config
        self.clients = list(clients)
        # ``store`` is a HistoryStore or a path for one; none given
        # keeps the service's history in memory.
        self._owns_store = store is None or isinstance(store, str)
        if store is None:
            store = HistoryStore()
        elif isinstance(store, str):
            store = HistoryStore(store)
        self.store: HistoryStore = store
        #: One long-lived session serves every weekly round: endpoints
        #: are wired once per epoch and each round drains every mailbox,
        #: so the shared transport cannot accumulate stale broadcasts
        #: across a multi-week deployment. ``settings`` wires it (see
        #: :class:`repro.api.SessionConfig`); the threshold rule is the
        #: service's own ``users_rule``.
        settings = replace(settings if settings is not None
                           else SessionConfig(),
                           threshold_rule=users_rule.compute)
        if enrollment is not None:
            self.session = ProtocolSession.create(enrollment,
                                                  settings=settings)
        else:
            self.session = ProtocolSession(config, self.clients, settings)
        # Epoch-aware sessions additionally record their full round /
        # epoch lifecycle, making the service's session crash-resumable
        # (plain client lists carry no enrollment identity to persist).
        if self.session.membership is not None:
            self.session.attach_store(self.store, name=session_name,
                                      own=False)
        #: Serializes session operations against the served root
        #: endpoint: :meth:`run_week` / :meth:`advance_epoch` / the
        #: :attr:`users_rule` setter hold it, and the :meth:`serve_root`
        #: server dispatches remote frames under the same lock, so a
        #: query can never observe (or corrupt) an in-flight round —
        #: nor interleave frames with a rule swap on the root proxy's
        #: single request/reply socket. Created before the first
        #: ``users_rule`` assignment below, which already takes it.
        self._ops_lock = threading.Lock()
        self.users_rule = users_rule
        self.transport = self.session.transport
        self._root_server = None
        self._snapshots: Dict[int, WeeklySnapshot] = {}
        for client in self.clients:
            self.store.enroll_user(client.user_id, week=0,
                                   blinding_index=client.blinding.user_index)

    @classmethod
    def from_enrollment(cls, enrollment: Enrollment,
                        **kwargs: Any) -> "BackendService":
        """Epoch-capable service over an enrollment's population."""
        return cls(enrollment.config, enrollment=enrollment, **kwargs)

    @property
    def users_rule(self) -> ThresholdRule:
        """The weekly threshold rule. Assignable between weeks (the
        pre-session service rebuilt its round wiring per week, so rule
        changes took effect; the persistent session honors that by
        forwarding to the aggregation root)."""
        return self._users_rule

    @users_rule.setter
    def users_rule(self, rule: ThresholdRule) -> None:
        self._users_rule = rule
        # Under the ops lock: with subprocess aggregators this is a
        # SET_RULE frame exchange on the root proxy's socket, which must
        # not interleave with a served SUMMARY query's frames.
        with self._ops_lock:
            self.session.root.threshold_rule = rule.compute

    def advance_epoch(self, joins: Sequence[str] = (),
                      leaves: Sequence[str] = (),
                      week: Optional[int] = None) -> EpochTransition:
        """Rotate membership between weekly rounds.

        Forwards to :meth:`repro.api.ProtocolSession.advance_epoch`
        (minimal re-shard, key material reused, aggregators re-wired in
        place) and keeps the service's bookkeeping in step: joiners are
        enrolled in the metadata store under ``week`` (default: the next
        week after the last one run) and :attr:`clients` reflects the
        new roster.
        """
        with self._ops_lock:
            transition = self.session.advance_epoch(joins=joins,
                                                    leaves=leaves)
        self.clients = list(self.session.clients)
        if week is None:
            week = (max(self._snapshots) + 1) if self._snapshots else 0
        by_id = {c.user_id: c for c in self.clients}
        known = set(self.store.known_users())
        for user_id in transition.left:
            self.store.mark_departed(user_id, week=week)
        for user_id in transition.joined:
            if user_id in known:  # a rejoin reactivates its old record
                self.store.mark_rejoined(user_id)
            else:
                self.store.enroll_user(
                    user_id, week=week,
                    blinding_index=by_id[user_id].blinding.user_index)
        return transition

    def run_week(self, week: int) -> WeeklySnapshot:
        """Execute the aggregation round for ``week`` and persist stats."""
        self.session.note_week(week)
        with self._ops_lock:
            result = self.session.run_round(week)
        snapshot = WeeklySnapshot(
            week=week, users_threshold=result.users_threshold,
            distribution=result.distribution, round_result=result)
        self._snapshots[week] = snapshot
        self.store.save_weekly_stats(
            week, result.users_threshold,
            len(result.reported_users),
            len(result.missing_users),
            list(result.distribution.values))
        # Clients start a fresh observation window after reporting.
        for client in self.clients:
            client.reset_window()
        return snapshot

    # ------------------------------------------------------------------
    # Query interface (what extensions ask for)
    # ------------------------------------------------------------------
    def snapshot(self, week: int) -> WeeklySnapshot:
        try:
            return self._snapshots[week]
        except KeyError:
            raise RoundStateError(f"no round was run for week {week}") from None

    def users_threshold(self, week: int) -> float:
        return self.snapshot(week).users_threshold

    def estimated_users(self, week: int, ad_id: int) -> float:
        """CMS estimate of #Users for one ad ID in a past week."""
        return float(self.snapshot(week).round_result.aggregate.query(ad_id))

    @property
    def weeks_run(self) -> List[int]:
        return sorted(self._snapshots)

    # ------------------------------------------------------------------
    # Network hosting
    # ------------------------------------------------------------------
    def serve_root(self, host: str = "127.0.0.1",
                   port: int = 0) -> Tuple[str, int]:
        """Put the aggregation root behind a listening TCP port.

        Starts an :class:`~repro.protocol.net.EndpointServer` on a
        daemon thread hosting this service's live root endpoint and
        speaking the length-prefixed frame protocol of
        :mod:`repro.protocol.net`. A remote party — an extension host,
        a monitoring probe — connects with
        :meth:`~repro.protocol.net.ProcessEndpointProxy.connect` and
        fetches the finalized
        :class:`~repro.protocol.endpoint.RoundSummary` of the last week
        that ran. The surface is **query-only**: SUMMARY is the sole
        accepted frame kind; lifecycle, rule-swap and shutdown frames
        are refused. Returns the bound ``(host, port)``.

        The hosted object is the session's root as-is: when the session
        runs with ``aggregator_procs``, this server fronts the root
        *proxy*, chaining the query through to the root's own process.
        """
        from repro.protocol.net import EndpointServer
        if self._root_server is not None:
            raise RoundStateError(
                "the root aggregator is already being served "
                f"at {self._root_server.address}")
        # The server dispatches remote frames under the same lock the
        # weekly rounds hold, so queries serialize against rounds (and,
        # with subprocess aggregators, against the root proxy's single
        # request/reply socket). The served surface is query-only
        # (SUMMARY frames): a remote peer must not be able to inject
        # round lifecycle calls, swap the threshold rule, or stop the
        # service. The live-root handle tracks epoch advances, which
        # rebind the session's root endpoint.
        from repro.protocol.net import frames
        self._root_server = EndpointServer(
            _LiveRootHandle(self.session),
            host=host, port=port,
            lock=self._ops_lock,
            allowed_kinds=frozenset({frames.SUMMARY}))
        return self._root_server.start()

    @property
    def root_address(self) -> Optional[Tuple[str, int]]:
        """Where :meth:`serve_root` is listening (None when not serving)."""
        return (self._root_server.address
                if self._root_server is not None else None)

    def close(self) -> None:
        """Stop serving and release the session's owned resources (plus
        the history store, when this service opened it itself)."""
        if self._root_server is not None:
            self._root_server.stop()
            self._root_server = None
        self.session.close()
        if self._owns_store:
            self.store.close()

    def __enter__(self) -> "BackendService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
