"""The transport-agnostic driver for message-driven protocol rounds.

The driver owns no protocol logic. :class:`ProtocolRunner` opens the
round on every endpoint, delivers until no endpoint has mail, fires the
idle hooks that model deployment phase-timeouts, and repeats until every
endpoint is quiet. It serves endpoints synchronously (every handler is,
so an event loop would have nothing to overlap), in registration order,
and only those the transport marks as holding mail: delivering one
remote message, as the HTTP plane does, costs that message's work alone.

Invariants the driver enforces (and the old inline coordinator did not):

* an unknown or unroutable message **raises**
  :class:`~repro.errors.ProtocolError` instead of being dropped;
* every mailbox — including every client's — is fully drained by the
  end of a round, so a long-lived transport cannot accumulate unread
  ``ThresholdBroadcast`` backlogs across a multi-week session.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import islice
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ProtocolError
from repro.protocol.aggregator import (
    CliqueAggregator,
    RegionalAggregator,
    RootAggregator,
    plan_aggregation_tree,
)
from repro.protocol.army import ClientArmy
from repro.protocol.client import ProtocolClient, RoundConfig
from repro.protocol.endpoint import (
    Outbox,
    ProtocolEndpoint,
    RoundSummary,
    ThresholdRuleFn,
    mean_threshold,
)
from repro.protocol.membership import MembershipManager
from repro.protocol.transport import InMemoryTransport


@dataclass
class RoundResult(RoundSummary):
    """Outcome of one protocol round: the root's summary plus the
    round's §7.1 byte accounting. ``total_bytes`` and
    ``total_messages`` count this round's traffic only (from its
    ``open_round`` to its ``close_round``), not the transport's running
    totals."""

    total_bytes: int
    total_messages: int


class ClientPopulation:
    """Per-user client objects behind the population interface
    (``members()``, ``user_ids``, ``endpoints``, ``register_mailboxes``)
    that :class:`~repro.protocol.army.ClientArmy` and
    :class:`RemotePopulation` also offer, so one function wires the
    aggregation tree for all three."""

    def __init__(self, clients: Sequence[ProtocolClient]) -> None:
        if not clients:
            raise ProtocolError("a round needs at least one client")
        self.endpoints: List[ProtocolClient] = list(clients)
        self.user_ids = [c.user_id for c in self.endpoints]
        if len(set(self.user_ids)) != len(self.user_ids):
            raise ProtocolError("duplicate client user_ids")

    def members(self) -> Dict[int, Dict[str, int]]:
        """clique id -> {user id -> blinding index}."""
        members: Dict[int, Dict[str, int]] = {}
        for client in self.endpoints:
            members.setdefault(client.clique_id, {})[client.user_id] = \
                client.blinding.user_index
        return members

    def register_mailboxes(self, transport: InMemoryTransport) -> None:
        """Nothing to add: the runner registers every endpoint's."""


class RemotePopulation:
    """Members whose clients run in another process (the HTTP plane's):
    no in-process endpoint, the tree wired from an object-backend
    ``membership`` alone, and one mailbox per member where server-to-
    client mail waits until polled. A live view of the membership's
    epoch, so an epoch advance re-wires the same object."""

    endpoints: Tuple[ProtocolEndpoint, ...] = ()

    def __init__(self, membership: MembershipManager) -> None:
        self.membership = membership
        self.config = membership.config

    @property
    def user_ids(self) -> List[str]:
        return list(self.membership.epoch.user_ids)

    def members(self) -> Dict[int, Dict[str, int]]:
        return ClientPopulation(self.membership.clients).members()

    def register_mailboxes(self, transport: InMemoryTransport) -> None:
        for user_id in self.user_ids:
            transport.register(user_id)


#: The population interface's three implementations.
Population = Union[ClientPopulation, ClientArmy, RemotePopulation]
#: What the wiring functions accept: a client list or a population.
Clients = Union[Sequence[ProtocolClient], ClientArmy, RemotePopulation]


def as_population(clients: Clients) -> Population:
    """The one population interface, selected by the object's type."""
    if isinstance(clients, (ClientArmy, RemotePopulation)):
        return clients
    return ClientPopulation(clients)


def build_aggregation_tree(
        config: RoundConfig, members: Dict[int, Dict[str, int]],
        client_ids: Sequence[str],
        threshold_rule: ThresholdRuleFn = mean_threshold,
        fan_in: Optional[int] = None,
) -> Tuple[List[ProtocolEndpoint], RootAggregator]:
    """Wire the aggregation tree — the one topology, and the same for
    both client backends (it is built from ``members`` alone).

    One :class:`~repro.protocol.aggregator.CliqueAggregator` per clique
    in ``members`` (an unsharded population is one clique: the paper's
    single back-end) feeding the
    :class:`~repro.protocol.aggregator.RootAggregator`; with ``fan_in``
    set and more cliques than that, a regional tier (or several) merges
    partials on the way up so that no endpoint — root included — ever
    collects more than ``fan_in`` feeds (see
    :func:`~repro.protocol.aggregator.plan_aggregation_tree`). Clients
    need no wiring: a client's uplink is a function of its clique id.
    Returns ``(aggregation endpoints, root)``.
    """
    plan = plan_aggregation_tree(sorted(members), fan_in)
    cliques: List[ProtocolEndpoint] = [
        CliqueAggregator(clique_id, config, index_of,
                         root_id=plan.clique_parent[clique_id])
        for clique_id, index_of in sorted(members.items())]
    regionals: List[ProtocolEndpoint] = [
        RegionalAggregator(node.region_id, node.level, config,
                           node.child_ids, node.parent_id)
        for node in plan.nodes()]
    root = RootAggregator(config, list(plan.root_children),
                          list(client_ids), threshold_rule=threshold_rule)
    return [*cliques, *regionals, root], root


class ProtocolRunner:
    """Synchronous round driver over any mailbox transport."""

    #: Safety valve: a correct round quiesces in a handful of cycles; a
    #: buggy endpoint that keeps emitting must not hang the process.
    _MAX_CYCLES = 10_000

    def __init__(self, endpoints: Sequence[ProtocolEndpoint],
                 root: ProtocolEndpoint,
                 transport: Optional[InMemoryTransport] = None) -> None:
        self.endpoints = list(endpoints)
        if not self.endpoints:
            raise ProtocolError("a runner needs at least one endpoint")
        ids = [e.endpoint_id for e in self.endpoints]
        if len(set(ids)) != len(ids):
            raise ProtocolError(f"duplicate endpoint ids: {sorted(ids)[:5]}")
        self._position = {endpoint_id: i for i, endpoint_id in enumerate(ids)}
        if root not in self.endpoints:
            raise ProtocolError("root must be one of the endpoints")
        self.root = root
        self.transport = transport or InMemoryTransport()
        for endpoint in self.endpoints:
            self.transport.register(endpoint.endpoint_id)
        #: The transport's (bytes, messages) when the open round opened.
        self._opened_at = (0, 0)

    def _dispatch(self, sender_id: str, outbox: Outbox) -> None:
        """Send an endpoint's outbox; an unregistered recipient raises
        :class:`~repro.errors.TransportError` (unroutable = violation)."""
        send = self.transport.send
        for recipient, message in outbox:
            send(sender_id, recipient, message)

    def run_round(self, round_id: int) -> RoundResult:
        """Drive one complete round; returns once every endpoint is quiet.

        Raises :class:`~repro.errors.ProtocolError` for unknown message
        types, unroutable recipients, or a round that will not quiesce;
        :class:`~repro.errors.MissingReportError` when an incomplete
        recovery makes the aggregate unreleasable.
        """
        self.open_round(round_id)
        for _ in range(self._MAX_CYCLES):
            self.deliver_pending()
            if not self.idle_phase(round_id):
                return self.close_round(round_id)
        raise ProtocolError(f"round {round_id} did not quiesce")

    # ------------------------------------------------------------------
    # The four phases ``run_round`` loops over. A caller whose clients
    # are remote (the HTTP plane) steps them through its
    # ``ProtocolSession`` when its remote traffic dictates.
    # ------------------------------------------------------------------
    def open_round(self, round_id: int) -> None:
        """Start the round on every endpoint and send what they emit."""
        self._opened_at = (self.transport.total_bytes,
                           self.transport.total_messages)
        for endpoint in self.endpoints:
            self._dispatch(endpoint.endpoint_id,
                           endpoint.on_round_start(round_id))

    def deliver_pending(self) -> None:
        """Deliver until no endpoint has mail, in registration order.

        A pass visits the endpoints the transport marks as holding mail
        (``has_mail``): one after the cursor that gets mail is visited
        in this pass, one at or before it in the next. The marks live on
        the transport, so a handler that raises strands no mail.
        """
        has_mail, position = self.transport.has_mail, self._position
        receive, send = self.transport.receive, self.transport.send
        for _ in range(self._MAX_CYCLES):
            marked = position.keys() & has_mail.keys()
            due = sorted(position[endpoint_id] for endpoint_id in marked)
            if not due:
                return
            while due:
                index = heappop(due)
                endpoint = self.endpoints[index]
                endpoint_id = endpoint.endpoint_id
                handle = endpoint.on_message
                # The visit ends by unmarking this mailbox; the marks its
                # sends added are the last keys of the ordered marks.
                kept = len(has_mail) - 1
                item = receive(endpoint_id)
                while item is not None:
                    for recipient, message in handle(*item):
                        send(endpoint_id, recipient, message)
                    item = receive(endpoint_id)
                added = len(has_mail) - kept
                for mailbox in (islice(reversed(has_mail), added) if added else ()):
                    later = position.get(mailbox, -1)
                    if later > index:
                        heappush(due, later)
        raise ProtocolError("delivery did not quiesce")

    def idle_phase(self, round_id: int) -> bool:
        """Fire every endpoint's phase timeout; True when any emitted."""
        emitted = False
        dispatch = self._dispatch
        for endpoint in self.endpoints:
            outbox = endpoint.on_idle(round_id)
            if outbox:
                dispatch(endpoint.endpoint_id, outbox)
                emitted = True
        return emitted

    def close_round(self, round_id: int) -> RoundResult:
        """End the round on every endpoint and return its result.

        The root's summary is read *before* any ``on_round_end``: an
        unfinalized root raises here with every endpoint untouched, so
        the round stays open and a later ``close_round`` succeeds.
        """
        summary: RoundSummary = self.root.round_summary()
        pending = self.transport.pending
        for endpoint in self.endpoints:
            endpoint.on_round_end(round_id)
            if pending(endpoint.endpoint_id):
                raise ProtocolError(
                    f"mailbox {endpoint.endpoint_id!r} not drained at "
                    f"round end")
        opened_bytes, opened_messages = self._opened_at
        return RoundResult(
            **vars(summary),
            total_bytes=self.transport.total_bytes - opened_bytes,
            total_messages=self.transport.total_messages - opened_messages)
