"""Networked protocol transport: real sockets, real processes.

This package is the deployment-shaped layer of the protocol stack. The
transports below it are a fidelity ladder —

* :class:`~repro.protocol.transport.InMemoryTransport` moves Python
  objects between mailboxes (fast, what simulations use);
* :class:`~repro.protocol.transport.WireTransport` round-trips every
  message through the byte-exact codec in :mod:`repro.protocol.wire`;
* :class:`SocketTransport` (here) queues those same bytes as frames and
  flushes them through a real localhost TCP connection on mailbox reads;
* :class:`ChaosSocketTransport` makes those frames suffer — seeded,
  per-link WAN faults (latency, jitter, loss, drops, truncation,
  slow-loris trickle) described by a :class:`FaultPlan`, which rides
  only this transport (``SessionConfig(transport=
  ChaosSocketTransport(plan))``) —

and :class:`ProcessAggregatorPool` takes the remaining step: each
:class:`~repro.protocol.aggregator.CliqueAggregator` and the
:class:`~repro.protocol.aggregator.RootAggregator` run as separate OS
processes, each an :class:`EndpointServer` answering its one
:class:`ProcessEndpointProxy` in a blocking request/reply loop on a
loopback TCP port, driven by the unchanged round driver.
``SessionConfig(transport="socket", aggregator_procs=True)`` wires all
of it from the facade, one process per enrolled clique, and
``advance_epoch`` reconfigures the live processes without restarting
them.

The pool is also its workers' supervisor, and that is the production
failure story: given a restart budget
(``SessionConfig(aggregator_procs=True, max_restarts=n)``), workers
that crash, crash-loop or hang mid-round are respawned from their specs
and the round's exchanges are replayed, so the round completes
bit-identically instead of raising. The default budget is 0: the first
worker death fails the round fast. Nothing in this package schedules a
worker fault; a worker dies or wedges from outside, as a signal to its
pid.

The guarantees the rest of the stack proves are transport-independent:
pad one-time-ness is guarded on the clients (a per-round digest of the
blinded cleartext refuses a differing rebuild under a spent round id),
the hosted tree is the session's own tree behind proxies, and the
aggregate / #Users distribution / threshold are bit-identical across
every rung of the ladder — the equivalence tests pin that down for
``k in {1, 4}``, dropout-recovery rounds and post-churn epochs.
"""

from repro.protocol.net import frames
from repro.protocol.net.pool import ProcessAggregatorPool
from repro.protocol.net.proxy import ProcessEndpointProxy
from repro.protocol.net.server import EndpointServer
from repro.protocol.net.spec import (
    build_endpoint,
    clique_spec,
    resolve_rule,
    root_spec,
    rule_spec,
    summary_from_spec,
    summary_to_spec,
)
from repro.protocol.net.transport import SocketTransport
from repro.protocol.net.chaos import (
    ChaosSocketTransport,
    FaultPlan,
    LinkFault,
)

__all__ = [
    "ChaosSocketTransport",
    "EndpointServer",
    "FaultPlan",
    "LinkFault",
    "ProcessAggregatorPool",
    "ProcessEndpointProxy",
    "SocketTransport",
    "build_endpoint",
    "clique_spec",
    "frames",
    "resolve_rule",
    "root_spec",
    "rule_spec",
    "summary_from_spec",
    "summary_to_spec",
]
