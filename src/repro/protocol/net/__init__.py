"""Networked protocol transport: real sockets.

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
  ChaosSocketTransport(plan))``).

Every rung carries the session's one in-process aggregation tree; the
paper's devices-and-one-back-end shape across processes is the HTTP
plane (:mod:`repro.service`).

The guarantees the rest of the stack proves are transport-independent:
pad one-time-ness is guarded on the clients (a per-round digest of the
blinded cleartext refuses a differing rebuild under a spent round id),
and the aggregate / #Users distribution / threshold are bit-identical
across every rung of the ladder — the equivalence tests pin that down
for ``k in {1, 4}``, dropout-recovery rounds and post-churn epochs.
"""

from repro.protocol.net import frames
from repro.protocol.net.transport import SocketTransport
from repro.protocol.net.chaos import (
    ChaosSocketTransport,
    FaultPlan,
    LinkFault,
)

__all__ = [
    "ChaosSocketTransport",
    "FaultPlan",
    "LinkFault",
    "SocketTransport",
    "frames",
]
