"""The privacy-preserving reporting protocol (paper §6), message-driven.

Lifecycle — enroll, rounds, advance epoch, rounds
-------------------------------------------------
A deployment's population is not fixed: users enroll, churn out, and
come back between reporting windows. The protocol layer models that as
an **epoch lifecycle**:

1. **Enroll (epoch 0)** — :func:`~repro.protocol.enrollment.enroll_users`
   generates a DH key pair per user, performs the clique-scoped key
   exchange and wires every user's blinding generator. The returned
   :class:`~repro.protocol.enrollment.Enrollment` carries the key
   material that later epochs reuse.
2. **Rounds** — per reporting window, every client maps the ad URLs it
   saw to ad IDs (via the OPRF), encodes the *set* of IDs into a
   count-min sketch, blinds every cell with its additive share of zero,
   and uploads the blinded sketch. The aggregation side sums cell-wise
   modulo ``2**32``; missing clients trigger the clique-local recovery
   round; the ``#Users`` distribution and ``Users_th`` are recovered
   from the aggregate and broadcast. Every round derives each pair's pad
   afresh from its shared secret and the round id; an in-process session
   squeezes it once for both ends of the pair, the first end folding it
   into the second end's pending blinding sum
   (:class:`~repro.crypto.blinding.PadStreamProvider`).
3. **Advance epoch** — between windows,
   :class:`~repro.protocol.membership.MembershipManager.advance_epoch`
   applies ``joins`` and ``leaves``. Re-sharding is minimal and
   deterministic: only users whose clique changed are re-keyed, every
   surviving pair secret is reused, and a secret is derived per
   genuinely new pair — never the full U·(U/k−1) exchange again.
4. **More rounds** — round ids keep increasing across epochs (pads are
   keyed by ``(pair, round)`` and pairs outlive epochs, so ids never
   repeat), and any epoch's aggregate is bit-identical to what a fresh
   enrollment of the same roster would produce.

**Anonymity-set caveat.** A blinded report hides among its clique's
*reporting* members. Churn that shrinks a clique — leaves without joins,
or dropouts within a round — shrinks that anonymity set; in the limit, a
clique reduced to one reporting survivor exposes that survivor's raw
sketch (inherent to additive blinding; the unsharded protocol behaves
the same at ``U - 1`` dropouts). The membership layer refuses rosters
that cannot keep every clique at two members or more, and
:attr:`~repro.protocol.membership.Epoch.min_clique_size` is the number
deployments should watch when sizing ``num_cliques`` against expected
churn.

Architecture — endpoints, messages, one driver
----------------------------------------------
Every party is a reactive :class:`~repro.protocol.endpoint.
ProtocolEndpoint`: it holds a transport mailbox and acts only in response
to round-lifecycle hooks and incoming messages, returning its replies for
the driver to deliver. There is one aggregation topology, a tree
(:func:`~repro.protocol.runner.build_aggregation_tree`): one
:class:`~repro.protocol.aggregator.CliqueAggregator` per blinding clique
— each holding and checking its clique's reports and recovery
adjustments — feeds a
:class:`~repro.protocol.aggregator.RootAggregator` with
:class:`~repro.protocol.messages.PartialAggregate` messages, through
regional merge tiers when ``fan_in`` bounds the fan-out. Blinding
cancels per clique, so the combined aggregate is bit-identical to the
flat sum over every report while collection parallelizes per clique —
the seam for a multi-server deployment. The paper's single
honest-but-curious back-end is the k = 1 tree. A client's uplink is a
pure function of its clique id, so epoch advances re-wire only the
aggregator set as cliques gain and lose members.

One driver, :class:`~repro.protocol.runner.ProtocolRunner`, moves
messages synchronously until the round quiesces; it raises on unknown
message types and drains every mailbox before returning. How the parties
are wired — transport, threshold rule, client backend, tree
fan-in — is named and validated in exactly one place, the
:class:`repro.api.SessionConfig` value every layer above forwards.

Transports — a fidelity ladder
------------------------------
Endpoints never touch bytes; a transport does. The three rungs trade
realism for speed, and a session selects one by name
(``SessionConfig(transport="memory" | "wire" | "socket")``):

* :class:`~repro.protocol.transport.InMemoryTransport` — mailboxes of
  Python objects; byte accounting uses each message's ``size_bytes()``
  model. What simulations and most tests run on.
* :class:`~repro.protocol.transport.WireTransport` — every send
  round-trips the byte-exact codec in :mod:`repro.protocol.wire`
  (16-byte header, 4-byte big-endian cells) and bills the *actual*
  encoded size. All byte-exact transports share this one
  ``_carry`` accounting path and customize only the ``_ship``
  byte-moving hook, so transcript byte counts cannot drift between
  them.
* :class:`~repro.protocol.net.SocketTransport` — the same wire bytes
  queued as length-prefixed frames and flushed through a real localhost
  TCP connection when their mailbox is read (one flush per tier);
  truncation, oversize and framing bugs fail here, not in production.
* :class:`~repro.protocol.net.ChaosSocketTransport` — the socket rung
  under seeded hostile-WAN conditions: a
  :class:`~repro.protocol.net.FaultPlan` assigns each directed link a
  :class:`~repro.protocol.net.LinkFault` (latency, jitter, loss modelled
  as retransmit delay, connection drops, truncated frames, slow-loris
  trickle), injected inside the ``_ship`` hook so byte accounting is
  untouched and every run replays fault-for-fault from its seed. A plan
  rides only this transport
  (``SessionConfig(transport=ChaosSocketTransport(plan))``, or
  ``cli detect --chaos wan|lossy|hostile``).
* :mod:`repro.service` — the HTTP rung: the whole protocol exposed as a
  deployable service (``repro serve``). Remote processes drive real
  :class:`~repro.protocol.client.ProtocolClient` objects through a
  JSON-over-HTTP API with per-enrollment bearer tokens; every protocol
  message still crosses a byte-exact transport's
  ``_carry``/``_ship`` seam *under* the HTTP plane (the HTTP body
  carries the wire encoding; the service refuses ``transport="memory"``
  so parity never goes vacuous), which keeps HTTP-vs-socket byte parity
  assertable. The service takes a transport name, not a fault plan. See
  ``docs/service.md`` for routes and auth.

Every rung carries the session's one aggregation tree, which runs in the
operator's process; the devices-and-one-back-end shape of the paper's
Figure 1 across processes is the HTTP rung.

**Scale.** Two orthogonal levers take the same round to 100k+ users
with bit-identical results (``docs/scaling.md`` has the cost model and
the sweep methodology): the *batched client backend*
(:class:`~repro.protocol.army.ClientArmy`,
``ProtocolSession.create(..., SessionConfig(client_backend="batched"))``,
``cli detect
--clients batched``) replaces per-user client objects with one
struct-of-arrays endpoint that builds a whole clique's reports in a few
NumPy passes, and the *fan-in-bounded aggregation tree*
(:func:`~repro.protocol.aggregator.plan_aggregation_tree`,
``fan_in=...``) inserts :class:`~repro.protocol.aggregator.
RegionalAggregator` merge tiers so no endpoint — root included — ever
collects more than ``fan_in`` partials. Both reuse the existing wire
messages unchanged; the ``bench/`` workloads ``army_small_cliques`` and
``army_big_cliques`` time both.

**What survives which fault** (with ``transport="socket"`` or a
``ChaosSocketTransport``):

====================================  =================================
Fault                                 Outcome
====================================  =================================
Client dropout (any transport)        Survives — clique-local recovery
                                      round; anonymity set shrinks to
                                      the clique's reporting members.
Every client drops out                Fails that round cleanly — the
                                      root's ``MissingReportError``;
                                      it closes unrecorded, id spent.
WAN latency / jitter / loss           Survives, bit-identical — loss is
                                      retransmit delay; only time and
                                      byte-timing change.
Truncated frame / severed link        Fails fast — codec-level
                                      ``ProtocolError`` / transport
                                      ``TransportError``; nothing
                                      silently wrong.
HTTP client vanishes mid-round        Survives — the service's idle
(service plane)                       phase declares it missing; the
                                      clique recovery round runs; its
                                      threshold broadcast is accounted
                                      as undelivered, picked up at the
                                      next poll.
Report after the recovery notice      Refused before it is stored
named its user missing (e.g. a slow   (``RoundStateError``, HTTP 409);
HTTP client)                          the round releases the survivors'
                                      sum. Limit: a *lying* aggregator
                                      can name a user whose report it
                                      holds and so unmask it; double
                                      masking (Bonawitz et al., CCS
                                      2017) fixes that, out of scope
                                      for an honest-but-curious back-end.
HTTP request with a bad/stale token   Survives, state untouched — 401
(service plane)                       before any parsing or protocol
                                      mutation; revoked (post-leave)
                                      tokens rejected the same way.
Oversized / trickled HTTP request     Fails that request fast — length
(service plane)                       refused before allocation (413/
                                      431), per-request deadline kills
                                      slow-loris; the round is
                                      unaffected.
====================================  =================================

**Transport-independent guarantees.** Pad one-time-ness is enforced on
the *clients*: a per-round digest of the blinded cleartext
(``ProtocolClient._blinded_rounds``, ``ClientArmy._round_digests``)
refuses a *differing* rebuild under a spent round id, so no
transport choice can weaken it. Both guards hash the sorted flat cell
indexes of the counts, not the cells, and keep runs of consecutive
rounds that share a digest (:class:`~repro.protocol.client.
RoundDigests`), so their state grows with window changes, not rounds.
The clients also keep the floor of two reporters: a survivor answers a
recovery notice only if its clique keeps two reporters, and the honest
clique aggregator counts a lone reporter missing instead of asking, so
no released sum is one user's sketch. And the aggregate cells, #Users
distribution and threshold decisions are bit-identical on every rung —
in-process, over the wire codec and across sockets — including
dropout-recovery rounds and post-churn
epochs (``tests/test_protocol_net.py`` pins this down for k in {1, 4}).
What *does* change per transport is only cost: latency and the bytes
actually on the wire, which the §7.1 accounting measures.

**Entry point**: :mod:`repro.api` is the supported facade over all of
this — one constructor (:meth:`~repro.api.ProtocolSession.create`), one
driver, one settings value (:class:`~repro.api.SessionConfig`) —
including ``advance_epoch(joins=..., leaves=...)`` on a live session.
"""

from repro.protocol.messages import (
    BlindedReport,
    BlindingAdjustment,
    CleartextReport,
    MissingClientsNotice,
    PartialAggregate,
    PublicKeyAnnouncement,
    ThresholdBroadcast,
)
from repro.protocol.transport import InMemoryTransport, WireTransport
from repro.protocol.endpoint import (
    SERVER_ENDPOINT,
    ProtocolEndpoint,
    RoundSummary,
    mean_threshold,
)
from repro.protocol.client import ProtocolClient, RoundConfig
from repro.protocol.aggregator import CliqueAggregator, RootAggregator
from repro.protocol.runner import (
    ProtocolRunner,
    RoundResult,
    build_aggregation_tree,
)
from repro.protocol.enrollment import Enrollment, assign_cliques, enroll_users
from repro.protocol.membership import (
    Epoch,
    EpochTransition,
    MembershipManager,
)

__all__ = [
    "Enrollment",
    "assign_cliques",
    "enroll_users",
    "Epoch",
    "EpochTransition",
    "MembershipManager",
    "BlindedReport",
    "BlindingAdjustment",
    "CleartextReport",
    "MissingClientsNotice",
    "PartialAggregate",
    "PublicKeyAnnouncement",
    "ThresholdBroadcast",
    "InMemoryTransport",
    "WireTransport",
    "SERVER_ENDPOINT",
    "ProtocolEndpoint",
    "RoundSummary",
    "mean_threshold",
    "ProtocolClient",
    "RoundConfig",
    "CliqueAggregator",
    "RootAggregator",
    "ProtocolRunner",
    "RoundResult",
    "build_aggregation_tree",
]

