"""The message-driven endpoint API of the protocol layer.

The paper's §6 protocol is a message exchange — report, missing-clients
notice, blinding adjustment, partial aggregate, threshold broadcast —
between reactive parties. A :class:`ProtocolEndpoint` is one such party:
it owns a transport mailbox, and everything it does happens in response
to either a round-lifecycle hook or an incoming message. Endpoints never
call each other; they *return* outbound ``(recipient, message)`` pairs
and the driver (:class:`~repro.protocol.runner.ProtocolRunner`) moves
them. That inversion is what makes the protocol
transport-agnostic: the same endpoints run over in-process mailboxes,
the byte-exact wire codec, or — the design seam — real sockets with one
process per endpoint.

Two endpoint roles exist:

* :class:`~repro.protocol.client.ProtocolClient` (or one
  :class:`~repro.protocol.army.ClientArmy` hosting every user) — uploads
  a blinded report when the round opens, answers notices with
  adjustments, records the threshold broadcast;
* the aggregation tree — one
  :class:`~repro.protocol.aggregator.CliqueAggregator` per blinding
  clique, an optional :class:`~repro.protocol.aggregator.
  RegionalAggregator` tier, and the
  :class:`~repro.protocol.aggregator.RootAggregator` that combines the
  partials, answers the #Users query and broadcasts the threshold.

An endpoint that receives a message type it has no business handling
raises :class:`~repro.errors.ProtocolError` — unknown traffic is a
protocol violation, never silently dropped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Tuple

from repro.errors import ProtocolError
from repro.sketch.countmin import CountMinSketch
from repro.statsutil.distributions import EmpiricalDistribution

#: Transport endpoint name of the aggregation root ("backend server" in
#: the paper's Figure 1).
SERVER_ENDPOINT = "backend-server"


def clique_endpoint_id(clique_id: int) -> str:
    """Canonical transport name of one clique's aggregator — and so the
    uplink of every client enrolled in that clique."""
    return f"clique-aggregator-{clique_id}"

#: What an endpoint hands back to the driver: messages to deliver.
Outbox = List[Tuple[str, Any]]

#: Threshold rule signature (paper §4.2 uses the distribution mean).
ThresholdRuleFn = Callable[[EmpiricalDistribution], float]


def mean_threshold(dist: EmpiricalDistribution) -> float:
    """Default threshold rule: the mean of the distribution (§4.2)."""
    return dist.mean


@dataclass
class RoundSummary:
    """What the aggregation root knows once a round has finalized."""

    round_id: int
    aggregate: CountMinSketch
    distribution: EmpiricalDistribution
    users_threshold: float
    reported_users: List[str]
    missing_users: List[str]
    recovery_round_used: bool


class ProtocolEndpoint:
    """One reactive party of the reporting protocol.

    Lifecycle, per round, as the driver sees it:

    1. :meth:`on_round_start` — the round opens; endpoints reset round
       state and may emit opening messages (clients upload reports).
    2. :meth:`on_message` — called once per delivered message, in
       delivery order; replies are returned, not sent.
    3. :meth:`on_idle` — called when the transport has quiesced (no
       message in flight anywhere). This models the real deployment's
       phase timeout: it is how an aggregator concludes "whoever has not
       reported by now is missing" and starts the recovery round, and
       later how it decides the recovery is complete. Returning an empty
       outbox means "nothing more to do"; the round ends when *every*
       endpoint is idle-quiet.
    4. :meth:`on_round_end` — bookkeeping hook after the round closed.
    """

    #: The endpoint's mailbox name on the transport.
    endpoint_id: str

    def on_round_start(self, round_id: int) -> Outbox:
        return []

    def on_message(self, sender: str, message: Any) -> Outbox:
        raise ProtocolError(
            f"endpoint {self.endpoint_id!r} cannot handle "
            f"{type(message).__name__} from {sender!r}")

    def on_idle(self, round_id: int) -> Outbox:
        return []

    def on_round_end(self, round_id: int) -> None:
        return None
