"""In-memory message transport with byte accounting.

The real eyeWnder moves reports over HTTPS; the quantities §7.1 measures
are message counts and byte volumes, which an in-memory mailbox preserves
exactly. A transport only routes and meters: a user who went offline
before reporting is one whose client sends nothing (see
:meth:`~repro.api.ProtocolSession.drop_users`).
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Any, Deque, Dict, List, Optional, Tuple

from repro.errors import TransportError
from repro.protocol import wire


class InMemoryTransport:
    """Point-to-point mailboxes keyed by endpoint name.

    ``record_transcript=True`` keeps an append-only log of every
    *delivered* ``(sender, recipient, message)`` triple — the evidence
    the backend-equivalence tests compare. Off by default: a transcript
    grows without bound across a multi-week session.
    """

    def __init__(self, record_transcript: bool = False) -> None:
        self._mailboxes: Dict[str, Deque[Tuple[str, Any]]] = {}
        #: alias -> mailbox endpoint. Aliases let one endpoint receive
        #: traffic addressed to many protocol-level names: the batched
        #: client backend registers every hosted user id as an alias of
        #: its single mailbox, so aggregators keep addressing users by
        #: id (notices, threshold broadcasts) with no topology knowledge.
        self._aliases: Dict[str, str] = {}
        #: Mailboxes holding mail or frames in flight, in the order they
        #: were marked (by :meth:`send`; a :meth:`receive` that finds one
        #: empty or a :meth:`drain` unmarks it). Keys only: an ordered set.
        self.has_mail: Dict[str, None] = {}
        self.bytes_sent: Dict[str, int] = defaultdict(int)
        self.messages_sent: Dict[str, int] = defaultdict(int)
        self.transcript: Optional[List[Tuple[str, str, Any]]] = \
            [] if record_transcript else None

    def register(self, endpoint: str) -> None:
        """Create a mailbox; idempotent."""
        self._mailboxes.setdefault(endpoint, deque())

    def register_alias(self, alias: str, endpoint: str) -> None:
        """Route sends addressed to ``alias`` into ``endpoint``'s mailbox.

        The target mailbox must already be registered; an alias may be
        re-pointed (membership churn re-homes users) but must not shadow
        a real mailbox — that would silently steal its traffic.
        """
        if endpoint not in self._mailboxes:
            raise TransportError(f"unknown endpoint: {endpoint!r}")
        if alias in self._mailboxes:
            raise TransportError(
                f"alias {alias!r} would shadow a registered endpoint")
        self._aliases[alias] = endpoint

    def unregister_alias(self, alias: str) -> None:
        """Drop an alias; unknown aliases are a no-op."""
        self._aliases.pop(alias, None)

    @property
    def endpoints(self) -> List[str]:
        return sorted(self._mailboxes)

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def send(self, sender: str, recipient: str, message: Any) -> None:
        """Deliver ``message``.

        The single send path for every transport: routing and
        message/byte accounting live here and subclasses customize only
        :meth:`_carry`, so byte accounting cannot drift between them.
        """
        mailbox = recipient if recipient in self._mailboxes \
            else self._aliases.get(recipient)
        if mailbox is None:
            raise TransportError(f"unknown endpoint: {recipient!r}")
        self.has_mail[mailbox] = None
        nbytes = self._carry(mailbox, sender, recipient, message)
        self.messages_sent[sender] += 1
        self.bytes_sent[sender] += nbytes

    def _carry(self, mailbox: str, sender: str, recipient: str,
               message: Any) -> int:
        """Carry hook: get one routed message to ``mailbox``, return the
        bytes to bill (memory: the object itself, now, at ``size_bytes()``)."""
        self._deliver(mailbox, sender, recipient, message)
        try:
            size_bytes = message.size_bytes
        except AttributeError:
            return 0
        return size_bytes()

    def _deliver(self, mailbox: str, sender: str, recipient: str,
                 delivered: Any) -> None:
        """Append an arrived message to its mailbox and the transcript."""
        self._mailboxes[mailbox].append((sender, delivered))
        if self.transcript is not None:
            self.transcript.append((sender, recipient, delivered))

    def receive(self, endpoint: str) -> Optional[Tuple[str, Any]]:
        """Pop the oldest (sender, message) pair, or None if empty."""
        box = self._mailboxes.get(endpoint)
        if box is None:
            raise TransportError(f"unknown endpoint: {endpoint!r}")
        if box:
            return box.popleft()
        self.has_mail.pop(endpoint, None)
        return None

    def drain(self, endpoint: str) -> List[Tuple[str, Any]]:
        """Pop every pending message for ``endpoint``."""
        if endpoint not in self._mailboxes:
            raise TransportError(f"unknown endpoint: {endpoint!r}")
        box = self._mailboxes[endpoint]
        out = list(box)
        box.clear()
        self.has_mail.pop(endpoint, None)
        return out

    def pending(self, endpoint: str) -> int:
        if endpoint not in self._mailboxes:
            raise TransportError(f"unknown endpoint: {endpoint!r}")
        return len(self._mailboxes[endpoint])

    @property
    def total_bytes(self) -> int:
        return sum(self.bytes_sent.values())

    @property
    def total_messages(self) -> int:
        return sum(self.messages_sent.values())


class WireTransport(InMemoryTransport):
    """Transport that round-trips every message through the binary codec.

    Each send serializes the message with :mod:`repro.protocol.wire` and
    each delivery parses it back, so a full protocol round over this
    transport proves the byte-exact format carries everything the round
    needs. Byte accounting uses the *actual encoded size* rather than the
    ``size_bytes()`` model. Everything else — routing, mailboxes,
    accounting — is the base class's single send path.
    """

    def _carry(self, mailbox: str, sender: str, recipient: str,
               message: Any) -> int:
        """The single codec-and-accounting path for every byte-exact
        transport: encode once, :meth:`_ship` the routed bytes, bill
        ``len(encoded)``. Subclasses that move the bytes somewhere real
        override only :meth:`_ship`, so the byte counters cannot drift."""
        encoded = wire.encode(message)
        self._ship(mailbox, sender, recipient, encoded)
        return len(encoded)

    def _ship(self, mailbox: str, sender: str, recipient: str,
              encoded: bytes) -> None:
        """Byte-shipping hook: get ``encoded`` to the recipient's side and
        :meth:`_deliver` what the codec parses there (here: at once)."""
        self._deliver(mailbox, sender, recipient, wire.decode(encoded))
