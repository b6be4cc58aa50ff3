"""Deterministic hostile-network fault injection for the socket transport.

The clean localhost pair of :class:`~repro.protocol.net.SocketTransport`
proves framing correctness; this module makes the same byte path *lie*
the way a WAN does. A :class:`FaultPlan` describes, per directed link
``(sender, recipient)``, a :class:`LinkFault` — latency, jitter,
packet-level loss (modelled as TCP retransmit delay), connection drops,
truncated frames and slow-loris byte trickle — and
:class:`ChaosSocketTransport` applies it inside the
:meth:`~repro.protocol.transport.WireTransport._ship` hook, so the
byte-accounting path of the transport ladder is untouched: counters
still bill ``len(wire.encode(message))`` and results stay bit-identical
whenever the fault is survivable.

Everything is **seed-driven and deterministic**: each link gets its own
:class:`random.Random` derived from ``sha256(seed | sender | recipient)``,
so a failing chaos run replays exactly, link by link, draw by draw —
the property the fault-injection tests rely on.

Fault semantics (what each knob does to one shipped frame):

``latency_s`` / ``jitter_s``
    Sleep ``latency_s + U(0, jitter_s)`` before the frame moves.
``loss_prob``
    Each "transmission" is lost with this probability and retried after
    ``retransmit_delay_s`` — TCP's view of packet loss: the frame still
    arrives (delayed), the round still completes bit-identically.
``sever_prob``
    The connection drops mid-frame: raises
    :class:`~repro.errors.TransportError`, the transport-layer analogue
    of a peer resetting the connection.
``truncate_prob``
    The frame arrives cut short: the *payload* is truncated before
    framing, so the codec on the delivery side raises the same
    :class:`~repro.errors.ProtocolError` a corrupted stream produces.
``trickle_bytes_per_s``
    Slow-loris: bytes dribble through the socket at this rate. The
    pump's per-frame deadline still applies, so a trickle slower than
    ``timeout`` surfaces as a bounded stall error, never a hang.

A plan is link faults only, and it rides its own transport: a session
takes it as ``SessionConfig(transport=ChaosSocketTransport(plan))``.
"""

from __future__ import annotations

import hashlib
import random
import time
from collections import Counter
from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.errors import ConfigurationError, TransportError
from repro.protocol.net.transport import _CHUNK, SocketTransport

#: A link key: (sender, recipient) endpoint names, either may be "*".
LinkKey = Tuple[str, str]

#: Cap on modelled retransmissions per frame so loss_prob=1.0 in a test
#: cannot spin forever; the frame is delivered after the final retry.
_MAX_RETRANSMITS = 8

#: Seconds of payload per trickle write (pacing quantum).
_TRICKLE_QUANTUM_S = 0.01


@dataclass(frozen=True)
class LinkFault:
    """WAN conditions for one directed link (all knobs default to off)."""

    latency_s: float = 0.0
    jitter_s: float = 0.0
    loss_prob: float = 0.0
    retransmit_delay_s: float = 0.02
    sever_prob: float = 0.0
    truncate_prob: float = 0.0
    trickle_bytes_per_s: float = 0.0

    def __post_init__(self) -> None:
        for name in ("loss_prob", "sever_prob", "truncate_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ConfigurationError(
                    f"LinkFault.{name} must be a probability in [0, 1], "
                    f"got {value!r}"
                )
        for name in (
            "latency_s",
            "jitter_s",
            "retransmit_delay_s",
            "trickle_bytes_per_s",
        ):
            value = getattr(self, name)
            if value < 0:
                raise ConfigurationError(
                    f"LinkFault.{name} must be >= 0, got {value!r}"
                )

    @property
    def is_noop(self) -> bool:
        return self == LinkFault()


class FaultPlan:
    """A seeded, per-link fault configuration for one hostile scenario.

    Parameters
    ----------
    seed:
        Root of every per-link RNG; two plans with the same seed and the
        same traffic inject byte-for-byte the same faults.
    default:
        The :class:`LinkFault` for links without an explicit entry.
    links:
        ``(sender, recipient) -> LinkFault`` overrides. Either side may
        be the wildcard ``"*"``; resolution is most-specific-first:
        exact pair, then ``(sender, "*")``, then ``("*", recipient)``,
        then ``default``.
    """

    def __init__(
        self,
        seed: int = 0,
        default: Optional[LinkFault] = None,
        links: Optional[Dict[LinkKey, LinkFault]] = None,
    ) -> None:
        self.seed = int(seed)
        self.default = default if default is not None else LinkFault()
        self.links: Dict[LinkKey, LinkFault] = {}
        for key, fault in (links or {}).items():
            if (
                not isinstance(key, tuple)
                or len(key) != 2
                or not all(isinstance(part, str) for part in key)
            ):
                raise ConfigurationError(
                    f"FaultPlan link keys are (sender, recipient) string "
                    f"pairs ('*' wildcards allowed), got {key!r}"
                )
            if not isinstance(fault, LinkFault):
                raise ConfigurationError(
                    f"FaultPlan link values must be LinkFault, got {fault!r}"
                )
            self.links[key] = fault
        self._rngs: Dict[LinkKey, random.Random] = {}

    # ------------------------------------------------------------------
    # Link resolution & determinism
    # ------------------------------------------------------------------
    def fault_for(self, sender: str, recipient: str) -> LinkFault:
        """Most-specific fault entry for one directed link."""
        for key in ((sender, recipient), (sender, "*"), ("*", recipient)):
            fault = self.links.get(key)
            if fault is not None:
                return fault
        return self.default

    def rng_for(self, sender: str, recipient: str) -> random.Random:
        """The link's private RNG (stable across calls, keyed by seed)."""
        key = (sender, recipient)
        rng = self._rngs.get(key)
        if rng is None:
            material = f"{self.seed}|{sender}|{recipient}".encode("utf-8")
            digest = hashlib.sha256(material).digest()
            rng = random.Random(int.from_bytes(digest[:8], "big"))
            self._rngs[key] = rng
        return rng

    # ------------------------------------------------------------------
    # Canned profiles (what the CLI's --chaos flag names)
    # ------------------------------------------------------------------
    @classmethod
    def _profile(cls, seed: int, overrides: Dict[str, Any],
                 **knobs: float) -> "FaultPlan":
        """A plan whose default :class:`LinkFault` is ``knobs``, each
        overridable by name; the other overrides go to the plan."""
        fault = LinkFault(**{name: overrides.pop(name, value)
                             for name, value in knobs.items()})
        return cls(seed=seed, default=fault, **overrides)

    @classmethod
    def wan(cls, seed: int = 0, **overrides: Any) -> "FaultPlan":
        """A plausible continental WAN: a few ms of latency and jitter,
        1% loss. Rounds complete bit-identically, just slower."""
        return cls._profile(seed, overrides, latency_s=0.002, jitter_s=0.002,
                            loss_prob=0.01, retransmit_delay_s=0.01)

    @classmethod
    def lossy(cls, seed: int = 0, **overrides: Any) -> "FaultPlan":
        """A congested path: heavy (20%) loss with longer retransmit
        delays. Still survivable — loss is delay, not data loss."""
        return cls._profile(seed, overrides, latency_s=0.001, jitter_s=0.003,
                            loss_prob=0.2, retransmit_delay_s=0.02)

    @classmethod
    def hostile(cls, seed: int = 0, **overrides: Any) -> "FaultPlan":
        """An actively bad network: more latency and jitter than
        :meth:`wan` and 10% loss."""
        return cls._profile(seed, overrides, latency_s=0.003, jitter_s=0.005,
                            loss_prob=0.1, retransmit_delay_s=0.02)


class ChaosSocketTransport(SocketTransport):
    """:class:`SocketTransport` with a :class:`FaultPlan` on every link.

    Faults are injected inside :meth:`_ship`, *after* encoding and
    *before* the frame crosses the TCP pair, so the single accounting
    path in :meth:`~repro.protocol.transport.WireTransport._carry`
    is untouched: byte counters, transcripts and (for survivable
    faults) round results are bit-identical to the clean transport.

    ``events`` counts what was injected (``delayed``, ``retransmits``,
    ``severed``, ``truncated``, ``trickled``) and
    ``injected_delay_s`` totals the artificial waiting — the telemetry
    the CLI prints after a ``--chaos`` run.
    """

    def __init__(
        self, plan: Optional[FaultPlan] = None, **kwargs: Any
    ) -> None:
        super().__init__(**kwargs)
        self.plan = plan if plan is not None else FaultPlan()
        self.events: Counter = Counter()
        self.injected_delay_s = 0.0

    def _ship(self, mailbox: str, sender: str, recipient: str, encoded: bytes) -> None:
        fault = self.plan.fault_for(sender, recipient)
        if fault.is_noop:
            return super()._ship(mailbox, sender, recipient, encoded)
        # A faulty link ships its frame alone, now (after whatever is queued
        # ahead of it): the fault hits exactly it and surfaces from this send.
        self._flush()
        rng = self.plan.rng_for(sender, recipient)

        delay = 0.0
        if fault.latency_s or fault.jitter_s:
            delay = fault.latency_s + (
                rng.uniform(0.0, fault.jitter_s) if fault.jitter_s else 0.0
            )
        if fault.loss_prob:
            retries = 0
            while retries < _MAX_RETRANSMITS and rng.random() < fault.loss_prob:
                retries += 1
            if retries:
                self.events["retransmits"] += retries
                delay += retries * fault.retransmit_delay_s
        if delay > 0.0:
            self.events["delayed"] += 1
            self.injected_delay_s += delay
            time.sleep(delay)

        if fault.sever_prob and rng.random() < fault.sever_prob:
            self.events["severed"] += 1
            raise TransportError(
                f"chaos: link {sender!r} -> {recipient!r} dropped the "
                f"connection mid-frame (seeded fault injection, seed "
                f"{self.plan.seed})"
            )
        if fault.truncate_prob and rng.random() < fault.truncate_prob:
            # Cut the payload, not the frame: the frame layer stays
            # consistent (the pump echoes a complete frame) and the
            # codec on the delivery side raises the truncation error a
            # corrupted stream would produce.
            encoded = encoded[:rng.randrange(1, max(2, len(encoded)))]
            self.events["truncated"] += 1
        elif fault.trickle_bytes_per_s:
            self.events["trickled"] += 1
            chunk = max(64, int(fault.trickle_bytes_per_s * _TRICKLE_QUANTUM_S))
            self._chunk = chunk
            self._write_pause = chunk / fault.trickle_bytes_per_s
        try:
            super()._ship(mailbox, sender, recipient, encoded)
            self._flush()
        finally:
            self._chunk = _CHUNK
            self._write_pause = 0.0

__all__ = [
    "ChaosSocketTransport",
    "FaultPlan",
    "LinkFault",
]
