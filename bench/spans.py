"""Span recording from *outside* the program.

Spans inside ``src/`` are a later issue; here the benchmark wraps the
program's parties in its own delegating proxies — a
:class:`~repro.protocol.endpoint.ProtocolEndpoint` wrapper per tier
(clients / clique / regional / root) and a transport subclass — that
call only public methods. Spans stay in memory until the run ends. A
layer's *self* time is its span minus the part its children cover, so
the driver loop's own cost falls out as the round span's self time.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.protocol.aggregator import (
    CliqueAggregator,
    RegionalAggregator,
    RootAggregator,
)
from repro.protocol.endpoint import Outbox, ProtocolEndpoint, RoundSummary
from repro.protocol.net import SocketTransport
from repro.protocol.transport import InMemoryTransport

#: Span/tier name -> the module ("layer") whose time it is.
LAYER_OF = {
    "clients": "protocol.client|protocol.army",
    "clique": "protocol.aggregator (clique tier)",
    "regional": "protocol.aggregator (regional tier)",
    "root": "protocol.aggregator (root tier)",
    "transport": "protocol.transport|protocol.net.transport",
    "round": "protocol.runner",
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the causing span, -1 for an operation's root
    op_id: int


class Tracer:
    """In-memory span log; free (one attribute test) while disabled."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self.counts: Dict[str, int] = {}
        self._stack: List[int] = []
        self._op_id = -1

    @property
    def next_op_id(self) -> int:
        """The ``op_id`` the next root span will open."""
        return self._op_id + 1

    def begin(self, name: str) -> int:
        if not self._stack:
            self._op_id += 1
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent,
                               self._op_id))
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError("spans must close in LIFO order")

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def self_times(self) -> Dict[int, Dict[str, float]]:
        """op id -> span name -> summed self time (seconds)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        per_op: Dict[int, Dict[str, float]] = {}
        for index, span in enumerate(self.spans):
            own = (span.end - span.start) - child_time[index]
            names = per_op.setdefault(span.op_id, {})
            names[span.name] = names.get(span.name, 0.0) + own
        return per_op

    def to_json(self) -> Dict[str, Any]:
        return {"spans": [[s.name, s.start, s.end, s.parent, s.op_id]
                          for s in self.spans],
                "span_fields": ["name", "start", "end", "parent", "op_id"],
                "counts": dict(self.counts)}


def tier_of(endpoint: ProtocolEndpoint) -> str:
    if isinstance(endpoint, RootAggregator):
        return "root"
    if isinstance(endpoint, RegionalAggregator):
        return "regional"
    if isinstance(endpoint, CliqueAggregator):
        return "clique"
    return "clients"


class EndpointProxy(ProtocolEndpoint):
    """Delegates every lifecycle hook to ``inner`` inside a tier span."""

    def __init__(self, inner: ProtocolEndpoint, tracer: Tracer) -> None:
        self.inner = inner
        self.tier = tier_of(inner)
        self.tracer = tracer
        self.endpoint_id = inner.endpoint_id

    def _spanned(self, hook, *args) -> Any:
        if not self.tracer.enabled:
            return hook(*args)
        index = self.tracer.begin(self.tier)
        try:
            return hook(*args)
        finally:
            self.tracer.end(index)

    def on_round_start(self, round_id: int) -> Outbox:
        return self._spanned(self.inner.on_round_start, round_id)

    def on_message(self, sender: str, message: Any) -> Outbox:
        return self._spanned(self.inner.on_message, sender, message)

    def on_idle(self, round_id: int) -> Outbox:
        return self._spanned(self.inner.on_idle, round_id)

    def on_round_end(self, round_id: int) -> None:
        return self._spanned(self.inner.on_round_end, round_id)

    def round_summary(self) -> RoundSummary:
        return self.inner.round_summary()


class _TracedSendReceive:
    """Mixin: ``send``/``receive`` under a ``transport`` span."""

    tracer: Tracer

    def send(self, sender: str, recipient: str, message: Any) -> bool:
        if not self.tracer.enabled:
            return super().send(sender, recipient, message)
        index = self.tracer.begin("transport")
        try:
            return super().send(sender, recipient, message)
        finally:
            self.tracer.end(index)
            self.tracer.count("messages")

    def receive(self, endpoint: str) -> Optional[Tuple[str, Any]]:
        if not self.tracer.enabled:
            return super().receive(endpoint)
        index = self.tracer.begin("transport")
        try:
            return super().receive(endpoint)
        finally:
            self.tracer.end(index)


class TracedMemoryTransport(_TracedSendReceive, InMemoryTransport):
    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self.tracer = tracer


class TracedSocketTransport(_TracedSendReceive, SocketTransport):
    def __init__(self, tracer: Tracer) -> None:
        super().__init__()
        self.tracer = tracer


def traced_transport(name: str, tracer: Tracer) -> InMemoryTransport:
    if name == "socket":
        return TracedSocketTransport(tracer)
    if name == "memory":
        return TracedMemoryTransport(tracer)
    raise ValueError(f"no traced transport for {name!r}")
