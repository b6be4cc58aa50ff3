"""Failure modes of the networked transport layer.

The contract: truncated, oversized and zero-length frames are refused by
the socket transport's pump (an oversized one from its length prefix
alone), every malformed echo is a :class:`~repro.errors.ProtocolError`
and never a bare exception or a hang, settings no flush could work under
are refused at construction, an aggregator's refusal reaches the caller
in its own class on every transport, and a round with a slow endpoint
still quiesces.
"""

import select
import socket
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ProtocolSession, SessionConfig, run_private_round
from repro.errors import (
    ConfigurationError,
    ProtocolError,
    RoundStateError,
    TransportError,
)
from repro.protocol import wire
from repro.protocol.aggregator import clique_endpoint_id
from repro.protocol.client import RoundConfig
from repro.protocol.enrollment import enroll_users
from repro.protocol.messages import BlindedReport, CellVector
from repro.protocol.net import ChaosSocketTransport, SocketTransport, frames
from repro.protocol.transport import InMemoryTransport, WireTransport
from test_protocol_socket_flush import Tampered, opened

CONFIG = RoundConfig(cms_depth=2, cms_width=64, cms_seed=7, id_space=200)
USER_IDS = [f"user-{i:02d}" for i in range(8)]
REPORT = BlindedReport(user_id="a", round_id=0,
                       cells=CellVector(range(100)))


def enrolled(num_cliques=2, seed=5):
    enrollment = enroll_users(USER_IDS, CONFIG, seed=seed, use_oprf=False,
                              num_cliques=num_cliques)
    for i, client in enumerate(enrollment.clients):
        client.observe_ad(f"ad-{i % 5}")
        client.observe_ad(f"ad-{(i + 2) % 5}")
    return enrollment


def echo_instead(transport, data):
    """The queued frames' echo becomes ``data``: the pump's reader sees
    those bytes, then the end of the stream."""
    def send_then_close(chunk):
        transport._out._sock.sendall(data)
        transport._out._sock.shutdown(socket.SHUT_WR)
        return len(chunk)

    transport._out = Tampered(transport._out, send=send_then_close)


# ---------------------------------------------------------------------------
# Framing: truncation and oversize are rejected
# ---------------------------------------------------------------------------

def test_truncated_frame_is_rejected():
    """The stream ends 20 bytes into a frame: the pump names the
    truncation and closes the transport, never delivering a prefix."""
    with opened(SocketTransport()) as transport:
        transport.send("a", "b", REPORT)
        frame = transport._queue[0][-1]
        echo_instead(transport, frame[:20])
        with pytest.raises(TransportError, match="closed mid-frame"):
            transport.receive("b")
        assert transport._closed
        assert transport.pending("b") == 0


def test_an_echo_cut_inside_its_head_is_a_transport_error():
    """Three bytes of a five-byte head, then the end of the stream: not
    enough to read a length from, and still a named truncation."""
    with opened(SocketTransport()) as transport:
        transport.send("a", "b", REPORT)
        frame = transport._queue[0][-1]
        echo_instead(transport, frame[:3])
        with pytest.raises(TransportError, match="closed mid-frame"):
            transport.receive("b")
        assert transport._closed


def test_an_echo_of_another_frame_is_refused():
    """A whole, well-formed frame of another length is not the frame the
    pump wrote: refused from its head, not decoded as the wrong message."""
    other = BlindedReport(user_id="a", round_id=0,
                          cells=CellVector(range(101)))
    with opened(SocketTransport()) as transport:
        transport.send("a", "b", REPORT)
        echo_instead(transport, frames.pack_frame(
            frames.SHIP, wire.encode(other)))
        with pytest.raises(ProtocolError, match="expected .* of kind SHIP"):
            transport.receive("b")
        assert transport._closed
        assert transport.pending("b") == 0


def test_oversized_frame_is_rejected_before_allocation():
    # A length prefix claiming 1 GiB: refused from the prefix alone.
    with opened(SocketTransport(max_frame=1 << 20)) as transport:
        transport.send("a", "b", REPORT)
        echo_instead(transport, frames.HEAD.pack(1 << 30, frames.SHIP))
        tracemalloc.start()
        try:
            with pytest.raises(ProtocolError, match="exceeds"):
                transport.receive("b")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20
        assert transport._closed


def test_zero_length_frame_is_rejected():
    with opened(SocketTransport()) as transport:
        transport.send("a", "b", REPORT)
        echo_instead(transport, frames.HEAD.pack(0, frames.SHIP))
        with pytest.raises(ProtocolError, match="below the 1-byte minimum"):
            transport.receive("b")
        assert transport._closed


def test_socket_transport_enforces_its_frame_ceiling():
    enrollment = enrolled(num_cliques=1)
    transport = SocketTransport(max_frame=64)
    try:
        with pytest.raises(ProtocolError, match="exceeds"):
            run_private_round(
                CONFIG, enrollment.clients, round_id=0,
                settings=SessionConfig(transport=transport))
        # Refused at send, from the encoded size alone: nothing was
        # queued and not a byte reached the socket.
        assert not transport._queue
        assert select.select([transport._in], [], [], 0.05)[0] == []
    finally:
        transport.close()


@pytest.mark.parametrize("transport_class",
                         [SocketTransport, ChaosSocketTransport])
@pytest.mark.parametrize("kwargs", [
    {"max_frame": 0}, {"max_frame": -5}, {"max_frame": 2.5},
    {"max_frame": True}, {"max_frame": "64"},
    {"timeout": 0}, {"timeout": -1}, {"timeout": float("nan")},
    {"timeout": float("inf")}, {"timeout": "30"},
], ids=repr)
def test_socket_transport_refuses_settings_it_cannot_work_under(
        transport_class, kwargs):
    """A frame ceiling that refuses every send, or a deadline every flush
    stalls past (or that ``select`` cannot take), is refused at
    construction, before a socket is opened."""
    with pytest.raises(ConfigurationError, match=next(iter(kwargs))):
        transport_class(**kwargs)


# ---------------------------------------------------------------------------
# The pump under mutated echoes
# ---------------------------------------------------------------------------

_FUZZ_MAX_FRAME = 1024


@st.composite
def _mutated(draw, valid: bytes) -> bytes:
    """``valid`` after one to four byte flips, cuts, inserts or deletes."""
    data = bytearray(valid)
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        op = draw(st.sampled_from(["flip", "cut", "insert", "delete"]))
        at = draw(st.integers(min_value=0, max_value=len(data)))
        if op == "flip" and at < len(data):
            data[at] ^= draw(st.integers(min_value=1, max_value=255))
        elif op == "cut":
            del data[at:]
        elif op == "insert":
            data[at:at] = draw(st.binary(min_size=1, max_size=8))
        elif op == "delete":
            del data[at:at + draw(st.integers(min_value=1, max_value=4))]
    return bytes(data)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_the_pump_on_mutated_echoes_delivers_or_refuses(data):
    """Every mutated echo of a shipped frame, followed by the end of the
    stream, is a ProtocolError (TransportError included) that closes the
    transport, or the one message its bytes decode to — never a bare
    exception, a hang or an allocation near a refused length."""
    report = BlindedReport(user_id="a", round_id=data.draw(
        st.integers(min_value=0, max_value=2**32 - 1)),
        cells=CellVector(data.draw(st.lists(
            st.integers(min_value=0, max_value=2**32 - 1), max_size=32))))
    with opened(SocketTransport(max_frame=_FUZZ_MAX_FRAME,
                                timeout=0.1)) as transport:
        transport.send("a", "b", report)
        frame = transport._queue[0][-1]
        mutated = data.draw(_mutated(frame))
        echo_instead(transport, mutated)
        tracemalloc.start()
        try:
            delivered = transport.drain("b")
        except ProtocolError:
            assert transport._closed
            delivered = None
        finally:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
    assert peak < 2 * _FUZZ_MAX_FRAME + (1 << 20)
    if delivered is not None:
        # The pump reads the one frame it sent, and bytes past it never.
        assert len(mutated) >= len(frame)
        [(sender, message)] = delivered
        assert sender == "a"
        assert message == wire.decode(mutated[frames.HEAD.size:len(frame)])


# ---------------------------------------------------------------------------
# Slow endpoints: the round still quiesces
# ---------------------------------------------------------------------------

def test_slow_client_endpoint_over_sockets_still_quiesces(monkeypatch):
    import types

    session = ProtocolSession.create(
        USER_IDS, CONFIG, SessionConfig(transport="socket"), seed=5,
        use_oprf=False, num_cliques=2)
    try:
        for i, client in enumerate(session.clients):
            client.observe_ad(f"ad-{i % 5}")
        laggard = session.clients[0]
        original = laggard.on_message

        def slow_on_message(self, sender, message):
            time.sleep(0.05)
            return original(sender, message)

        laggard.on_message = types.MethodType(slow_on_message, laggard)
        session.drop_users([session.clients[1].user_id])
        result = session.run_round(0)
        assert result.recovery_round_used
        assert session.clients[1].user_id in result.missing_users
    finally:
        session.close()


def test_slow_aggregator_over_sockets_still_quiesces():
    """Clique 0's aggregator takes 20 ms per message: the round waits for
    it and ends with the in-memory reference's result."""
    import types

    reference = run_private_round(CONFIG, enrolled(2).clients, round_id=0)
    with ProtocolSession(CONFIG, enrolled(2).clients,
                         SessionConfig(transport="socket")) as session:
        [laggard] = [endpoint for endpoint in session._runner.endpoints
                     if endpoint.endpoint_id == clique_endpoint_id(0)]
        original = laggard.on_message

        def slow_on_message(self, sender, message):
            time.sleep(0.02)
            return original(sender, message)

        laggard.on_message = types.MethodType(slow_on_message, laggard)
        started = time.monotonic()
        result = session.run_round(0)
        assert time.monotonic() - started >= 0.02 * 4
    assert result.aggregate.cells == reference.aggregate.cells
    assert result.distribution.values == reference.distribution.values
    assert result.users_threshold == reference.users_threshold


@pytest.mark.parametrize("transport_class",
                         [InMemoryTransport, WireTransport, SocketTransport],
                         ids=["memory", "wire", "socket"])
def test_a_refused_report_keeps_its_class_on_every_transport(
        transport_class):
    """A clique aggregator's refusal reaches the round's caller as the
    aggregator raised it: crossing the codec and a TCP connection does
    not turn a RoundStateError into a transport or codec error. The
    refusal strands no mail: every mailbox it left undelivered stays
    marked, the next ``deliver_pending`` delivers it, and the round
    closes with every mailbox drained."""
    transport = transport_class()
    try:
        session = ProtocolSession(CONFIG, enrolled(2).clients,
                                  SessionConfig(transport=transport))
        # Opening queues every client's honest report, clique 1's too.
        session.open_round(0)
        rogue = BlindedReport(user_id="intruder", round_id=0,
                              cells=CellVector([0] * CONFIG.num_cells),
                              clique_id=0)
        transport.send("intruder", clique_endpoint_id(0), rogue)
        with pytest.raises(RoundStateError, match="unknown user 'intruder'"):
            session.deliver_pending()
        assert clique_endpoint_id(1) in transport.has_mail
        assert transport.pending(clique_endpoint_id(1)) == 4
        session.deliver_pending()
        assert transport.pending(clique_endpoint_id(1)) == 0
        while session.idle_phase(0):
            session.deliver_pending()
        result = session.close_round(0)
        assert all(transport.pending(mailbox) == 0
                   for mailbox in transport.endpoints)
        assert not transport.has_mail
    finally:
        close = getattr(transport, "close", None)
        if close is not None:
            close()
    reference = run_private_round(CONFIG, enrolled(2).clients, round_id=0)
    assert result.aggregate.cells == reference.aggregate.cells
    assert result.missing_users == []


def test_socket_transport_pump_survives_frames_larger_than_buffers():
    """A frame bigger than typical kernel socket buffers must round-trip
    (the pump interleaves reads and writes; a naive write-then-read
    would deadlock)."""
    big = RoundConfig(cms_depth=8, cms_width=65536, cms_seed=7,
                      id_space=200)  # 2 MiB of cells on the wire
    with SocketTransport() as transport:
        transport.register("a")
        transport.register("b")
        report = BlindedReport(user_id="a", round_id=0,
                               cells=CellVector(list(range(big.num_cells))))
        transport.send("a", "b", report)
        _, delivered = transport.receive("b")
        assert delivered == report


# ---------------------------------------------------------------------------
# Transport teardown is unconditionally safe
# ---------------------------------------------------------------------------

def test_socket_transport_close_is_idempotent():
    transport = SocketTransport()
    transport.register("a")
    transport.close()
    transport.close()  # double-close must be a no-op, not an OSError


def test_socket_transport_del_survives_partial_init():
    # __del__ on an instance whose __init__ never ran (the interpreter-
    # shutdown / failed-construction shape): no attributes exist, and
    # teardown still must not raise.
    transport = SocketTransport.__new__(SocketTransport)
    transport.__del__()


def test_socket_transport_del_after_close_is_silent():
    transport = SocketTransport()
    transport.close()
    transport.__del__()  # already closed: nothing left to do
