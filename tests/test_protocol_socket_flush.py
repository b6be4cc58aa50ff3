"""The socket transport's queued sends and per-destination flushes.

``SocketTransport.send`` frames and queues; the bytes cross the TCP pair
when a mailbox with frames in flight is read. The contract pinned here:
no reader can tell — deliveries, their order, the byte counters and the
transcript equal the eager :class:`WireTransport`'s over any interleaving
of the transport API — while a round costs a handful of flushes instead
of one pump per message, oversized frames are refused before a byte is
written, and a flush that fails mid-stream closes the transport instead
of leaving a desynchronised TCP pair behind.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.api import ProtocolSession, SessionConfig
from repro.errors import ProtocolError, TransportError
from repro.protocol.client import RoundConfig
from repro.protocol.messages import (
    BlindedReport,
    CellVector,
    MissingClientsNotice,
    ThresholdBroadcast,
)
from repro.protocol.net import (
    ChaosSocketTransport,
    FaultPlan,
    LinkFault,
    SocketTransport,
    frames,
)
from repro.protocol.net.transport import _CHUNK
from repro.protocol.transport import WireTransport

CONFIG = RoundConfig(cms_depth=2, cms_width=64, cms_seed=7, id_space=200)
BOXES = ("a", "b", "c")
ALIASES = ("x", "y")


def broadcast(round_id=0):
    return ThresholdBroadcast(round_id=round_id, users_threshold=2.5)


def opened(transport):
    """``transport`` with the three mailboxes registered."""
    for name in BOXES:
        transport.register(name)
    return transport


def assert_closed(transport):
    with pytest.raises(TransportError, match="is closed"):
        transport.send("a", "b", broadcast())


# ---------------------------------------------------------------------------
# (i) Generated interleavings: indistinguishable from the eager wire rung
# ---------------------------------------------------------------------------

MESSAGES = st.one_of(
    st.builds(ThresholdBroadcast, round_id=st.integers(0, 9),
              users_threshold=st.floats(0, 100)),
    st.builds(MissingClientsNotice, round_id=st.integers(0, 9),
              missing_indexes=st.lists(st.integers(0, 50), max_size=4)
              .map(tuple)),
    st.builds(BlindedReport, user_id=st.sampled_from(BOXES),
              round_id=st.integers(0, 9),
              cells=st.lists(st.integers(0, 2**32 - 1), max_size=8)
              .map(CellVector)),
)
NAMES = st.sampled_from(BOXES)
STEPS = st.one_of(
    st.tuples(st.just("send"), NAMES, st.sampled_from(BOXES + ALIASES),
              MESSAGES),
    st.tuples(st.sampled_from(("receive", "drain", "pending")), NAMES),
    st.tuples(st.just("register_alias"), st.sampled_from(ALIASES), NAMES),
)


def apply(transport, step):
    """One API call; an unroutable send reads as its error's text."""
    try:
        return getattr(transport, step[0])(*step[1:])
    except TransportError as exc:
        return str(exc)


@settings(max_examples=60, deadline=None)
@given(st.lists(STEPS, max_size=40))
def test_any_interleaving_matches_the_wire_transport(steps):
    wire_t = opened(WireTransport(record_transcript=True))
    with opened(SocketTransport(record_transcript=True)) as socket_t:
        for step in steps:
            assert apply(socket_t, step) == apply(wire_t, step)
        for name in BOXES:
            assert socket_t.drain(name) == wire_t.drain(name)
        assert dict(socket_t.bytes_sent) == dict(wire_t.bytes_sent)
        assert dict(socket_t.messages_sent) == dict(wire_t.messages_sent)
        assert socket_t.total_bytes == wire_t.total_bytes
        assert socket_t.transcript == wire_t.transcript


# ---------------------------------------------------------------------------
# (ii) A round is a handful of flushes, not one pump per message
# ---------------------------------------------------------------------------

class CountingSocketTransport(SocketTransport):
    flushes = 0

    def _flush(self):
        self.flushes += 1
        super()._flush()


def test_three_tier_round_with_recovery_is_a_handful_of_flushes():
    user_ids = [f"user-{i:03d}" for i in range(200)]
    results = {}
    counting = CountingSocketTransport()
    for name, transport in (("wire", WireTransport()), ("socket", counting)):
        with ProtocolSession.create(
                user_ids, CONFIG,
                SessionConfig(transport=transport, fan_in=10), seed=5,
                use_oprf=False, num_cliques=100) as session:
            for i, client in enumerate(session.clients):
                client.observe_ad(f"ad-{i % 7}")
            session.drop_users([user_ids[3]])
            results[name] = session.run_round(0)
    assert results["socket"].recovery_round_used
    assert results["socket"].missing_users == results["wire"].missing_users
    assert results["socket"].aggregate.cells == results["wire"].aggregate.cells
    assert results["socket"].total_messages \
        == results["wire"].total_messages > 300
    assert 0 < counting.flushes <= 8


# ---------------------------------------------------------------------------
# (iii) Queued frames larger than the socket buffers cannot deadlock
# ---------------------------------------------------------------------------

def test_three_big_queued_reports_round_trip_in_one_flush():
    big = RoundConfig(cms_depth=8, cms_width=65536, cms_seed=7,
                      id_space=200)  # 2 MiB of cells on the wire, each
    reports = [BlindedReport(user_id="a", round_id=r,
                             cells=CellVector(range(r, r + big.num_cells)))
               for r in range(3)]
    with opened(CountingSocketTransport()) as transport:
        for report in reports:
            transport.send("a", "b", report)
        assert transport.flushes == 0
        assert [message for _, message in transport.drain("b")] == reports
        assert transport.flushes == 1


def test_a_flush_holds_the_tier_once():
    """~1,000 queued 4 KiB frames leave the queue in ``_chunk`` batches
    as they are written: at its peak a flush holds the frames, the
    messages decoded so far and a few chunks of buffers, never a second
    copy of the whole tier joined up front."""
    cells = CellVector(np.arange(1024, dtype=np.uint32))
    reports = [BlindedReport(user_id=f"user-{i:04d}", round_id=0,
                             cells=cells) for i in range(1000)]
    with opened(SocketTransport()) as transport:
        tracemalloc.start()
        try:
            for report in reports:
                transport.send("a", "b", report)
            frames_total = sum(len(frame) for *_, frame in transport._queue)
            tracemalloc.reset_peak()
            delivered = transport.drain("b")
            decoded, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert [message for _, message in delivered] == reports
    assert frames_total > 1000 * 4096
    # The frames are gone once written, so what a flush leaves traced
    # is the decoded messages (and their mailbox).
    assert peak < frames_total + decoded + 4 * _CHUNK


# ---------------------------------------------------------------------------
# (iv) Refused before a byte is written; a failed flush closes the rung
# ---------------------------------------------------------------------------

def test_over_ceiling_frame_is_refused_at_send_and_nothing_queued():
    with opened(SocketTransport(max_frame=64)) as transport:
        report = BlindedReport(user_id="a", round_id=0,
                               cells=CellVector(range(64)))
        with pytest.raises(ProtocolError, match="exceeds"):
            transport.send("a", "b", report)
        assert transport.total_messages == 0
        assert not transport._queue
        assert transport.pending("b") == 0
        # The refusal desynchronised nothing: the rung still works.
        transport.send("a", "b", broadcast())
        assert transport.receive("b") == ("a", broadcast())


class Tampered:
    """A socket end with some methods replaced (``select`` still sees
    the real descriptor)."""

    def __init__(self, sock, **methods):
        self._sock = sock
        self.__dict__.update(methods)

    def __getattr__(self, name):
        return getattr(self._sock, name)


def test_stalled_flush_closes_the_transport_keeping_completed_frames():
    with opened(SocketTransport(timeout=0.2)) as transport:
        for round_id in range(3):
            transport.send("a", "b", broadcast(round_id))
        # The writer jams half way through the second frame.
        budget = [len(transport._queue[0][-1]) * 3 // 2]
        real_send = transport._out.send

        def jamming_send(data):
            if not budget[0]:
                raise BlockingIOError
            sent = real_send(data[:budget[0]])
            budget[0] -= sent
            return sent

        transport._out = Tampered(transport._out, send=jamming_send)
        with pytest.raises(TransportError, match="stalled"):
            transport.pending("b")
        # The pair is desynchronised (half a frame unwritten), so it is
        # never written to again ...
        assert_closed(transport)
        # ... while what completed before the failure stays delivered.
        assert transport.drain("b") == [("a", broadcast(0))]
        transport.close()  # idempotent after the error path closed it


def test_peer_close_mid_flush_closes_the_transport():
    with opened(SocketTransport()) as transport:
        transport.send("a", "b", broadcast())
        transport._in = Tampered(transport._in, recv=lambda count: b"")
        with pytest.raises(TransportError, match="closed mid-frame"):
            transport.receive("b")
        assert_closed(transport)


def test_bad_echoed_kind_closes_the_transport():
    with opened(SocketTransport()) as transport:
        transport.send("a", "b", broadcast())
        *route, frame = transport._queue[0]
        transport._queue[0] = (*route, frame[:4] + b"\x00" + frame[5:])
        with pytest.raises(ProtocolError, match="of kind 0, expected .* SHIP"):
            transport.receive("b")
        assert_closed(transport)


def test_codec_error_mid_flush_closes_the_transport():
    with opened(SocketTransport()) as transport:
        for round_id in range(2):
            transport.send("a", "b", broadcast(round_id))
        *route, frame = transport._queue[1]
        transport._queue[1] = (
            *route, frames.pack_frame(frames.SHIP, frame[5:-1]))
        with pytest.raises(ProtocolError, match="length mismatch"):
            transport.receive("b")
        assert transport.drain("b") == [("a", broadcast(0))]
        assert_closed(transport)


def test_faulty_link_ships_alone_after_the_queue_ahead_of_it():
    plan = FaultPlan(links={("a", "c"): LinkFault(latency_s=0.001)})
    with opened(ChaosSocketTransport(
            plan, record_transcript=True)) as transport:
        transport.send("a", "b", broadcast(0))  # clean link: queued
        assert transport.transcript == []
        transport.send("a", "c", broadcast(1))  # faulty link: shipped now
        assert [to for _, to, _ in transport.transcript] == ["b", "c"]
        assert transport.events["delayed"] == 1
        assert not transport._queue


def test_close_drops_queued_frames():
    transport = opened(SocketTransport())
    transport.send("a", "b", broadcast())
    transport.close()
    transport.close()
    assert transport.pending("b") == 0
    assert transport.messages_sent["a"] == 1  # billed at send, as ever
