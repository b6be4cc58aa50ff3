"""Failure modes of the networked transport layer.

The satellite contract: an aggregator process crashing mid-round
surfaces :class:`~repro.errors.ProtocolError` (never a hang), truncated
and oversized frames are rejected at the framing layer, remote
exceptions re-raise as their original classes, and a round with an
injected slow endpoint still quiesces with a bit-identical result.
"""

import os
import select
import signal
import socket
import struct
import threading
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import ProtocolSession, SessionConfig, run_private_round
from repro.errors import ConfigurationError, ProtocolError, RoundStateError
from repro.protocol.aggregator import CliqueAggregator, clique_endpoint_id
from repro.protocol.client import RoundConfig
from repro.protocol.enrollment import enroll_users
from repro.protocol.messages import BlindedReport, CellVector
from repro.protocol.net import (
    ChaosSocketTransport,
    EndpointServer,
    ProcessAggregatorPool,
    ProcessEndpointProxy,
    SocketTransport,
    frames,
)

CONFIG = RoundConfig(cms_depth=2, cms_width=64, cms_seed=7, id_space=200)
USER_IDS = [f"user-{i:02d}" for i in range(8)]


def enrolled(num_cliques=2, seed=5):
    enrollment = enroll_users(USER_IDS, CONFIG, seed=seed, use_oprf=False,
                              num_cliques=num_cliques)
    for i, client in enumerate(enrollment.clients):
        client.observe_ad(f"ad-{i % 5}")
        client.observe_ad(f"ad-{(i + 2) % 5}")
    return enrollment


# ---------------------------------------------------------------------------
# Process crashes surface as errors, not hangs
# ---------------------------------------------------------------------------

def test_clique_process_crash_mid_round_raises():
    session = ProtocolSession.create(
        USER_IDS, CONFIG, SessionConfig(aggregator_procs=True), seed=5,
        use_oprf=False, num_cliques=2)
    try:
        for i, client in enumerate(session.clients):
            client.observe_ad(f"ad-{i % 5}")
        os.kill(session.aggregator_pool.pids[clique_endpoint_id(0)],
                signal.SIGKILL)
        started = time.monotonic()
        with pytest.raises(ProtocolError, match="died|closed|unreachable"):
            session.run_round(0)
        # "not a hang": the crash surfaces immediately (EOF on the
        # connection), nowhere near the 60s exchange timeout.
        assert time.monotonic() - started < 30
    finally:
        session.close()


def test_root_process_crash_mid_round_raises():
    session = ProtocolSession.create(
        USER_IDS, CONFIG, SessionConfig(aggregator_procs=True), seed=5,
        use_oprf=False, num_cliques=2)
    try:
        for i, client in enumerate(session.clients):
            client.observe_ad(f"ad-{i % 5}")
        session.run_round(0)  # a healthy round first
        from repro.protocol.endpoint import SERVER_ENDPOINT
        os.kill(session.aggregator_pool.pids[SERVER_ENDPOINT], signal.SIGKILL)
        with pytest.raises(ProtocolError, match="died|closed|unreachable"):
            session.run_round(1)
    finally:
        session.close()


# ---------------------------------------------------------------------------
# Framing: truncation and oversize are rejected
# ---------------------------------------------------------------------------

def test_truncated_frame_is_rejected():
    left, right = socket.socketpair()
    try:
        frame = frames.pack_frame(frames.MSG, b"x" * 100)
        left.sendall(frame[:20])
        left.close()
        with pytest.raises(ProtocolError, match="truncated|closed"):
            frames.recv_frame(right)
    finally:
        right.close()


def test_oversized_frame_is_rejected_before_allocation():
    left, right = socket.socketpair()
    try:
        # A length prefix claiming 1 GiB: rejected from the prefix alone.
        left.sendall(struct.pack(">I", 1 << 30))
        with pytest.raises(ProtocolError, match="exceeds"):
            frames.recv_frame(right, max_frame=1 << 20)
    finally:
        left.close()
        right.close()


def test_zero_length_frame_is_rejected():
    left, right = socket.socketpair()
    try:
        left.sendall(struct.pack(">I", 0))
        with pytest.raises(ProtocolError, match="below the 1-byte minimum"):
            frames.recv_frame(right)
    finally:
        left.close()
        right.close()


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


def test_worker_connection_drops_after_oversized_frame():
    """A framing violation desyncs the stream; the server must drop the
    connection (and the proxy must raise), not limp along."""
    pool = ProcessAggregatorPool(CONFIG)
    try:
        proxies, root = pool.ensure({0: {"u1": 0, "u2": 1}}, ["u1", "u2"])
        proxy = proxies[0]
        # Bypass the proxy API: a length prefix above the worker's
        # ceiling is refused from the prefix alone, before any payload.
        proxy._sock.sendall(struct.pack(">I", frames.DEFAULT_MAX_FRAME + 1))
        with pytest.raises(ProtocolError):
            proxy.on_idle(0)
    finally:
        pool.close()


def test_non_utf8_name_is_an_unmarked_protocol_error():
    with pytest.raises(ProtocolError, match="not UTF-8") as excinfo:
        frames.unpack_name(b"\x00\x02\xff\xfe" + b"payload")
    assert not excinfo.value.peer_dead and not excinfo.value.timed_out


# ---------------------------------------------------------------------------
# Frame readers under mutated valid frames
# ---------------------------------------------------------------------------

_FUZZ_MAX_FRAME = 1024

_VALID_BODIES = st.one_of(
    st.builds(lambda r: (frames.ROUND_START, frames.pack_round(r)),
              st.integers(min_value=0, max_value=2**32 - 1)),
    st.builds(lambda name, rest: (frames.OUT, frames.pack_name(name) + rest),
              st.text(max_size=12), st.binary(max_size=48)),
    st.builds(lambda spec: (frames.RECONFIGURE, frames.pack_json(spec)),
              st.dictionaries(st.text(max_size=6),
                              st.none() | st.integers() | st.text(max_size=6),
                              max_size=4)),
)


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


def _mutated_frames():
    return _VALID_BODIES.flatmap(
        lambda kind_body: _mutated(frames.pack_frame(*kind_body)))


def _mutated_bodies():
    return _VALID_BODIES.flatmap(lambda kind_body: _mutated(kind_body[1]))


@settings(max_examples=150, deadline=None)
@given(_mutated_frames())
def test_recv_frame_on_mutated_frames_parses_or_refuses(data):
    """Every mutated frame, written whole and then closed, is a
    ProtocolError or a frame whose re-packing is a prefix of the bytes —
    never a bare exception, a timeout (the writer closed, so waiting is a
    hang) or an allocation beyond ``max_frame``."""
    left, right = socket.socketpair()
    try:
        left.sendall(data)
        left.close()
        tracemalloc.start()
        try:
            frame = frames.recv_frame(right, max_frame=_FUZZ_MAX_FRAME,
                                      deadline=time.monotonic() + 5)
        except ProtocolError as exc:
            assert not exc.timed_out, exc
            frame = None
        finally:
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        assert peak < 2 * _FUZZ_MAX_FRAME + 16 * 1024
        if frame is not None:
            kind, body = frame
            packed = frames.pack_frame(kind, body)
            assert len(body) < _FUZZ_MAX_FRAME
            assert data.startswith(packed)
    finally:
        right.close()


@settings(max_examples=300, deadline=None)
@given(_mutated_bodies())
def test_body_readers_on_mutated_bodies_parse_or_refuse(body):
    try:
        round_id = frames.unpack_round(body)
    except ProtocolError:
        pass
    else:
        assert frames.pack_round(round_id) == body
    try:
        name, rest = frames.unpack_name(body)
    except ProtocolError:
        pass
    else:
        assert frames.pack_name(name) + rest == body
    try:
        spec = frames.unpack_json(body)
    except ProtocolError:
        pass
    else:
        assert isinstance(spec, dict)


def test_deeply_nested_json_body_is_a_protocol_error():
    with pytest.raises(ProtocolError, match="malformed JSON"):
        frames.unpack_json(b"[" * 100_000)


# ---------------------------------------------------------------------------
# Remote exceptions keep their class
# ---------------------------------------------------------------------------

def test_remote_exception_reraises_original_class():
    aggregator = CliqueAggregator(0, CONFIG, {"u1": 0, "u2": 1})
    server = EndpointServer(aggregator)
    host, port = server.start()
    try:
        proxy = ProcessEndpointProxy.connect(
            host, port, aggregator.endpoint_id, config=CONFIG)
        proxy.on_round_start(1)
        rogue = BlindedReport(user_id="intruder", round_id=1,
                              cells=CellVector([0] * CONFIG.num_cells),
                              clique_id=0)
        with pytest.raises(RoundStateError, match="intruder|not enrolled"):
            proxy.on_message("intruder", rogue)
        # The connection survives an ERR exchange: the endpoint keeps
        # serving the round afterwards (an all-missing clique releases
        # its zero partial to the root on idle).
        outbox = proxy.on_idle(1)
        assert len(outbox) == 1
        proxy.close()
    finally:
        server.stop()


def test_remote_error_mentioning_truncation_is_not_misread_as_crash():
    """Regression: a relayed remote error whose message happens to
    contain 'truncated' (e.g. the wire codec's 'cell payload truncated')
    must re-raise as the remote error — not be rewrapped by the proxy's
    EOF heuristic as 'process died mid-round' when the process is alive."""
    import struct

    aggregator = CliqueAggregator(0, CONFIG, {"u1": 0, "u2": 1})
    server = EndpointServer(aggregator)
    host, port = server.start()
    try:
        proxy = ProcessEndpointProxy.connect(
            host, port, aggregator.endpoint_id, config=CONFIG)
        proxy.on_round_start(1)
        # A BlindedReport frame whose header is consistent but whose
        # cell vector claims more cells than the payload carries: the
        # hosted endpoint's wire.decode raises 'cell payload truncated'.
        payload = struct.pack(">H", 2) + b"u1" + struct.pack(">I", 1000)
        header = struct.pack(">2sBBIIH2x", b"eW", 1, 2, 1, len(payload), 0)
        with pytest.raises(ProtocolError) as excinfo:
            proxy._call(frames.MSG,
                        frames.pack_name("u1") + header + payload)
        assert "cell payload truncated" in str(excinfo.value)
        assert "died mid-round" not in str(excinfo.value)
        # The connection survived: the endpoint still serves the round.
        assert len(proxy.on_idle(1)) == 1
        proxy.close()
    finally:
        server.stop()


def _scripted_peer(replies):
    """A loopback peer that answers request *n* with the raw bytes
    ``replies[n]``, then closes. Returns ``(port, cleanup)``."""
    listener = socket.create_server(("127.0.0.1", 0))
    accepted = []

    def serve():
        conn, _ = listener.accept()
        accepted.append(conn)
        for reply in replies:
            if frames.recv_frame(conn, eof_ok=True) is None:
                break
            conn.sendall(reply)
        conn.close()

    threading.Thread(target=serve, daemon=True).start()

    def cleanup():
        listener.close()
        for conn in accepted:
            conn.close()

    return listener.getsockname()[1], cleanup


@pytest.mark.parametrize("budget", [None, 2])
def test_malformed_reply_from_a_live_peer_is_not_misread_as_crash(budget):
    """Regression: a *complete* OUT frame whose body fails to parse
    ('frame body truncated inside its name field') comes from a live
    peer. It must surface as the codec's own error — not be rewrapped
    as 'died mid-round', which under a restart budget would SIGKILL a
    healthy worker, replay into the same malformed reply and report a
    crash loop, hiding the codec bug."""
    pool = None
    if budget is not None:
        pool = ProcessAggregatorPool(CONFIG, max_restarts=budget)
    port, cleanup = _scripted_peer([
        frames.pack_frame(frames.OUT, b"\x00\x64abc"),
        frames.pack_frame(frames.DONE),
    ])
    try:
        proxy = ProcessEndpointProxy.connect(
            "127.0.0.1", port, "live-peer", config=CONFIG, timeout=5.0,
            pool=pool)
        with pytest.raises(ProtocolError) as excinfo:
            proxy.on_idle(0)
        assert "truncated inside its name field" in str(excinfo.value)
        assert "died mid-round" not in str(excinfo.value)
        assert not excinfo.value.peer_dead
        if pool is not None:
            assert pool.restarts == {}
        # The connection was not torn down: the next exchange works.
        assert proxy.on_idle(0) == []
        proxy.close()
    finally:
        cleanup()


def test_out_frame_with_a_non_utf8_recipient_is_a_live_peer_error():
    """Regression: an OUT frame whose recipient is not UTF-8 escaped
    ``_exchange`` as a bare ``UnicodeDecodeError``. It is the live peer's
    malformed reply: an unmarked ProtocolError, connection kept."""
    port, cleanup = _scripted_peer([
        frames.pack_frame(frames.OUT, b"\x00\x02\xff\xfe" + b"payload"),
        frames.pack_frame(frames.DONE),
    ])
    try:
        proxy = ProcessEndpointProxy.connect(
            "127.0.0.1", port, "live-peer", config=CONFIG, timeout=5.0)
        with pytest.raises(ProtocolError, match="not UTF-8") as excinfo:
            proxy.on_idle(0)
        assert not excinfo.value.peer_dead
        assert proxy.on_idle(0) == []
        proxy.close()
    finally:
        cleanup()


@pytest.mark.parametrize("reply", [
    b"",                                              # EOF before a frame
    struct.pack(">I", 64) + bytes([frames.DONE]),     # close mid-frame
], ids=["eof", "truncated-read"])
def test_real_peer_death_names_endpoint_and_pid_and_is_marked(reply):
    port, cleanup = _scripted_peer([reply])
    try:
        proxy = ProcessEndpointProxy.connect(
            "127.0.0.1", port, "doomed", config=CONFIG, timeout=5.0,
            pid=4242)
        with pytest.raises(ProtocolError) as excinfo:
            proxy.on_idle(0)
        message = str(excinfo.value)
        assert "'doomed'" in message and "pid 4242" in message
        assert "died mid-round" in message
        assert excinfo.value.peer_dead and not excinfo.value.timed_out
        proxy.close()
    finally:
        cleanup()


# ---------------------------------------------------------------------------
# Slow endpoints: the round still quiesces
# ---------------------------------------------------------------------------

def test_slow_aggregator_process_round_still_quiesces():
    reference = run_private_round(CONFIG, enrolled(2).clients, round_id=0)
    enrollment = enrolled(2)
    pool = ProcessAggregatorPool(CONFIG)
    transport = SocketTransport()
    try:
        from repro.protocol.endpoint import mean_threshold
        from repro.protocol.runner import ProtocolRunner

        endpoints, root = pool.wire(enrollment.clients, mean_threshold)
        runner = ProtocolRunner(endpoints, root, transport=transport)
        started = time.monotonic()
        # Clique 0's process stalls from the round's start for 0.15 s.
        pid = pool.pids[clique_endpoint_id(0)]
        os.kill(pid, signal.SIGSTOP)
        threading.Timer(0.15, os.kill, (pid, signal.SIGCONT)).start()
        result = runner.run_round(0)
        elapsed = time.monotonic() - started
        # The injected latency really happened and the round still
        # finished with the exact reference result.
        assert elapsed >= 0.15
        assert result.aggregate.cells == reference.aggregate.cells
        assert result.users_threshold == reference.users_threshold
    finally:
        pool.close()
        transport.close()


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
        session.transport.fail_sender(session.clients[1].user_id)
        result = session.run_round(0)
        assert result.recovery_round_used
        assert session.clients[1].user_id in result.missing_users
    finally:
        session.close()


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
        assert transport.send("a", "b", report)
        _, delivered = transport.receive("b")
        assert delivered == report


def test_proxy_timeout_surfaces_as_protocol_error():
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    accepted = []

    def accept_and_stall():
        conn, _ = listener.accept()
        accepted.append(conn)  # never replies

    thread = threading.Thread(target=accept_and_stall, daemon=True)
    thread.start()
    try:
        proxy = ProcessEndpointProxy.connect("127.0.0.1", port, "stalled",
                                             config=CONFIG, timeout=0.3)
        with pytest.raises(ProtocolError, match="timed out"):
            proxy.on_idle(0)
        proxy.close()
    finally:
        listener.close()
        for conn in accepted:
            conn.close()


def test_proxy_deadline_fires_mid_frame_with_elapsed_and_peer():
    """The per-exchange deadline must cover a *partial* reply: header
    received, body stalled. The proxy raises ProtocolError naming the
    elapsed time and the peer address — never hangs past the timeout."""
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    accepted = []

    def accept_header_then_stall():
        conn, _ = listener.accept()
        accepted.append(conn)
        frames.recv_frame(conn)  # consume the request
        # A reply frame claiming 64 bytes, delivering only the kind
        # byte: the proxy is now blocked mid-payload.
        conn.sendall(struct.pack(">I", 64) + bytes([frames.DONE]))

    thread = threading.Thread(target=accept_header_then_stall, daemon=True)
    thread.start()
    try:
        proxy = ProcessEndpointProxy.connect("127.0.0.1", port, "stalled",
                                             config=CONFIG, timeout=0.4)
        started = time.monotonic()
        with pytest.raises(ProtocolError) as excinfo:
            proxy.on_idle(0)
        elapsed = time.monotonic() - started
        # Bounded by the timeout (generous margin for slow CI), and the
        # error names both the measured elapsed time and the peer.
        assert elapsed < 5
        message = str(excinfo.value)
        assert "timed out" in message
        assert "after" in message and "s" in message
        assert f"127.0.0.1:{port}" in message
        assert getattr(excinfo.value, "timed_out", False)
        proxy.close()
    finally:
        listener.close()
        for conn in accepted:
            conn.close()


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
