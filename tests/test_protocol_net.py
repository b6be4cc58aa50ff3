"""The networked protocol layer: real sockets, real aggregator processes.

The contract under test is the acceptance bar of the socket-transport
work: a private round whose clique aggregators (and root) run as real
subprocesses behind TCP sockets produces **bit-identical** aggregate
cells, #Users distribution and threshold decisions to the in-memory
in-process path — for k in {1, 4}, including a dropout-recovery round
and a post-``advance_epoch`` round over live (never restarted)
processes. Byte accounting over the socket transport must equal the
in-memory wire transport's, sender by sender: both bill the single
shared codec path.
"""

import dataclasses
import socket
import time

import pytest

from repro.api import ProtocolSession, SessionConfig, run_private_round
from repro.errors import ConfigurationError
from repro.protocol.aggregator import RootAggregator, clique_endpoint_id
from repro.protocol.client import RoundConfig
from repro.protocol.endpoint import (
    SERVER_ENDPOINT,
    RoundSummary,
    mean_threshold,
)
from repro.protocol.enrollment import enroll_users
from repro.protocol.net import (
    EndpointServer,
    ProcessEndpointProxy,
    SocketTransport,
    build_endpoint,
    clique_spec,
    frames,
    root_spec,
    rule_spec,
    summary_from_spec,
    summary_to_spec,
)
from repro.protocol.transport import InMemoryTransport, WireTransport
from repro.sketch.countmin import CountMinSketch
from repro.statsutil.distributions import EmpiricalDistribution

CONFIG = RoundConfig(cms_depth=4, cms_width=128, cms_seed=7, id_space=500)
USER_IDS = [f"user-{i:02d}" for i in range(16)]


def enrolled(num_cliques=1, seed=3, user_ids=USER_IDS):
    enrollment = enroll_users(user_ids, CONFIG, seed=seed, use_oprf=False,
                              num_cliques=num_cliques)
    observe(enrollment.clients)
    return enrollment


def observe(clients, salt=0):
    for i, client in enumerate(clients):
        for j in range(5):
            client.observe_ad(f"ad-{(i * 3 + j + salt) % 15}")


def socket_session(num_cliques, seed=3, user_ids=USER_IDS):
    session = ProtocolSession.create(
        user_ids, CONFIG,
        SessionConfig(transport="socket", aggregator_procs=True),
        seed=seed, use_oprf=False, num_cliques=num_cliques)
    observe(session.clients)
    return session


def assert_same_round(lhs, rhs):
    assert lhs.aggregate.cells == rhs.aggregate.cells
    assert lhs.distribution.values == rhs.distribution.values
    assert lhs.users_threshold == rhs.users_threshold
    assert lhs.reported_users == rhs.reported_users
    assert lhs.missing_users == rhs.missing_users
    assert lhs.recovery_round_used == rhs.recovery_round_used


# ---------------------------------------------------------------------------
# Bit-identical distributed rounds
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("num_cliques", [1, 4])
def test_socket_procs_round_matches_monolithic(num_cliques):
    # The reference is the same tree in-process, over plain mailboxes.
    reference = run_private_round(
        CONFIG, enrolled(num_cliques).clients, round_id=0)
    with socket_session(num_cliques) as session:
        result = session.run_round(0)
        pids = session.aggregator_pool.pids
    assert_same_round(result, reference)
    # One process per clique plus the root, all distinct OS processes.
    assert len(pids) == num_cliques + 1
    assert len(set(pids.values())) == num_cliques + 1
    assert SERVER_ENDPOINT in pids


@pytest.mark.parametrize("num_cliques", [1, 4])
def test_dropout_recovery_over_sockets(num_cliques):
    failed = ["user-03", "user-10"]
    ref_session = ProtocolSession(CONFIG, enrolled(num_cliques).clients)
    for user_id in failed:
        ref_session.transport.fail_sender(user_id)
    reference = ref_session.run_round(0)
    assert reference.recovery_round_used

    with socket_session(num_cliques) as session:
        for user_id in failed:
            session.transport.fail_sender(user_id)
        result = session.run_round(0)
    assert_same_round(result, reference)
    assert result.missing_users == sorted(failed)


def test_post_epoch_round_over_live_processes():
    joins, leaves = ["user-90", "user-91"], ["user-00"]
    ref = ProtocolSession.create(USER_IDS, CONFIG, seed=3, use_oprf=False,
                                 num_cliques=4)
    observe(ref.clients)
    ref.run_next_round()
    ref.advance_epoch(joins=joins, leaves=leaves)
    observe(ref.clients, salt=2)
    reference = ref.run_next_round()

    with socket_session(4) as session:
        session.run_next_round()
        pids_before = dict(session.aggregator_pool.pids)
        transition = session.advance_epoch(joins=joins, leaves=leaves)
        # The epoch advance re-wires the live processes: same PIDs, no
        # restart — the RECONFIGURE path, not respawn.
        assert dict(session.aggregator_pool.pids) == pids_before
        assert set(transition.joined) == set(joins)
        observe(session.clients, salt=2)
        result = session.run_next_round()
    assert_same_round(result, reference)


def test_non_default_rule_survives_epoch_advance_over_procs():
    """Regression: the root proxy's threshold-rule mirror must start in
    sync with the spawn spec — advance_epoch reads it back to carry the
    rule into the re-wire, and a stale 'mean' mirror silently reverted
    every non-default rule after the first epoch transition."""
    from repro.core.thresholds import ThresholdRule

    rule = ThresholdRule.MEAN_PLUS_STD
    ref = ProtocolSession.create(
        USER_IDS, CONFIG, SessionConfig(threshold_rule=rule.compute),
        seed=3, use_oprf=False, num_cliques=2)
    observe(ref.clients)
    ref.run_next_round()
    ref.advance_epoch(joins=["user-90"], leaves=["user-00"])
    observe(ref.clients, salt=1)
    reference = ref.run_next_round()

    with ProtocolSession.create(
            USER_IDS, CONFIG,
            SessionConfig(transport="socket", aggregator_procs=True,
                          threshold_rule=rule.compute),
            seed=3, use_oprf=False, num_cliques=2) as session:
        observe(session.clients)
        session.run_next_round()
        session.advance_epoch(joins=["user-90"], leaves=["user-00"])
        observe(session.clients, salt=1)
        result = session.run_next_round()
    assert result.users_threshold == reference.users_threshold
    dist = reference.distribution
    assert reference.users_threshold == dist.mean + dist.std
    assert_same_round(result, reference)


# ---------------------------------------------------------------------------
# Byte accounting: one shared counter path across transports
# ---------------------------------------------------------------------------

def test_socket_and_wire_transport_byte_accounting_identical():
    runs = {}
    for name, transport_cls in (("wire", WireTransport),
                                ("socket", SocketTransport)):
        enrollment = enrolled(4)
        transport = transport_cls()
        session = ProtocolSession(CONFIG, enrollment.clients,
                                  SessionConfig(transport=transport))
        session.run_round(0)
        runs[name] = transport
        if name == "socket":
            transport.close()
    wire_t, socket_t = runs["wire"], runs["socket"]
    # Same counters, sender by sender: both transports bill the actual
    # encoded size through the single WireTransport._transcode path.
    assert dict(wire_t.bytes_sent) == dict(socket_t.bytes_sent)
    assert dict(wire_t.messages_sent) == dict(socket_t.messages_sent)
    assert wire_t.total_bytes == socket_t.total_bytes > 0


def test_socket_fan_out_and_subprocess_rounds_bill_identical_bytes():
    # Moving the aggregators into their own processes changes where the
    # frames are consumed, not what crosses the client-facing transport.
    runs = {}
    for procs in (False, True):
        with ProtocolSession.create(
                enrolled(4),
                settings=SessionConfig(transport="socket",
                                       aggregator_procs=procs)) as session:
            runs[procs] = (session.run_round(0),
                           session.transport.total_bytes)
    assert_same_round(runs[True][0], runs[False][0])
    assert runs[True][1] == runs[False][1] > 0


def test_socket_transport_ships_real_tcp_bytes():
    from repro.protocol import wire
    from repro.protocol.messages import ThresholdBroadcast

    with SocketTransport() as transport:
        transport.register("a")
        transport.register("b")
        message = ThresholdBroadcast(round_id=3, users_threshold=2.5)
        assert transport.send("a", "b", message)
        sender, delivered = transport.receive("b")
        assert sender == "a"
        assert delivered == message
        # The counter bills the wire-encoded size, not the size model
        # and not the frame overhead.
        assert transport.bytes_sent["a"] == len(wire.encode(message))
        assert transport.port > 0


# ---------------------------------------------------------------------------
# Specs, rules and summaries
# ---------------------------------------------------------------------------

def test_endpoint_specs_rebuild_equivalent_endpoints():
    spec = clique_spec(2, CONFIG, {"u1": 0, "u2": 5})
    endpoint = build_endpoint(spec)
    assert endpoint.endpoint_id == clique_endpoint_id(2)
    assert endpoint.clique_id == 2
    assert endpoint.index_of == {"u1": 0, "u2": 5}

    from repro.core.thresholds import ThresholdRule

    spec = root_spec(CONFIG, [0, 1], ["u1", "u2"],
                     rule=ThresholdRule.MEDIAN.compute)
    root = build_endpoint(spec)
    assert isinstance(root, RootAggregator)
    assert root.clique_ids == [0, 1]
    assert root.threshold_rule.__self__.value == "median"


def test_endpoint_spec_inverts_build_endpoint_over_a_tiered_tree():
    """The pool hosts the session's tree by its specs, so every endpoint
    that tree holds must rebuild to one with the same spec."""
    from repro.core.thresholds import ThresholdRule
    from repro.protocol.net.spec import endpoint_spec
    from repro.protocol.runner import build_aggregation_tree

    members = {c: {f"u{c}-{i}": i for i in range(2)} for c in range(5)}
    client_ids = sorted(uid for index_of in members.values()
                        for uid in index_of)
    tree, root = build_aggregation_tree(
        CONFIG, members, client_ids, ThresholdRule.MEDIAN.compute, fan_in=2)
    specs = [endpoint_spec(endpoint) for endpoint in tree]
    assert [endpoint_spec(build_endpoint(spec)) for spec in specs] == specs
    assert {spec["role"] for spec in specs} == {"clique", "regional", "root"}
    assert endpoint_spec(root)["threshold_rule"] == "median"


def test_rule_spec_names_and_refusals():
    from repro.core.thresholds import ThresholdRule

    assert rule_spec(mean_threshold) == "mean"
    assert rule_spec(ThresholdRule.MEAN_PLUS_STD.compute) == "mean+std"
    with pytest.raises(ConfigurationError):
        rule_spec(lambda dist: 42.0)


def test_round_summary_spec_roundtrip_is_bit_exact():
    """Over a recovery round, so that every field carries a value its
    default would not: a key summary_to_spec writes but summary_from_spec
    never reads shows up as a field that does not come back."""
    session = ProtocolSession(CONFIG, enrolled(2).clients)
    session.transport.fail_sender(USER_IDS[3])
    session.run_round(1)
    summary = session.root.round_summary()
    assert summary.missing_users == [USER_IDS[3]]
    assert summary.recovery_round_used
    rebuilt = summary_from_spec(summary_to_spec(summary), CONFIG)

    def comparable(value):
        if isinstance(value, CountMinSketch):
            return value.depth, value.width, value.seed, value.cells
        if isinstance(value, EmpiricalDistribution):
            return value.values
        return value

    for field in dataclasses.fields(RoundSummary):
        assert comparable(getattr(rebuilt, field.name)) == \
            comparable(getattr(summary, field.name)), field.name


# ---------------------------------------------------------------------------
# Session validation
# ---------------------------------------------------------------------------

def test_unknown_transport_spec_is_refused():
    with pytest.raises(ConfigurationError, match="unknown transport"):
        SessionConfig(transport="carrier-pigeon")


def test_named_transports_resolve():
    for name, cls in (("memory", InMemoryTransport), ("wire", WireTransport),
                      ("socket", SocketTransport)):
        with ProtocolSession(CONFIG, enrolled(1).clients,
                             SessionConfig(transport=name)) as session:
            assert type(session.transport) is cls


# ---------------------------------------------------------------------------
# The threaded endpoint server (a root served to external query clients)
# ---------------------------------------------------------------------------

def test_endpoint_server_hosts_a_root_over_tcp():
    session = ProtocolSession(CONFIG, enrolled(2).clients)
    session.run_round(0)
    server = EndpointServer(session.root)
    host, port = server.start()
    try:
        proxy = ProcessEndpointProxy.connect(host, port, SERVER_ENDPOINT,
                                             config=CONFIG)
        summary = proxy.round_summary()
        assert summary.aggregate.cells == \
            session.root.round_summary().aggregate.cells
        proxy.close()
    finally:
        server.stop()


def test_endpoint_server_serves_the_next_proxy_after_one_hangs_up():
    """One peer at a time: when a hand-connected proxy closes, the loop
    goes back to accept and serves the next one; stop() ends it promptly
    even while a proxy is still connected and idle."""
    session = ProtocolSession(CONFIG, enrolled(2).clients)
    expected = session.run_round(0)
    server = EndpointServer(session.root)
    host, port = server.start()
    thread = server._thread
    first = ProcessEndpointProxy.connect(host, port, SERVER_ENDPOINT,
                                         config=CONFIG)
    second = None
    try:
        assert first.round_summary().aggregate.cells == \
            expected.aggregate.cells
        first.close()
        second = ProcessEndpointProxy.connect(host, port, SERVER_ENDPOINT,
                                              config=CONFIG)
        summary = second.round_summary()
        assert summary.aggregate.cells == expected.aggregate.cells
        assert summary.users_threshold == expected.users_threshold
        # `second` is still connected and idle: stop() must not wait on it.
        started = time.monotonic()
        server.stop()
        assert time.monotonic() - started < 5
        assert not thread.is_alive()
    finally:
        first.close()
        if second is not None:
            second.close()
        server.stop()


def test_frame_name_and_round_roundtrip():
    body = frames.pack_name("clique-aggregator-7") + b"payload"
    name, rest = frames.unpack_name(body)
    assert name == "clique-aggregator-7"
    assert rest == b"payload"
    assert frames.unpack_round(frames.pack_round(1234)) == 1234


def test_frames_over_a_real_socketpair():
    left, right = socket.socketpair()
    try:
        frames.send_frame(left, frames.MSG, b"hello")
        kind, body = frames.recv_frame(right)
        assert (kind, body) == (frames.MSG, b"hello")
    finally:
        left.close()
        right.close()
