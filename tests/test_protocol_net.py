"""The networked protocol layer: every message over a real socket.

The contract under test is the acceptance bar of the socket-transport
work: a private round whose every message crosses a localhost TCP
connection produces **bit-identical** aggregate cells, #Users
distribution and threshold decisions to the in-memory path — for k in
{1, 4} and over regional merge tiers, including a dropout-recovery
round, the round after it, a post-``advance_epoch`` round and a
non-default threshold rule. Byte accounting over the socket
transport must equal the in-memory wire transport's, sender by sender:
both bill the single shared codec path.
"""

import dataclasses
import socket
import threading

import pytest

from repro.api import ProtocolSession, SessionConfig, run_private_round
from repro.errors import ConfigurationError, ProtocolError
from repro.protocol.client import RoundConfig
from repro.protocol.endpoint import RoundSummary, mean_threshold
from repro.protocol.enrollment import enroll_users
from repro.protocol.net import SocketTransport, frames
from repro.protocol.spec import (
    config_from_spec,
    config_to_spec,
    resolve_rule,
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


def socket_session(num_cliques, seed=3, user_ids=USER_IDS, fan_in=None):
    session = ProtocolSession.create(
        user_ids, CONFIG,
        SessionConfig(transport="socket", fan_in=fan_in),
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
# Bit-identical rounds over sockets
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("num_cliques", [1, 4])
def test_socket_round_matches_in_memory(num_cliques):
    # The reference is the same tree over plain mailboxes.
    reference = run_private_round(
        CONFIG, enrolled(num_cliques).clients, round_id=0)
    with socket_session(num_cliques) as session:
        result = session.run_round(0)
        assert session.transport.total_bytes > 0
    assert_same_round(result, reference)


@pytest.mark.parametrize("num_cliques,fan_in", [(4, 2), (5, 2), (6, 3)])
def test_tiered_socket_round_matches_in_memory(num_cliques, fan_in):
    """Regional merge tiers ride the socket transport like the cliques
    do: the tiered tree's round is the flat in-memory round."""
    reference = run_private_round(
        CONFIG, enrolled(num_cliques).clients, round_id=0)
    with socket_session(num_cliques, fan_in=fan_in) as session:
        regional = [endpoint for endpoint in session._runner.endpoints
                    if endpoint.endpoint_id.startswith("regional-")]
        assert regional
        result = session.run_round(0)
    assert_same_round(result, reference)


@pytest.mark.parametrize("num_cliques", [1, 4])
def test_dropout_recovery_over_sockets(num_cliques):
    failed = ["user-03", "user-10"]
    ref_session = ProtocolSession(CONFIG, enrolled(num_cliques).clients)
    ref_session.drop_users(failed)
    reference = ref_session.run_round(0)
    assert reference.recovery_round_used

    with socket_session(num_cliques) as session:
        session.drop_users(failed)
        result = session.run_round(0)
    assert_same_round(result, reference)
    assert result.missing_users == sorted(failed)


def test_socket_session_outlives_a_recovery_round():
    """A round that needed the recovery phase leaves the socket session
    fit for the next one: the following round, with everyone back,
    matches the in-memory session's bit for bit."""
    ref = ProtocolSession(CONFIG, enrolled(2).clients)
    ref.drop_users(["user-05"])
    assert ref.run_round(0).recovery_round_used
    ref.restore_users(["user-05"])
    reference = ref.run_round(1)

    with socket_session(2) as session:
        session.drop_users(["user-05"])
        assert session.run_round(0).recovery_round_used
        session.restore_users(["user-05"])
        result = session.run_round(1)
    assert not result.recovery_round_used
    assert_same_round(result, reference)


def test_post_epoch_round_over_sockets():
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
        transport = session.transport
        transition = session.advance_epoch(joins=joins, leaves=leaves)
        # The epoch advance re-wires the tree over the same TCP pair.
        assert session.transport is transport
        assert set(transition.joined) == set(joins)
        observe(session.clients, salt=2)
        result = session.run_next_round()
    assert_same_round(result, reference)


def test_non_default_rule_survives_epoch_advance_over_sockets():
    """The session's threshold rule carries into the re-wired root: a
    non-default rule still thresholds the round after an epoch
    transition, bit-identically to the in-memory session."""
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
            SessionConfig(transport="socket", threshold_rule=rule.compute),
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


@pytest.mark.parametrize("fan_in", [2, 3])
def test_tiered_socket_and_wire_rounds_bill_identical_bytes(fan_in):
    """Regional tiers add partial-aggregate hops; the socket transport
    bills each of them exactly as the in-memory wire transport does."""
    runs = {}
    for name, transport_cls in (("wire", WireTransport),
                                ("socket", SocketTransport)):
        transport = transport_cls()
        session = ProtocolSession(
            CONFIG, enrolled(6).clients,
            SessionConfig(transport=transport, fan_in=fan_in))
        runs[name] = (session.run_round(0), dict(transport.bytes_sent),
                      transport.total_bytes)
        if name == "socket":
            transport.close()
    assert_same_round(runs["socket"][0], runs["wire"][0])
    assert runs["socket"][1:] == runs["wire"][1:]
    assert any(sender.startswith("regional-")
               for sender in runs["socket"][1])


def test_socket_transport_ships_real_tcp_bytes():
    from repro.protocol import wire
    from repro.protocol.messages import ThresholdBroadcast

    with SocketTransport() as transport:
        transport.register("a")
        transport.register("b")
        message = ThresholdBroadcast(round_id=3, users_threshold=2.5)
        transport.send("a", "b", message)
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

def test_rule_spec_names_and_refusals():
    from repro.core.thresholds import ThresholdRule

    assert rule_spec(mean_threshold) == "mean"
    assert rule_spec(ThresholdRule.MEAN_PLUS_STD.compute) == "mean+std"
    with pytest.raises(ConfigurationError):
        rule_spec(lambda dist: 42.0)


@pytest.mark.parametrize("name", ["mean", "median", "mean+median",
                                  "mean+std"])
def test_every_named_rule_round_trips_through_its_name(name):
    """What a store persists or a service serves is the name; the rule
    it resolves to is named the same and thresholds the same."""
    rule = resolve_rule(name)
    assert rule_spec(rule) == name
    dist = EmpiricalDistribution([1, 2, 2, 3, 9])
    assert resolve_rule(rule_spec(rule))(dist) == rule(dist)


def test_the_default_rule_is_served_as_mean():
    dist = EmpiricalDistribution([1, 2, 2, 3, 9])
    assert resolve_rule(rule_spec(mean_threshold))(dist) == \
        mean_threshold(dist)


def test_round_config_spec_roundtrip():
    spec = config_to_spec(CONFIG)
    assert sorted(spec) == ["cms_depth", "cms_seed", "cms_width", "id_space"]
    assert config_from_spec(spec) == CONFIG


@pytest.mark.parametrize("field", ["cms_depth", "cms_width", "cms_seed",
                                   "id_space"])
def test_round_config_spec_missing_a_field_is_refused(field):
    spec = config_to_spec(CONFIG)
    del spec[field]
    with pytest.raises(ProtocolError, match=f"missing field '{field}'"):
        config_from_spec(spec)


def test_round_summary_spec_roundtrip_is_bit_exact():
    """Over a recovery round, so that every field carries a value its
    default would not: a key summary_to_spec writes but summary_from_spec
    never reads shows up as a field that does not come back."""
    session = ProtocolSession(CONFIG, enrolled(2).clients)
    session.drop_users([USER_IDS[3]])
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
# The ship frame
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("size", [0, 1, 300])
def test_pack_frame_prefixes_length_and_kind(size):
    body = bytes(range(256)) * 2
    body = body[:size]
    frame = frames.pack_frame(frames.SHIP, body)
    assert frames.HEAD.unpack_from(frame) == (1 + size, frames.SHIP)
    assert frame[frames.HEAD.size:] == body


@pytest.mark.parametrize("length", [1, 64])
def test_frame_lengths_within_the_ceiling_pass(length):
    frames.check_frame_length(length, max_frame=64)


@pytest.mark.parametrize("length,message", [
    (0, "below the 1-byte minimum"),
    (-1, "below the 1-byte minimum"),
    (65, "exceeds the 64-byte limit"),
    (2**32 - 1, "exceeds the 64-byte limit"),
], ids=["zero", "negative", "one-past", "largest-prefix"])
def test_frame_lengths_outside_the_bounds_are_refused(length, message):
    with pytest.raises(ProtocolError, match=message):
        frames.check_frame_length(length, max_frame=64)


def test_hang_up_wakes_a_blocked_reader():
    left, right = socket.socketpair()
    try:
        got = []
        reader = threading.Thread(target=lambda: got.append(right.recv(1)))
        reader.start()
        frames.hang_up(right)
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert got == [b""]
    finally:
        left.close()
        right.close()


def test_hang_up_on_a_closed_socket_is_a_no_op():
    left, right = socket.socketpair()
    left.close()
    right.close()
    frames.hang_up(left)


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
