"""The chaos transport: seeded WAN faults on the socket byte path.

Contracts pinned here:

* :class:`LinkFault` / :class:`FaultPlan` validate their knobs and
  resolve per-link faults most-specific-first (exact pair, sender
  wildcard, recipient wildcard, default).
* Fault injection is deterministic: same seed, same traffic => the same
  faults, draw by draw.
* Survivable faults (latency, jitter, loss-as-retransmit, trickle)
  leave the round **bit-identical** to the in-memory reference; fatal
  faults (sever, truncation) surface as the transport/codec errors the
  clean stack already defines — never hangs.
* A plan is link faults only and rides its own transport: a session
  takes ``ChaosSocketTransport(plan)`` as its ``transport``.
"""

import time

import pytest

from repro.api import ProtocolSession, SessionConfig, run_private_round
from repro.errors import ConfigurationError, ProtocolError, TransportError
from repro.protocol.client import RoundConfig
from repro.protocol.enrollment import enroll_users
from repro.protocol.messages import BlindedReport, CellVector
from repro.protocol.net import ChaosSocketTransport, FaultPlan, LinkFault
from repro.protocol.net.chaos import _MAX_RETRANSMITS

CONFIG = RoundConfig(cms_depth=2, cms_width=64, cms_seed=7, id_space=200)
USER_IDS = [f"user-{i:02d}" for i in range(8)]


def enrolled(num_cliques=2, seed=5):
    enrollment = enroll_users(USER_IDS, CONFIG, seed=seed, use_oprf=False,
                              num_cliques=num_cliques)
    for i, client in enumerate(enrollment.clients):
        client.observe_ad(f"ad-{i % 5}")
        client.observe_ad(f"ad-{(i + 2) % 5}")
    return enrollment


def report(num_cells=CONFIG.num_cells):
    return BlindedReport(user_id="a", round_id=0,
                         cells=CellVector(list(range(num_cells))))


# ---------------------------------------------------------------------------
# LinkFault / FaultPlan configuration surface
# ---------------------------------------------------------------------------

def test_link_fault_validates_probabilities_and_rates():
    with pytest.raises(ConfigurationError, match="loss_prob"):
        LinkFault(loss_prob=1.5)
    with pytest.raises(ConfigurationError, match="sever_prob"):
        LinkFault(sever_prob=-0.1)
    with pytest.raises(ConfigurationError, match="latency_s"):
        LinkFault(latency_s=-1.0)
    assert LinkFault().is_noop
    assert not LinkFault(latency_s=0.001).is_noop


def test_fault_plan_rejects_malformed_links():
    with pytest.raises(ConfigurationError, match="string pairs"):
        FaultPlan(links={"a->b": LinkFault()})
    with pytest.raises(ConfigurationError, match="must be LinkFault"):
        FaultPlan(links={("a", "b"): 0.5})


def test_fault_resolution_is_most_specific_first():
    exact = LinkFault(latency_s=0.001)
    from_a = LinkFault(latency_s=0.002)
    to_b = LinkFault(latency_s=0.003)
    default = LinkFault(latency_s=0.004)
    plan = FaultPlan(default=default, links={
        ("a", "b"): exact,
        ("a", "*"): from_a,
        ("*", "b"): to_b,
    })
    assert plan.fault_for("a", "b") is exact
    assert plan.fault_for("a", "z") is from_a
    assert plan.fault_for("z", "b") is to_b
    assert plan.fault_for("z", "z") is default


def test_per_link_rngs_are_seeded_and_independent():
    draws = [FaultPlan(seed=9).rng_for("a", "b").random() for _ in range(2)]
    # Same seed, same link => the same stream (cached RNG: the second
    # call continues it, so re-derive from a fresh plan to compare).
    assert FaultPlan(seed=9).rng_for("a", "b").random() == draws[0]
    # Different link or different seed => a different stream.
    assert FaultPlan(seed=9).rng_for("b", "a").random() != draws[0]
    assert FaultPlan(seed=10).rng_for("a", "b").random() != draws[0]


def test_canned_profiles_build_and_thread_their_seed():
    for name in ("wan", "lossy", "hostile"):
        plan = getattr(FaultPlan, name)(seed=13)
        assert plan.seed == 13
        assert not plan.default.is_noop
        assert plan.links == {}
    # A profile knob is overridable by name; the rest go to the plan.
    links = {("a", "b"): LinkFault(sever_prob=1.0)}
    plan = FaultPlan.hostile(seed=1, loss_prob=0.5, links=links)
    assert plan.default.loss_prob == 0.5
    assert plan.default.latency_s == 0.003
    assert plan.links == links


# ---------------------------------------------------------------------------
# Survivable faults: delayed, retried, trickled — and bit-identical
# ---------------------------------------------------------------------------

def test_wan_faults_leave_round_bit_identical_to_memory():
    reference = run_private_round(CONFIG, enrolled().clients, round_id=0)
    plan = FaultPlan(seed=3, default=LinkFault(
        latency_s=0.001, jitter_s=0.001, loss_prob=0.2,
        retransmit_delay_s=0.001))
    with ChaosSocketTransport(plan) as transport, ProtocolSession.create(
            enrolled(),
            settings=SessionConfig(transport=transport)) as session:
        result = session.run_round(0)
        assert session.transport is transport
        assert transport.events["delayed"] > 0
        assert transport.injected_delay_s > 0.0
    assert result.aggregate.cells == reference.aggregate.cells
    assert result.distribution.values == reference.distribution.values
    assert result.users_threshold == reference.users_threshold


def test_wan_faults_and_a_client_dropout_in_the_same_round():
    """Delayed and retransmitted frames do not disturb the recovery
    phase: the round that recovers a silent client is the in-memory
    one, bit for bit."""
    ref = ProtocolSession.create(enrolled())
    ref.drop_users([USER_IDS[2]])
    reference = ref.run_round(0)
    assert reference.recovery_round_used
    plan = FaultPlan(seed=4, default=LinkFault(
        latency_s=0.001, loss_prob=0.3, retransmit_delay_s=0.001))
    with ChaosSocketTransport(plan) as transport, ProtocolSession.create(
            enrolled(),
            settings=SessionConfig(transport=transport)) as session:
        session.drop_users([USER_IDS[2]])
        result = session.run_round(0)
        assert transport.events["delayed"] > 0
    assert result.missing_users == [USER_IDS[2]]
    assert result.recovery_round_used
    assert result.aggregate.cells == reference.aggregate.cells
    assert result.distribution.values == reference.distribution.values
    assert result.users_threshold == reference.users_threshold


def test_injected_faults_replay_deterministically():
    def run(seed):
        plan = FaultPlan(seed=seed, default=LinkFault(
            latency_s=0.0005, jitter_s=0.001, loss_prob=0.5,
            retransmit_delay_s=0.0005))
        with ChaosSocketTransport(plan) as transport, ProtocolSession.create(
                enrolled(),
                settings=SessionConfig(transport=transport)) as session:
            session.run_round(0)
            return dict(transport.events), transport.injected_delay_s

    events_a, delay_a = run(21)
    events_b, delay_b = run(21)
    events_c, _ = run(22)
    assert events_a == events_b
    assert delay_a == delay_b
    assert events_c != events_a or run(22)[1] != delay_a


def test_total_loss_is_capped_retransmits_not_livelock():
    plan = FaultPlan(default=LinkFault(loss_prob=1.0,
                                       retransmit_delay_s=0.0))
    with ChaosSocketTransport(plan) as transport:
        transport.register("a")
        transport.register("b")
        transport.send("a", "b", report())
        assert transport.events["retransmits"] == _MAX_RETRANSMITS
        _, delivered = transport.receive("b")
        assert delivered == report()


def test_trickle_delivers_the_full_frame():
    plan = FaultPlan(default=LinkFault(trickle_bytes_per_s=2_000_000.0))
    with ChaosSocketTransport(plan) as transport:
        transport.register("a")
        transport.register("b")
        transport.send("a", "b", report())
        assert transport.events["trickled"] == 1
        _, delivered = transport.receive("b")
        assert delivered == report()
        # The pacing knobs are restored after every shipped frame.
        assert transport._write_pause == 0.0


# ---------------------------------------------------------------------------
# Fatal faults: errors, never hangs
# ---------------------------------------------------------------------------

def test_severed_link_raises_transport_error_others_unaffected():
    plan = FaultPlan(links={("a", "b"): LinkFault(sever_prob=1.0)})
    with ChaosSocketTransport(plan) as transport:
        transport.register("a")
        transport.register("b")
        transport.register("c")
        with pytest.raises(TransportError, match="dropped the connection"):
            transport.send("a", "b", report())
        assert transport.events["severed"] == 1
        transport.send("a", "c", report())  # clean link still works


def test_truncated_frame_raises_the_codec_error():
    plan = FaultPlan(links={("a", "b"): LinkFault(truncate_prob=1.0)})
    with ChaosSocketTransport(plan) as transport:
        transport.register("a")
        transport.register("b")
        # The cut point decides which codec complaint fires (header
        # mismatch vs truncated cell payload); either way it's the
        # decode-side ProtocolError the clean stack already defines.
        with pytest.raises(ProtocolError, match="truncat|mismatch|header"):
            transport.send("a", "b", report())
        assert transport.events["truncated"] == 1


def test_slow_loris_trickle_stalls_out_against_the_pump_deadline():
    # 200 B/s against a multi-KB frame and a 0.3s pump deadline: the
    # trickle cannot finish, and the transport must surface a bounded
    # stall error instead of hanging for the frame's natural duration.
    plan = FaultPlan(default=LinkFault(trickle_bytes_per_s=200.0))
    with ChaosSocketTransport(plan, timeout=0.3) as transport:
        transport.register("a")
        transport.register("b")
        started = time.monotonic()
        with pytest.raises(TransportError, match="stalled"):
            transport.send("a", "b", report())
        assert time.monotonic() - started < 5


# ---------------------------------------------------------------------------
# Facade validation
# ---------------------------------------------------------------------------

def test_a_fault_plan_rides_only_its_own_transport():
    # SessionConfig names no fault plan: the plan belongs to the
    # transport, and a session does not close an instance it is handed.
    with pytest.raises(TypeError, match="fault_plan"):
        SessionConfig(transport="socket", fault_plan=FaultPlan.wan())
    transport = ChaosSocketTransport(FaultPlan.wan(seed=3))
    try:
        with ProtocolSession.create(
                enrolled(),
                settings=SessionConfig(transport=transport)) as session:
            session.run_round(0)
        assert not transport._closed
    finally:
        transport.close()
