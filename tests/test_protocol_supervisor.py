"""Supervised aggregator recovery: crash, crash-loop, hang, replay.

The contract under test: with a :class:`RetryPolicy`, a worker process
that dies (or wedges) mid-round is respawned from its spec, the round's
exchanges are replayed into the replacement, and the round completes
**bit-identically** to an undisturbed run — while the same fault plan
with retries disabled reproduces today's fail-fast ProtocolError.
"""

import time

import pytest

from repro.api import ProtocolSession, SessionConfig, run_private_round
from repro.errors import ConfigurationError, ProtocolError
from repro.protocol.client import RoundConfig
from repro.protocol.endpoint import SERVER_ENDPOINT, mean_threshold
from repro.protocol.enrollment import enroll_users
from repro.protocol.net import (
    NO_RETRY,
    FaultPlan,
    LinkFault,
    ProcessAggregatorPool,
    RetryPolicy,
)
from repro.protocol.runner import ProtocolRunner

CONFIG = RoundConfig(cms_depth=2, cms_width=64, cms_seed=7, id_space=200)
USER_IDS = [f"user-{i:02d}" for i in range(8)]
CLIQUE0 = "clique-aggregator-0"

#: Fast backoff so crash-loop tests don't sleep their way through CI.
FAST = dict(backoff_base_s=0.01, backoff_max_s=0.05)


def enrolled(num_cliques=2, seed=5):
    enrollment = enroll_users(USER_IDS, CONFIG, seed=seed, use_oprf=False,
                              num_cliques=num_cliques)
    for i, client in enumerate(enrollment.clients):
        client.observe_ad(f"ad-{i % 5}")
        client.observe_ad(f"ad-{(i + 2) % 5}")
    return enrollment


def reference_result(round_id=0, fail=None):
    enrollment = enrolled()
    from repro.protocol.transport import InMemoryTransport
    transport = InMemoryTransport()
    if fail is not None:
        transport.fail_sender(fail)
    return run_private_round(
        CONFIG, enrollment.clients, round_id=round_id,
        settings=SessionConfig(transport=transport))


def assert_bit_identical(result, reference):
    assert result.aggregate.cells == reference.aggregate.cells
    assert result.distribution.values == reference.distribution.values
    assert result.users_threshold == reference.users_threshold


# ---------------------------------------------------------------------------
# RetryPolicy surface
# ---------------------------------------------------------------------------

def test_retry_policy_validates_and_backs_off_exponentially():
    with pytest.raises(ConfigurationError, match="max_restarts"):
        RetryPolicy(max_restarts=-1)
    with pytest.raises(ConfigurationError, match="backoff_factor"):
        RetryPolicy(backoff_factor=0.5)
    policy = RetryPolicy(max_restarts=5, backoff_base_s=0.1,
                         backoff_factor=2.0, backoff_max_s=0.5)
    assert policy.backoff_s(1) == pytest.approx(0.1)
    assert policy.backoff_s(2) == pytest.approx(0.2)
    assert policy.backoff_s(3) == pytest.approx(0.4)
    assert policy.backoff_s(4) == pytest.approx(0.5)  # capped
    assert NO_RETRY.max_restarts == 0


# ---------------------------------------------------------------------------
# Crash -> respawn -> replay -> bit-identical
# ---------------------------------------------------------------------------

def test_clique_worker_crash_is_recovered_bit_identically():
    reference = reference_result()
    plan = FaultPlan(seed=5, worker_crashes={CLIQUE0: (3,)})
    with ProtocolSession.create(
            enrolled(),
            settings=SessionConfig(
                transport="socket", aggregator_procs=True, fault_plan=plan,
                retry_policy=RetryPolicy(max_restarts=2, **FAST))) as session:
        result = session.run_round(0)
        pool = session.aggregator_pool
        assert isinstance(pool, ProcessAggregatorPool)
        assert pool.restarts[CLIQUE0] == 1
    assert_bit_identical(result, reference)


def test_root_worker_crash_is_recovered_bit_identically():
    reference = reference_result()
    plan = FaultPlan(seed=5, worker_crashes={SERVER_ENDPOINT: (2,)})
    with ProtocolSession.create(
            enrolled(),
            settings=SessionConfig(
                transport="socket", aggregator_procs=True, fault_plan=plan,
                retry_policy=RetryPolicy(max_restarts=2, **FAST))) as session:
        result = session.run_round(0)
        assert session.aggregator_pool.restarts[SERVER_ENDPOINT] == 1
    assert_bit_identical(result, reference)


def test_crash_loop_within_budget_survives():
    # Consecutive ordinals kill the *replacement* process too (the
    # exchange counter includes the retried attempt), so this is a
    # genuine crash loop — two respawns against a budget of two.
    reference = reference_result()
    plan = FaultPlan(seed=5, worker_crashes={CLIQUE0: (3, 4)})
    with ProtocolSession.create(
            enrolled(),
            settings=SessionConfig(
                transport="socket", aggregator_procs=True, fault_plan=plan,
                retry_policy=RetryPolicy(max_restarts=2, **FAST))) as session:
        result = session.run_round(0)
        assert session.aggregator_pool.restarts[CLIQUE0] == 2
    assert_bit_identical(result, reference)


def test_crash_loop_under_wan_weather_survives():
    # The same crash loop while every link also suffers seeded latency,
    # jitter and loss: replay into the replacement is still exact.
    reference = reference_result()
    plan = FaultPlan(seed=17, default=LinkFault(
        latency_s=0.002, jitter_s=0.002, loss_prob=0.01,
        retransmit_delay_s=0.005), worker_crashes={CLIQUE0: (3, 4)})
    with ProtocolSession.create(
            enrolled(),
            settings=SessionConfig(
                transport="socket", aggregator_procs=True, fault_plan=plan,
                retry_policy=RetryPolicy(max_restarts=2, **FAST))) as session:
        result = session.run_round(0)
        assert session.aggregator_pool.restarts[CLIQUE0] == 2
    assert_bit_identical(result, reference)


def test_crash_loop_past_budget_raises_with_the_loop_described():
    plan = FaultPlan(seed=5, worker_crashes={CLIQUE0: (3, 4, 5)})
    with ProtocolSession.create(
            enrolled(),
            settings=SessionConfig(
                transport="socket", aggregator_procs=True, fault_plan=plan,
                retry_policy=RetryPolicy(max_restarts=2, **FAST))) as session:
        with pytest.raises(ProtocolError, match="crash-looped"):
            session.run_round(0)


def test_same_plan_with_retries_disabled_reproduces_todays_error():
    # The acceptance criterion's control leg: the injection fires, no
    # recovery happens, and the error is exactly the unsupervised
    # pool's "process died" ProtocolError.
    plan = FaultPlan(seed=5, worker_crashes={CLIQUE0: (3,)})
    with ProtocolSession.create(
            enrolled(),
            settings=SessionConfig(
                transport="socket", aggregator_procs=True, fault_plan=plan,
                retry_policy=NO_RETRY)) as session:
        started = time.monotonic()
        with pytest.raises(ProtocolError, match="died|closed|unreachable"):
            session.run_round(0)
        assert time.monotonic() - started < 30  # fail fast, never hang


def test_a_plain_session_runs_the_same_pool_with_a_budget_of_zero():
    # No retry_policy, no fault plan: still the one pool, enforcing
    # NO_RETRY — nothing is respawned and nothing is journaled.
    reference = reference_result()
    with ProtocolSession.create(
            enrolled(),
            settings=SessionConfig(aggregator_procs=True)) as session:
        pool = session.aggregator_pool
        assert type(pool) is ProcessAggregatorPool
        assert pool.retry_policy is NO_RETRY
        result = session.run_round(0)
        assert pool.restarts == {}
        proxies = [e for e in session.endpoints
                   if e.endpoint_id in pool.endpoint_ids]
        assert len(proxies) == 3
        assert all(proxy._journal == [] for proxy in proxies)
    assert_bit_identical(result, reference)


# ---------------------------------------------------------------------------
# Hangs: the per-exchange deadline turns a wedge into a crash
# ---------------------------------------------------------------------------

def test_hung_worker_is_detected_respawned_and_recovered():
    reference = reference_result()
    enrollment = enrolled()
    # Clique 0's worker wedges (sleeps, doesn't die) after its second
    # dispatched exchange; only the proxy deadline can catch that. The
    # pool timeout doubles as the startup-handshake deadline, so it
    # must still leave room for a subprocess cold start.
    pool = ProcessAggregatorPool(
        CONFIG, timeout=5.0, chaos_hang_after={0: 2},
        retry_policy=RetryPolicy(max_restarts=1, **FAST))
    try:
        endpoints, root = pool.wire(enrollment.clients, mean_threshold)
        runner = ProtocolRunner(endpoints, root)
        started = time.monotonic()
        result = runner.run_round(0)
        # Detection is deadline-bound: one ~5s timeout plus respawn and
        # replay overhead, nowhere near the wedge's 3600s sleep.
        assert time.monotonic() - started < 40
        assert pool.restarts[CLIQUE0] == 1
    finally:
        pool.close()
    assert_bit_identical(result, reference)


# ---------------------------------------------------------------------------
# Recovery composes with the protocol's own fault tolerance
# ---------------------------------------------------------------------------

def test_worker_crash_and_client_dropout_in_the_same_round():
    dropped = USER_IDS[3]
    reference = reference_result(fail=dropped)
    plan = FaultPlan(seed=5, worker_crashes={CLIQUE0: (3,)})
    with ProtocolSession.create(
            enrolled(),
            settings=SessionConfig(
                transport="socket", aggregator_procs=True, fault_plan=plan,
                retry_policy=RetryPolicy(max_restarts=2, **FAST))) as session:
        session.transport.fail_sender(dropped)
        result = session.run_round(0)
        assert session.aggregator_pool.restarts[CLIQUE0] == 1
    assert result.recovery_round_used
    assert dropped in result.missing_users
    assert_bit_identical(result, reference)


def test_session_outlives_the_recovered_round():
    # After a supervised recovery the session keeps working: another
    # round, an epoch advance, and a post-churn round all succeed (the
    # respawned worker was re-wired exactly like its predecessor).
    plan = FaultPlan(seed=5, worker_crashes={CLIQUE0: (3,)})
    with ProtocolSession.create(
            enrolled(),
            settings=SessionConfig(
                transport="socket", aggregator_procs=True, fault_plan=plan,
                retry_policy=RetryPolicy(max_restarts=2, **FAST))) as session:
        first = session.run_round(0)
        assert session.aggregator_pool.restarts[CLIQUE0] == 1
        second = session.run_round(1)
        assert second.aggregate.cells == first.aggregate.cells
        session.advance_epoch(leaves=[USER_IDS[-1]])
        third = session.run_next_round()
        assert len(third.reported_users) == len(USER_IDS) - 1
        assert session.aggregator_pool.restarts[CLIQUE0] == 1  # no new deaths
