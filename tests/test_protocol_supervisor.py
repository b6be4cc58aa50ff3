"""Supervised aggregator recovery: crash, crash-loop, hang, replay.

The contract under test: with a restart budget
(``SessionConfig.max_restarts``), a worker process that dies (or
wedges) mid-round is respawned from its spec, the round's exchanges are
replayed into the replacement, and the round completes
**bit-identically** to an undisturbed run — while the same kill with a
budget of 0 reproduces the fail-fast ProtocolError.

Faults come from outside the code under test: a test SIGKILLs (or
SIGSTOPs) a worker's pid from a wrapped ``proxy._exchange`` at a chosen
call. Replays go through the same ``_exchange``, so calls are counted
replays included, and a kill during replay hits the replacement — a
genuine crash loop.
"""

import os
import signal
import time

import pytest

from repro.api import ProtocolSession, SessionConfig, run_private_round
from repro.errors import ConfigurationError, ProtocolError
from repro.protocol.client import RoundConfig
from repro.protocol.endpoint import SERVER_ENDPOINT, mean_threshold
from repro.protocol.enrollment import enroll_users
from repro.protocol.net import (
    ChaosSocketTransport,
    FaultPlan,
    LinkFault,
    ProcessAggregatorPool,
)
from repro.protocol.net.proxy import BACKOFF_BASE_S, BACKOFF_MAX_S, _backoff_s
from repro.protocol.runner import ProtocolRunner

CONFIG = RoundConfig(cms_depth=2, cms_width=64, cms_seed=7, id_space=200)
USER_IDS = [f"user-{i:02d}" for i in range(8)]
CLIQUE0 = "clique-aggregator-0"


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


def supervised(max_restarts=2, transport="socket"):
    return ProtocolSession.create(
        enrolled(),
        settings=SessionConfig(transport=transport, aggregator_procs=True,
                               max_restarts=max_restarts))


def kill_at(session, endpoint_id, *calls):
    """SIGKILL ``endpoint_id``'s worker just before the proxy's n-th
    ``_exchange`` call (1-based, replays included) for each n in
    ``calls``; the pid is looked up at the call, so a kill during replay
    hits the replacement."""
    pool = session.aggregator_pool
    proxy = next(e for e in session.endpoints
                 if e.endpoint_id == endpoint_id)
    exchange, made = proxy._exchange, []

    def killing(kind, body=b""):
        made.append(kind)
        if len(made) in calls:
            os.kill(pool.pids[endpoint_id], signal.SIGKILL)
        return exchange(kind, body)

    proxy._exchange = killing


# ---------------------------------------------------------------------------
# The restart budget
# ---------------------------------------------------------------------------

def test_restart_budget_is_an_int_that_backs_off_exponentially():
    with pytest.raises(ConfigurationError, match="max_restarts"):
        SessionConfig(aggregator_procs=True, max_restarts=-1)
    assert SessionConfig().max_restarts == 0
    assert ProcessAggregatorPool(CONFIG).max_restarts == 0
    assert (BACKOFF_BASE_S, BACKOFF_MAX_S) == (0.05, 2.0)
    assert _backoff_s(1) == pytest.approx(0.05)
    assert _backoff_s(2) == pytest.approx(0.1)
    assert _backoff_s(3) == pytest.approx(0.2)
    assert _backoff_s(7) == pytest.approx(2.0)  # capped
    # A budget of 2 sleeps at most 0.15 s in one crash loop.
    assert sum(_backoff_s(n) for n in (1, 2)) == pytest.approx(0.15)


# ---------------------------------------------------------------------------
# Crash -> respawn -> replay -> bit-identical
# ---------------------------------------------------------------------------

def test_clique_worker_crash_is_recovered_bit_identically():
    reference = reference_result()
    with supervised() as session:
        kill_at(session, CLIQUE0, 3)
        result = session.run_round(0)
        pool = session.aggregator_pool
        assert isinstance(pool, ProcessAggregatorPool)
        assert pool.restarts[CLIQUE0] == 1
    assert_bit_identical(result, reference)


def test_root_worker_crash_is_recovered_bit_identically():
    reference = reference_result()
    with supervised() as session:
        kill_at(session, SERVER_ENDPOINT, 2)
        result = session.run_round(0)
        assert session.aggregator_pool.restarts[SERVER_ENDPOINT] == 1
    assert_bit_identical(result, reference)


def test_worker_crash_is_recovered_over_the_memory_transport():
    # Supervision is the pool's, not the transport's: a worker killed
    # at its first exchange under the default in-memory transport is
    # recovered the same way.
    reference = reference_result()
    with supervised(max_restarts=1, transport=None) as session:
        kill_at(session, CLIQUE0, 1)
        result = session.run_round(0)
        assert session.aggregator_pool.restarts[CLIQUE0] == 1
    assert_bit_identical(result, reference)


def test_crash_loop_within_budget_survives():
    # Call 4 is the first replayed exchange into the replacement, so
    # the *replacement* process dies too: a genuine crash loop — two
    # respawns against a budget of two.
    reference = reference_result()
    with supervised() as session:
        kill_at(session, CLIQUE0, 3, 4)
        result = session.run_round(0)
        assert session.aggregator_pool.restarts[CLIQUE0] == 2
    assert_bit_identical(result, reference)


def test_crash_loop_under_wan_weather_survives():
    # The same crash loop while every link also suffers seeded latency,
    # jitter and loss: replay into the replacement is still exact.
    reference = reference_result()
    plan = FaultPlan(seed=17, default=LinkFault(
        latency_s=0.002, jitter_s=0.002, loss_prob=0.01,
        retransmit_delay_s=0.005))
    with ChaosSocketTransport(plan) as weather, \
            supervised(transport=weather) as session:
        kill_at(session, CLIQUE0, 3, 4)
        result = session.run_round(0)
        assert session.aggregator_pool.restarts[CLIQUE0] == 2
        assert weather.events["delayed"] > 0
    assert_bit_identical(result, reference)


def test_crash_loop_past_budget_raises_with_the_loop_described():
    with supervised() as session:
        kill_at(session, CLIQUE0, 3, 4, 5)
        with pytest.raises(ProtocolError, match="crash-looped"):
            session.run_round(0)


def test_same_kill_with_a_budget_of_zero_fails_fast():
    # The control leg: the kill lands, no recovery happens, and the
    # error is exactly the unsupervised pool's "process died"
    # ProtocolError.
    with supervised(max_restarts=0) as session:
        kill_at(session, CLIQUE0, 3)
        started = time.monotonic()
        with pytest.raises(ProtocolError, match="died|closed|unreachable"):
            session.run_round(0)
        assert time.monotonic() - started < 30  # fail fast, never hang


def test_a_plain_session_runs_the_same_pool_with_a_budget_of_zero():
    # No restart budget, no kill: still the one pool, with a budget of
    # 0 — nothing is respawned and nothing is journaled.
    reference = reference_result()
    with ProtocolSession.create(
            enrolled(),
            settings=SessionConfig(aggregator_procs=True)) as session:
        pool = session.aggregator_pool
        assert type(pool) is ProcessAggregatorPool
        assert pool.max_restarts == 0
        result = session.run_round(0)
        assert pool.restarts == {}
        proxies = [e for e in session.endpoints
                   if e.endpoint_id in pool.pids]
        assert len(proxies) == 3
        assert all(proxy._journal == [] for proxy in proxies)
    assert_bit_identical(result, reference)


# ---------------------------------------------------------------------------
# Hangs: the per-exchange deadline turns a wedge into a crash
# ---------------------------------------------------------------------------

def test_hung_worker_is_detected_respawned_and_recovered():
    reference = reference_result()
    enrollment = enrolled()
    # The pool timeout is also the start-up handshake deadline, so it
    # leaves room for a subprocess cold start.
    pool = ProcessAggregatorPool(CONFIG, timeout=5.0, max_restarts=1)
    try:
        endpoints, root = pool.wire(enrollment.clients, mean_threshold)
        proxy = next(e for e in endpoints if e.endpoint_id == CLIQUE0)
        # Only the wedged exchange waits on the per-exchange deadline.
        proxy.timeout = 1.0
        # Clique 0's worker wedges before its third exchange: SIGSTOP
        # keeps it alive and connected, and it never replies. Only the
        # proxy's deadline can catch that; the respawn SIGKILLs it.
        exchange, calls = proxy._exchange, []

        def wedge_third(kind, body=b""):
            calls.append(kind)
            if len(calls) == 3:
                os.kill(pool.pids[CLIQUE0], signal.SIGSTOP)
            return exchange(kind, body)

        proxy._exchange = wedge_third
        runner = ProtocolRunner(endpoints, root)
        started = time.monotonic()
        result = runner.run_round(0)
        # Detection is deadline-bound: one ~1s timeout plus respawn and
        # replay overhead; a stopped process never answers by itself.
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
    with supervised() as session:
        kill_at(session, CLIQUE0, 3)
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
    with supervised() as session:
        kill_at(session, CLIQUE0, 3)
        first = session.run_round(0)
        assert session.aggregator_pool.restarts[CLIQUE0] == 1
        second = session.run_round(1)
        assert second.aggregate.cells == first.aggregate.cells
        session.advance_epoch(leaves=[USER_IDS[-1]])
        third = session.run_next_round()
        assert len(third.reported_users) == len(USER_IDS) - 1
        assert session.aggregator_pool.restarts[CLIQUE0] == 1  # no new deaths
