"""Adversarial-scenario bench: poisoning pull and supervised recovery.

Two trajectory rows per run, appended to ``BENCH_perf_hotpaths.json``:

* ``adversarial_poisoning`` — a report-poisoning client sweeps its
  budget over a 200-user round and the measured pull on the mean-rule
  ``Users_th`` is compared against the provable ceiling
  ``B = sum(|delta|)`` (the row records both, so a future change that
  weakens the bound shows up as measured > bound).
* ``supervised_recovery`` — the acceptance scenario: a k=4, 200-user
  round over real sockets with aggregator subprocesses, seeded WAN
  latency/jitter/loss on every link, while the fault plan kills one
  clique worker mid-round and crash-loops it once within the restart
  budget. The round must complete **bit-identically** to the in-memory
  reference; the row records the recovery latency (faulted round time
  minus the same WAN conditions without crashes). The same plan with
  retries disabled must reproduce today's fail-fast ProtocolError.
"""

import time

import pytest
from conftest import append_trajectory as _append_trajectory, print_table

from repro.api import ProtocolSession, SessionConfig, run_private_round
from repro.errors import ProtocolError
from repro.protocol.adversary import PoisoningClient, poisoning_pull_bound
from repro.protocol.client import RoundConfig
from repro.protocol.enrollment import enroll_users
from repro.protocol.net import FaultPlan, LinkFault, RetryPolicy

NUM_USERS = 200
NUM_CLIQUES = 4
CONFIG = RoundConfig(cms_depth=2, cms_width=128, cms_seed=7,
                     id_space=2000)
TARGET = "ad-target"
CRASHED = "clique-aggregator-0"

#: Every link suffers these seeded WAN conditions in the recovery bench.
WAN = LinkFault(latency_s=0.002, jitter_s=0.002, loss_prob=0.01,
                retransmit_delay_s=0.005)


def enrolled(seed=11):
    user_ids = [f"user-{i:03d}" for i in range(NUM_USERS)]
    enrollment = enroll_users(user_ids, CONFIG, seed=seed, use_oprf=False,
                              num_cliques=NUM_CLIQUES)
    for i, client in enumerate(enrollment.clients):
        client.observe_ad(f"ad-{i % 40}")
        if i % 5 == 0:
            client.observe_ad(TARGET)
    return enrollment


def test_poisoning_pull_stays_within_its_bound(benchmark):
    reference = run_private_round(CONFIG, enrolled().clients, round_id=0)

    def sweep():
        rows = []
        for boost in (1, 8, 64):
            enrollment = enrolled()
            rogue = PoisoningClient.infiltrate(enrollment.clients[0],
                                               {TARGET: boost})
            clients = [rogue] + list(enrollment.clients[1:])
            result = run_private_round(CONFIG, clients, round_id=0)
            shift = abs(result.users_threshold - reference.users_threshold)
            rows.append((boost, poisoning_pull_bound({TARGET: boost}),
                         shift))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print_table(
        "Adversarial: poisoning pull vs provable bound "
        f"({NUM_USERS} users, mean rule)",
        "  boost  bound  measured Users_th shift",
        [f"  {boost:5d}  {bound:5d}  {shift:10.4f}" +
         ("  (within bound)" if shift <= bound else "  VIOLATION")
         for boost, bound, shift in rows])
    for boost, bound, shift in rows:
        assert shift <= bound, (boost, bound, shift)
    _append_trajectory({
        "bench": "adversarial_poisoning",
        "users": NUM_USERS,
        "cliques": NUM_CLIQUES,
        "rows": [{"boost": boost, "bound": bound,
                  "threshold_shift": round(shift, 4)}
                 for boost, bound, shift in rows],
    })


def test_supervised_recovery_latency_and_bit_identity(benchmark):
    reference = run_private_round(CONFIG, enrolled().clients, round_id=0)
    policy = RetryPolicy(max_restarts=2, backoff_base_s=0.02,
                         backoff_max_s=0.1)

    def timed_round(worker_crashes, retry_policy):
        plan = FaultPlan(seed=17, default=WAN,
                         worker_crashes=worker_crashes)
        with ProtocolSession.create(
                enrolled(),
                settings=SessionConfig(
                    transport="socket", aggregator_procs=NUM_CLIQUES,
                    fault_plan=plan, retry_policy=retry_policy)) as session:
            started = time.monotonic()
            result = session.run_round(0)
            elapsed = time.monotonic() - started
            return result, elapsed, dict(session.aggregator_pool.restarts)

    def scenario():
        # The same seeded WAN weather without crashes: the latency
        # baseline the recovery cost is measured against.
        _, clean_s, _ = timed_round({}, policy)
        # Kill clique worker 0 mid-round, then kill its replacement on
        # the next exchange: one crash loop, inside the budget of 2.
        result, faulted_s, restarts = timed_round(
            {CRASHED: (20, 21)}, policy)
        return result, clean_s, faulted_s, restarts

    result, clean_s, faulted_s, restarts = benchmark.pedantic(
        scenario, rounds=1, iterations=1)

    assert restarts.get(CRASHED) == 2
    assert result.aggregate.cells == reference.aggregate.cells
    assert result.distribution.values == reference.distribution.values
    assert result.users_threshold == reference.users_threshold

    # Control leg: the identical plan with retries disabled reproduces
    # today's fail-fast ProtocolError (no supervision luck involved).
    plan = FaultPlan(seed=17, default=WAN,
                     worker_crashes={CRASHED: (20,)})
    with ProtocolSession.create(
            enrolled(),
            settings=SessionConfig(
                transport="socket", aggregator_procs=NUM_CLIQUES,
                fault_plan=plan, retry_policy=None)) as session:
        with pytest.raises(ProtocolError, match="died|closed|unreachable"):
            session.run_round(0)

    recovery_s = max(0.0, faulted_s - clean_s)
    print_table(
        f"Adversarial: supervised recovery (k={NUM_CLIQUES}, "
        f"{NUM_USERS} users, socket + WAN faults)",
        "  leg                      seconds",
        [f"  clean WAN round          {clean_s:7.3f}",
         f"  crash-looped round       {faulted_s:7.3f}",
         f"  recovery latency         {recovery_s:7.3f}",
         f"  respawns: {restarts}"])
    _append_trajectory({
        "bench": "supervised_recovery",
        "users": NUM_USERS,
        "cliques": NUM_CLIQUES,
        "crashes": 2,
        "restart_budget": policy.max_restarts,
        "clean_round_seconds": round(clean_s, 4),
        "faulted_round_seconds": round(faulted_s, 4),
        "recovery_latency_seconds": round(recovery_s, 4),
        "bit_identical": True,
    })
