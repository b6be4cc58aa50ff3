"""Perf bench for blinding-clique sharding (the Θ(U²·cells) lever).

Runs a complete private reporting round — keystream generation, blinding,
upload, aggregation, #Users distribution — at 200 users twice: unsharded
(``k=1``, every user pads against 199 peers) and sharded into ``k=4``
cliques of 50 (49 peers each). The pairwise SHAKE-256 keystream dominates
the round, so the ideal speedup is ~``k``; the bench asserts ≥ 3x and, more
importantly, that the two aggregates are **bit-identical** — sharding
changes which pads are applied, never what they sum to.

Enrollment (key generation + clique-scoped DH exchange) happens outside
the timed region: it is a one-time cost amortized over every weekly round,
while the keystream is paid per round.

Results append to ``BENCH_perf_hotpaths.json`` alongside the PR-1 data
path trajectory.
"""

import time

from conftest import append_trajectory as _append_trajectory, print_table

from repro.api import ProtocolSession, SessionConfig
from repro.protocol.aggregator import CliqueAggregator
from repro.protocol.client import RoundConfig
from repro.protocol.enrollment import enroll_users
from repro.statsutil.sampling import make_rng

NUM_USERS = 200
UNIQUE_ADS = 2000
ADS_PER_USER = 35
NUM_CLIQUES = 4

CONFIG = RoundConfig(cms_depth=6, cms_width=1024, cms_seed=7,
                     id_space=UNIQUE_ADS * 10)



def _observe_workload(enrollment, rng_seed=2024):
    rng = make_rng(rng_seed)
    urls = [f"http://ads.example/creative/{i:05d}" for i in range(UNIQUE_ADS)]
    for u, client in enumerate(sorted(enrollment.clients,
                                      key=lambda c: c.user_id)):
        anchored = [urls[(u * ADS_PER_USER + k) % UNIQUE_ADS]
                    for k in range(ADS_PER_USER // 2)]
        sampled = rng.sample(urls, ADS_PER_USER - len(anchored))
        for url in sorted(set(anchored + sampled)):
            client.observe_ad(url)


def _timed_round(num_cliques):
    enrollment = enroll_users([f"user-{i:04d}" for i in range(NUM_USERS)],
                              CONFIG, seed=11, use_oprf=False,
                              num_cliques=num_cliques)
    _observe_workload(enrollment)
    session = ProtocolSession(CONFIG, enrollment.clients)
    t0 = time.perf_counter()
    result = session.run_round(1)
    return result, time.perf_counter() - t0


def test_clique_sharding_round_speedup():
    """k=4 cliques: ≥ 3x faster private round, bit-identical aggregate."""
    flat_result, flat_s = _timed_round(num_cliques=1)
    sharded_result, sharded_s = _timed_round(num_cliques=NUM_CLIQUES)

    # The whole point: sharding must not change the aggregate at all.
    assert sharded_result.aggregate.cells == flat_result.aggregate.cells
    assert sharded_result.distribution.values == \
        flat_result.distribution.values
    assert sharded_result.users_threshold == flat_result.users_threshold
    assert len(sharded_result.reported_users) == NUM_USERS

    speedup = flat_s / sharded_s if sharded_s > 0 else float("inf")
    print_table(
        f"perf: clique sharding, full private round ({NUM_USERS} users, "
        f"{CONFIG.num_cells}-cell CMS)",
        "  (keystream is Θ(U²·cells) unsharded, Θ((U/k)·U·cells) sharded)",
        [f"  k=1 round:          {flat_s * 1000:8.1f} ms  "
         f"({NUM_USERS - 1} pads/user)",
         f"  k={NUM_CLIQUES} round:          {sharded_s * 1000:8.1f} ms  "
         f"({NUM_USERS // NUM_CLIQUES - 1} pads/user)",
         f"  speedup:            {speedup:8.2f}x  (required: >= 3x, "
         f"ideal: ~{NUM_CLIQUES}x)"])
    assert speedup >= 3.0, (
        f"k={NUM_CLIQUES} round only {speedup:.2f}x faster "
        f"({sharded_s:.3f}s vs {flat_s:.3f}s)")

    _append_trajectory({
        "bench": "clique_sharding_round",
        "timestamp": time.time(),
        "users": NUM_USERS,
        "unique_ads": UNIQUE_ADS,
        "cms_cells": CONFIG.num_cells,
        "num_cliques": NUM_CLIQUES,
        "flat_round_s": round(flat_s, 6),
        "sharded_round_s": round(sharded_s, 6),
        "speedup": round(speedup, 2),
        "aggregates_identical": True,
    })


def test_clique_sharding_recovery_speedup():
    """With one dropout, recovery adjustments stay inside one clique."""
    from repro.protocol.transport import InMemoryTransport

    def run(num_cliques):
        enrollment = enroll_users(
            [f"user-{i:04d}" for i in range(NUM_USERS)], CONFIG, seed=11,
            use_oprf=False, num_cliques=num_cliques)
        _observe_workload(enrollment)
        transport = InMemoryTransport()
        transport.fail_sender("user-0042")
        session = ProtocolSession(CONFIG, enrollment.clients,
                                  SessionConfig(transport=transport))
        t0 = time.perf_counter()
        result = session.run_round(1)
        adjustments = sum(len(e.server.adjusted_users)
                          for e in session.endpoints
                          if isinstance(e, CliqueAggregator))
        return adjustments, result, time.perf_counter() - t0

    flat_adjustments, flat_result, flat_s = run(1)
    shard_adjustments, shard_result, shard_s = run(NUM_CLIQUES)

    assert flat_result.recovery_round_used
    assert shard_result.recovery_round_used
    # Survivor truth is identical either way.
    assert shard_result.aggregate.cells == flat_result.aggregate.cells
    # Unsharded: all 199 survivors adjust. Sharded: only the victim's
    # 49 clique mates do.
    assert flat_adjustments == NUM_USERS - 1
    assert shard_adjustments == NUM_USERS // NUM_CLIQUES - 1

    print_table(
        "perf: clique sharding, round with one dropout + recovery",
        "  (adjustment fan-out is clique-local)",
        [f"  k=1:  {flat_s * 1000:8.1f} ms, "
         f"{flat_adjustments} adjustments",
         f"  k={NUM_CLIQUES}:  {shard_s * 1000:8.1f} ms, "
         f"{shard_adjustments} adjustments"])

    _append_trajectory({
        "bench": "clique_sharding_recovery",
        "timestamp": time.time(),
        "users": NUM_USERS,
        "num_cliques": NUM_CLIQUES,
        "flat_round_s": round(flat_s, 6),
        "sharded_round_s": round(shard_s, 6),
        "flat_adjustments": flat_adjustments,
        "sharded_adjustments": shard_adjustments,
    })
