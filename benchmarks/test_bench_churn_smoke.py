"""CI smoke bench: the epoch lifecycle end to end, timed and gated.

A small churned deployment: enroll, run two rounds, rotate membership
with ``advance_epoch`` (joins + leaves from a deterministic churn
schedule), run two more rounds — asserting the post-churn aggregate is
bit-identical to a fresh enrollment of the same roster and that the
transition re-keyed only the users whose clique changed. Carries the
``smoke`` marker so CI runs it per commit (everything else under
``benchmarks/`` is auto-marked ``slow``); the timing record lands in
``BENCH_perf_hotpaths.json``.
"""

import time

import pytest
from conftest import append_trajectory as _append_trajectory

from repro.api import ProtocolSession
from repro.protocol.client import RoundConfig
from repro.simulation.churn import churn_schedule

NUM_USERS = 24
NUM_CLIQUES = 4
CHURN_RATE = 0.25
CONFIG = RoundConfig(cms_depth=4, cms_width=256, cms_seed=7, id_space=2000)

#: Generous wall-clock ceiling: an order of magnitude above a warm
#: laptop run, tight enough to catch an epoch transition that silently
#: re-runs full enrollment.
TIME_LIMIT_S = 20.0


def _observe(session, salt=0):
    session.reset_windows()
    for i, client in enumerate(sorted(session.clients,
                                      key=lambda c: c.user_id)):
        for j in range(8):
            client.observe_ad(f"http://ads.example/{(i * 5 + j + salt) % 40}")


@pytest.mark.smoke
def test_churn_smoke_epoch_lifecycle(capsys):
    roster = [f"user-{i:03d}" for i in range(NUM_USERS)]
    plan = churn_schedule(roster, 1, CHURN_RATE, seed=11,
                          rejoin_probability=0.0)[0]

    t0 = time.perf_counter()
    session = ProtocolSession.create(
        roster, CONFIG, seed=11, use_oprf=False, num_cliques=NUM_CLIQUES)
    enroll_s = time.perf_counter() - t0

    _observe(session)
    t0 = time.perf_counter()
    for _ in range(2):
        session.run_next_round()
    epoch0_rounds_s = time.perf_counter() - t0

    t0 = time.perf_counter()
    transition = session.advance_epoch(joins=plan.joins,
                                       leaves=plan.leaves)
    advance_s = time.perf_counter() - t0

    _observe(session, salt=3)
    t0 = time.perf_counter()
    result = None
    for _ in range(2):
        result = session.run_next_round()
    epoch1_rounds_s = time.perf_counter() - t0

    # Only churn-affected users were re-keyed, and the epoch advance
    # must cost far less than enrollment (that is its entire point).
    assert set(transition.rekeyed) == \
        set(transition.joined) | set(transition.moved)
    assert transition.secrets_reused > 0
    assert len(result.reported_users) == NUM_USERS

    # Bit-identical to a fresh enrollment of the post-churn roster.
    reference = ProtocolSession.create(
        list(session.epoch.user_ids), CONFIG, seed=11, use_oprf=False,
        num_cliques=NUM_CLIQUES)
    _observe(reference, salt=3)
    ref_result = reference.run_round(0)
    assert result.aggregate.cells == ref_result.aggregate.cells
    assert result.users_threshold == ref_result.users_threshold

    timings = {
        "enroll_s": enroll_s,
        "epoch0_rounds_s": epoch0_rounds_s,
        "advance_epoch_s": advance_s,
        "epoch1_rounds_s": epoch1_rounds_s,
    }
    assert all(t < TIME_LIMIT_S for t in timings.values()), timings

    _append_trajectory({
        "bench": "churn_smoke_epoch_lifecycle",
        "timestamp": time.time(),
        "users": NUM_USERS,
        "cliques": NUM_CLIQUES,
        "churn_rate": CHURN_RATE,
        "rekeyed": len(transition.rekeyed),
        "modexps": transition.modexps,
        "secrets_reused": transition.secrets_reused,
        **{k: round(v, 6) for k, v in timings.items()},
    })
    with capsys.disabled():
        print(f"\nchurn smoke ({NUM_USERS} users, {NUM_CLIQUES} cliques, "
              f"{CHURN_RATE:.0%} churn): "
              + ", ".join(f"{k}={v * 1e3:.1f}ms" for k, v in timings.items())
              + f"; re-keyed {len(transition.rekeyed)}, "
                f"{transition.modexps} modexps, "
                f"{transition.secrets_reused} secrets reused")
