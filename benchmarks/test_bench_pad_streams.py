"""Perf bench for pad-stream caching across a multi-round session.

A multi-round epoch re-derives every pairwise SHAKE-256 pad stream each
round; an in-process session additionally derives each (pair, round)
stream *twice* — once per pair member. The shared
:class:`~repro.crypto.blinding.PadStreamProvider` keeps one absorbed XOF
state per pair for the epoch and hands each derived stream to both
members, halving the dominant SHAKE work while producing byte-identical
streams (so not just aggregates but individual blinded reports match the
uncached path bit for bit).

Measured here: a 4-round private session at 200 users (k=4 cliques,
6144-cell CMS) with caching off vs on. Required: >= 1.5x on the summed
round time, with every round's aggregate bit-identical across the two
sessions. Results append to ``BENCH_perf_hotpaths.json``.
"""

import time

from conftest import append_trajectory as _append_trajectory, print_table

from repro.api import ProtocolSession
from repro.protocol.client import RoundConfig
from repro.protocol.enrollment import enroll_users
from repro.statsutil.sampling import make_rng

NUM_USERS = 200
UNIQUE_ADS = 2000
ADS_PER_USER = 35
NUM_CLIQUES = 4
NUM_ROUNDS = 4

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


def _run_session(share_pad_streams):
    enrollment = enroll_users(
        [f"user-{i:04d}" for i in range(NUM_USERS)], CONFIG, seed=11,
        use_oprf=False, num_cliques=NUM_CLIQUES,
        share_pad_streams=share_pad_streams)
    _observe_workload(enrollment)
    session = ProtocolSession.create(enrollment)
    results, timings = [], []
    for round_id in range(NUM_ROUNDS):
        t0 = time.perf_counter()
        results.append(session.run_round(round_id))
        timings.append(time.perf_counter() - t0)
    return enrollment, results, timings


def test_pad_stream_caching_speedup():
    """Cached 4-round session >= 1.5x, aggregates bit-identical."""
    _enr_u, uncached_results, uncached_t = _run_session(False)
    enr_c, cached_results, cached_t = _run_session(True)

    # Bit-identical outputs, round for round: caching changes where a
    # stream is computed, never its bytes.
    for uncached, cached in zip(uncached_results, cached_results):
        assert cached.aggregate.cells == uncached.aggregate.cells
        assert cached.distribution.values == uncached.distribution.values
        assert cached.users_threshold == uncached.users_threshold

    # Each round's pair streams were computed once, fetched twice.
    pads = enr_c.pad_streams
    assert pads.hits == pads.misses > 0

    uncached_s, cached_s = sum(uncached_t), sum(cached_t)
    speedup = uncached_s / cached_s if cached_s > 0 else float("inf")
    print_table(
        f"perf: pad-stream caching, {NUM_ROUNDS}-round private session "
        f"({NUM_USERS} users, k={NUM_CLIQUES}, {CONFIG.num_cells}-cell CMS)",
        "  (shared provider: one SHAKE squeeze per pair stream, both "
        "members reuse it)",
        [f"  uncached rounds:  {uncached_s * 1000:8.1f} ms total  "
         f"({', '.join(f'{t * 1000:.0f}' for t in uncached_t)} ms)",
         f"  cached rounds:    {cached_s * 1000:8.1f} ms total  "
         f"({', '.join(f'{t * 1000:.0f}' for t in cached_t)} ms)",
         f"  speedup:          {speedup:8.2f}x  (required: >= 1.5x)"])
    assert speedup >= 1.5, (
        f"cached session only {speedup:.2f}x faster "
        f"({cached_s:.3f}s vs {uncached_s:.3f}s)")

    _append_trajectory({
        "bench": "pad_stream_caching_session",
        "timestamp": time.time(),
        "users": NUM_USERS,
        "num_cliques": NUM_CLIQUES,
        "rounds": NUM_ROUNDS,
        "cms_cells": CONFIG.num_cells,
        "uncached_rounds_s": round(uncached_s, 6),
        "cached_rounds_s": round(cached_s, 6),
        "speedup": round(speedup, 2),
        "aggregates_identical": True,
    })
