"""CI smoke bench: one small fan-out session, timed and gated.

Everything under ``benchmarks/`` is auto-marked ``slow`` except tests
carrying the ``smoke`` marker (see ``conftest.py``), so CI can run

    PYTHONPATH=src python -m pytest benchmarks -m "not slow" -q

in seconds and still exercise the real protocol data path end to end:
enrollment with blinding cliques and the clique -> root aggregation
tree, checked against the plain sum of the cleartext sketches. The
timing record lands in
``BENCH_perf_hotpaths.json`` so the perf trajectory has a per-commit
gate, not just an occasional full bench run.
"""

import time

import pytest
from conftest import append_trajectory as _append_trajectory

from repro.api import ProtocolSession
from repro.protocol.client import RoundConfig
from repro.protocol.enrollment import enroll_users

NUM_USERS = 24
NUM_CLIQUES = 4
CONFIG = RoundConfig(cms_depth=4, cms_width=256, cms_seed=7, id_space=2000)

#: Generous wall-clock ceiling for the tiny session: an order of
#: magnitude above a warm laptop run, tight enough to catch a protocol
#: layer that silently fell off the vectorized path.
TIME_LIMIT_S = 20.0


def _enrolled(seed=11):
    enrollment = enroll_users([f"user-{i:03d}" for i in range(NUM_USERS)],
                              CONFIG, seed=seed, use_oprf=False,
                              num_cliques=NUM_CLIQUES)
    for i, client in enumerate(enrollment.clients):
        for j in range(8):
            client.observe_ad(f"http://ads.example/{(i * 5 + j) % 40}")
    return enrollment



@pytest.mark.smoke
def test_smoke_session_round(capsys):
    enrollment = _enrolled()
    session = ProtocolSession.create(enrollment)
    t0 = time.perf_counter()
    result = session.run_round(1)
    timings = {"fanout_sync": time.perf_counter() - t0}

    reference = CONFIG.make_sketch()
    for client in enrollment.clients:
        reference.update_many([client.ad_mapper.ad_id(url)
                               for url in client.seen_urls])
    assert result.aggregate.cells == reference.cells
    assert all(t < TIME_LIMIT_S for t in timings.values()), timings

    _append_trajectory({
        "bench": "smoke_session_round",
        "timestamp": time.time(),
        "users": NUM_USERS,
        "cliques": NUM_CLIQUES,
        "cms_cells": CONFIG.num_cells,
        **{f"{label}_s": round(t, 6) for label, t in timings.items()},
    })
    with capsys.disabled():
        print(f"\nsmoke session ({NUM_USERS} users, {NUM_CLIQUES} cliques): "
              + ", ".join(f"{k}={v * 1e3:.1f}ms"
                          for k, v in timings.items()))
