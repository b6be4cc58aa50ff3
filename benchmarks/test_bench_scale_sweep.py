"""Scale sweep for the batched client backend: 1k -> 100k+ users.

One private reporting round per scale through the full message-driven
machinery — :class:`~repro.protocol.army.ClientArmy` struct-of-arrays
clients, per-clique aggregators, the fan-in-bounded regional merge tree
and the root — charting **users per second** and **peak RSS** as the
population grows. Every row appends to ``BENCH_perf_hotpaths.json``.

Cost model the sweep charts (see docs/scaling.md):

* **enrollment** — Θ(U) keypairs + Θ(U·(c-1)/2) pair modexps at clique
  size c (the army derives each pair's DH secret once; the object
  backend derives it at both ends);
* **round** — Θ(U·(c-1)·cells) SHAKE-256 keystream + Θ(U·cells) NumPy
  sketch/blind work for the army, then Θ(U) transport messages through
  Θ(U/c) clique aggregators and a depth-⌈log_f(U/c)⌉ regional tier at
  fan-in f (every endpoint, root included, merges ≤ f partials);
* **memory** — the army holds Θ(U) roster/index state but only one
  clique's (c × cells) pad/sketch matrices at a time; the dominant
  resident term is the transport's in-flight messages, Θ(U·cells).

The two sweep entry points:

* ``scale_smoke`` (CI): 1k and 5k users, plus a 1k-user byte-identity
  check against the object backend — the tree and the army change *how*
  the sum is computed, never the sum;
* ``scale_full`` (nightly): ascending 1k / 5k / 20k / 100k. Ascending
  because ``peak_rss_mb`` is a lifetime high-watermark: each scale's
  reading is attributable to that scale only if no bigger scale ran
  before it.
"""

import gc
import time

import numpy as np
import pytest
from conftest import append_trajectory, peak_rss_mb, print_table

from repro.api import ProtocolSession, SessionConfig
from repro.protocol.client import RoundConfig

#: Sweep sketch: 4 x 256 = 1024 cells keeps the per-pair keystream at
#: 4 KiB — large enough to exercise the vectorized cell path, small
#: enough that a 100k-user round's keystream stays near a gigabyte.
CONFIG = RoundConfig(cms_depth=4, cms_width=256, cms_seed=7, id_space=5000)
#: Paper-realistic small cliques: blinding work per user stays O(c).
CLIQUE_SIZE = 4
#: Regional tree bound; 100k users -> 25k cliques -> 391 -> 7 regions.
FAN_IN = 64
UNIQUE_ADS = 400
ADS_PER_USER = 3

SMOKE_SCALES = (1_000, 5_000)
FULL_SCALES = (1_000, 5_000, 20_000, 100_000)


def _users_for(scale):
    return [f"user-{i:06d}" for i in range(scale)]


def _urls_for(position):
    return [f"http://ads.example/{(position * 7 + k) % UNIQUE_ADS:05d}"
            for k in range(ADS_PER_USER)]


def _run_batched_round(scale, fan_in=FAN_IN):
    """One full batched round at ``scale`` users; returns the metrics row
    and the aggregate cells (for cross-backend identity checks)."""
    gc.collect()
    t0 = time.perf_counter()
    session = ProtocolSession.create(
        _users_for(scale), CONFIG,
        SessionConfig(client_backend="batched", fan_in=fan_in), seed=3,
        use_oprf=False, num_cliques=max(1, scale // CLIQUE_SIZE))
    enroll_s = time.perf_counter() - t0
    army = session.army
    for position, uid in enumerate(army.user_ids):
        army.observe_ads(uid, _urls_for(position))
    t0 = time.perf_counter()
    result = session.run_round(0)
    round_s = time.perf_counter() - t0
    assert sorted(result.reported_users) == army.user_ids
    assert result.missing_users == []
    row = {
        "bench": "scale_sweep",
        "backend": "batched",
        "users": scale,
        "cliques": max(1, scale // CLIQUE_SIZE),
        "fan_in": fan_in,
        "enroll_s": round(enroll_s, 3),
        "round_s": round(round_s, 3),
        "users_per_s": round(scale / round_s, 1),
        "peak_rss_mb": round(peak_rss_mb(), 1),
    }
    cells = np.asarray(result.aggregate.cells_array).copy()
    session.close()
    return row, cells


def _run_object_round(scale):
    """The per-user-object reference round at the same scale/layout."""
    session = ProtocolSession.create(
        _users_for(scale), CONFIG, SessionConfig(fan_in=FAN_IN), seed=3,
        use_oprf=False, num_cliques=max(1, scale // CLIQUE_SIZE))
    by_id = {c.user_id: c for c in session.clients}
    for position, uid in enumerate(sorted(by_id)):
        for url in _urls_for(position):
            by_id[uid].observe_ad(url)
    result = session.run_round(0)
    cells = np.asarray(result.aggregate.cells_array).copy()
    session.close()
    return cells


def _sweep(scales, check_identity_at=None):
    rows = []
    for scale in scales:
        row, cells = _run_batched_round(scale)
        if scale == check_identity_at:
            assert np.array_equal(cells, _run_object_round(scale)), \
                f"batched aggregate diverged from object backend at {scale}"
            row["identity_checked"] = True
        rows.append(row)
        append_trajectory(row)
    print_table(
        "batched-backend scale sweep",
        f"{'users':>8} {'cliques':>8} {'enroll s':>9} {'round s':>8} "
        f"{'users/s':>9} {'peak MB':>8}",
        (f"{r['users']:>8} {r['cliques']:>8} {r['enroll_s']:>9.2f} "
         f"{r['round_s']:>8.2f} {r['users_per_s']:>9.0f} "
         f"{r['peak_rss_mb']:>8.0f}" for r in rows))
    return rows


@pytest.mark.scale_smoke
def test_scale_smoke_5k_round():
    """CI gate: 1k (identity-checked against the object backend) and 5k
    users complete a batched round; throughput must not collapse."""
    rows = _sweep(SMOKE_SCALES, check_identity_at=1_000)
    assert rows[0].get("identity_checked")
    for row in rows:
        assert row["users_per_s"] > 50, row


@pytest.mark.scale_full
def test_scale_full_100k_sweep():
    """Nightly: ascending sweep to 100k+ users; the tentpole deliverable
    is the 100k round completing at all (flat fan-out would put 25k
    partials on the root; the fan-in tree keeps every merge <= 64)."""
    rows = _sweep(FULL_SCALES, check_identity_at=1_000)
    top = rows[-1]
    assert top["users"] >= 100_000
    assert top["users_per_s"] > 50, top
