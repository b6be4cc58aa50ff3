"""CI smoke bench: the distributed round over real sockets, timed.

Runs the same small k=4 session three ways — in-memory fan-out, the
socket transport (every message through a real TCP connection), and the
socket transport with every aggregator (and the root) as a subprocess —
asserts the aggregates are bit-identical across all three, and records
round latency plus bytes-on-the-wire into ``BENCH_perf_hotpaths.json``.
The record is the per-commit trajectory of what the networked layer
costs relative to the in-process path.
"""

import time

import pytest
from conftest import append_trajectory, print_table

from repro.api import ProtocolSession, SessionConfig
from repro.protocol.client import RoundConfig
from repro.protocol.enrollment import enroll_users

NUM_USERS = 24
NUM_CLIQUES = 4
CONFIG = RoundConfig(cms_depth=4, cms_width=256, cms_seed=7, id_space=2000)

#: Generous ceiling: subprocess spawns plus a tiny round take ~2s warm;
#: an order of magnitude above that still catches a transport layer
#: that stopped quiescing or started busy-looping.
TIME_LIMIT_S = 60.0


def _enrolled(seed=11):
    enrollment = enroll_users([f"user-{i:03d}" for i in range(NUM_USERS)],
                              CONFIG, seed=seed, use_oprf=False,
                              num_cliques=NUM_CLIQUES)
    for i, client in enumerate(enrollment.clients):
        for j in range(8):
            client.observe_ad(f"http://ads.example/{(i * 5 + j) % 40}")
    return enrollment


@pytest.mark.smoke
def test_smoke_socket_transport_round(capsys):
    variants = (
        ("memory_fanout", dict(transport=None, aggregator_procs=0)),
        ("socket_fanout", dict(transport="socket", aggregator_procs=0)),
        ("socket_procs", dict(transport="socket",
                              aggregator_procs=NUM_CLIQUES)),
    )
    timings, results, wire_bytes, spawn = {}, {}, {}, {}
    for label, kwargs in variants:
        t0 = time.perf_counter()
        session = ProtocolSession.create(
            _enrolled(), settings=SessionConfig(**kwargs))
        spawn[label] = time.perf_counter() - t0
        with session:
            t0 = time.perf_counter()
            results[label] = session.run_round(1)
            timings[label] = time.perf_counter() - t0
            wire_bytes[label] = session.transport.total_bytes

    reference = results["memory_fanout"]
    for label in ("socket_fanout", "socket_procs"):
        assert results[label].aggregate.cells == reference.aggregate.cells
        assert results[label].users_threshold == reference.users_threshold
    # Byte-exact transports agree on bytes-on-the-wire with each other
    # (the in-memory transport bills the size model instead).
    assert wire_bytes["socket_fanout"] == wire_bytes["socket_procs"]
    assert timings["socket_procs"] < TIME_LIMIT_S

    with capsys.disabled():
        print_table(
            "Socket transport smoke (distributed round)",
            f"{'variant':16s} {'wiring (s)':>11s} {'round (s)':>10s} "
            f"{'wire bytes':>11s}",
            [f"{label:16s} {spawn[label]:11.3f} {timings[label]:10.3f} "
             f"{wire_bytes[label]:11d}"
             for label, _ in variants],
        )
    append_trajectory({
        "bench": "socket_transport_smoke",
        "users": NUM_USERS,
        "cliques": NUM_CLIQUES,
        "cells": CONFIG.num_cells,
        "round_seconds": {label: round(timings[label], 4)
                          for label, _ in variants},
        "wiring_seconds": {label: round(spawn[label], 4)
                           for label, _ in variants},
        "wire_bytes": wire_bytes["socket_procs"],
    })
