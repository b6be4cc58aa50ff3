"""Golden vectors: a round's wire bytes, frozen.

``tests/data/protocol_vectors.json`` holds, per scenario, the sha256 of
the sorted wire encodings of every delivered ``BlindedReport`` and
``BlindingAdjustment`` of one round, the sha256 of the round's aggregate
cells and its ``Users_th``. Both client backends must reproduce them
byte for byte, so the values outlive either implementation. The file is
written by hand from a mismatch report: this test prints what it
computed and never rewrites the file.
"""

import functools
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.api import ProtocolSession, SessionConfig
from repro.protocol import wire
from repro.protocol.client import RoundConfig
from repro.protocol.messages import (
    BlindedReport,
    BlindingAdjustment,
    CellVector,
    PartialAggregate,
)
from repro.protocol.net.transport import SocketTransport
from repro.protocol.transport import InMemoryTransport, WireTransport
from repro.store import HistoryStore

VECTORS = json.loads(
    (Path(__file__).parent / "data" / "protocol_vectors.json").read_text())
CONFIG = RoundConfig(cms_depth=4, cms_width=64, cms_seed=11, id_space=512)
USERS = [f"u{i:02d}" for i in range(12)]
SEED = 7

#: name -> (cliques, OPRF on, how the recorded round is reached).
SCENARIOS = {
    "k1": (1, False, "plain"),
    "k4": (4, False, "plain"),
    "k4-dropout": (4, False, "dropout"),
    "k4-after-churn": (4, False, "churn"),
    "k4-after-resume": (4, False, "resume"),
    "k4-oprf": (4, True, "plain"),
}


def observe(session, week):
    """Overlapping per-week ad sets, one unique ad per user."""
    session.reset_windows()
    if session.army is not None:
        observe_of = {uid: functools.partial(session.army.observe_ad, uid)
                      for uid in session.army.user_ids}
    else:
        observe_of = {c.user_id: c.observe_ad for c in session.clients}
    for i, uid in enumerate(sorted(observe_of)):
        for k in range(3):
            observe_of[uid](f"http://ads.example/w{week}/{(i + k) % 5}")
        observe_of[uid](f"http://ads.example/w{week}/{uid}")


def run_scenario(name, backend, transport=None):
    """The vector of ``name``'s recorded round on ``backend``, over
    ``transport`` (a recording wire transport by default)."""
    num_cliques, use_oprf, kind = SCENARIOS[name]
    if transport is None:
        transport = WireTransport(record_transcript=True)
    settings = SessionConfig(transport=transport, client_backend=backend)
    store = HistoryStore() if kind == "resume" else None
    session = ProtocolSession.create(
        USERS, CONFIG,
        SessionConfig(client_backend=backend) if store is not None else settings,
        store=store, store_name="s", seed=SEED,
        use_oprf=use_oprf, num_cliques=num_cliques)
    try:
        observe(session, 0)
        if kind == "dropout":
            session.drop_users([USERS[5]])
        if kind in ("churn", "resume"):
            session.run_round(0)
            if kind == "churn":
                session.advance_epoch(joins=["u90"], leaves=[USERS[3]])
            else:
                session.close()
                session = ProtocolSession.resume(
                    store, name="s", settings=settings)
            observe(session, 1)
            transport.transcript.clear()
        result = session.run_next_round()
    finally:
        session.close()
        if store is not None:
            store.close()
    # The recorded round is the one the scenario means to freeze.
    assert result.round_id == (1 if kind in ("churn", "resume") else 0)
    assert result.missing_users == ([USERS[5]] if kind == "dropout" else [])
    assert result.recovery_round_used == (kind == "dropout")
    digest = hashlib.sha256()
    for encoded in sorted(
            wire.encode(message)
            for _sender, _recipient, message in transport.transcript
            if isinstance(message, (BlindedReport, BlindingAdjustment))):
        digest.update(encoded)
    cells = np.asarray(result.aggregate.cells_array, dtype="<u8")
    return {
        "messages_sha256": digest.hexdigest(),
        "cells_sha256": hashlib.sha256(cells.tobytes()).hexdigest(),
        "users_threshold": result.users_threshold,
    }


@pytest.mark.parametrize("backend", ["objects", "batched"])
@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_round_matches_golden_vector(name, backend):
    computed = run_scenario(name, backend)
    assert computed == VECTORS["scenarios"][name], (
        f"{name} on {backend} computed {json.dumps(computed)}")


TRANSPORTS = {"memory": InMemoryTransport, "wire": WireTransport,
              "socket": SocketTransport}


@pytest.mark.parametrize("backend", ["objects", "batched"])
@pytest.mark.parametrize("transport_name", sorted(TRANSPORTS))
def test_delivered_cells_are_read_only_uint32(transport_name, backend):
    """Blinded cells are 4 bytes from blinding to root on every
    transport: each delivered report, adjustment and partial carries a
    read-only ``uint32`` array, and the round is still the golden one."""
    transport = TRANSPORTS[transport_name](record_transcript=True)
    try:
        computed = run_scenario("k4-dropout", backend, transport)
    finally:
        if isinstance(transport, SocketTransport):
            transport.close()
    delivered = [message for _sender, _recipient, message
                 in transport.transcript
                 if isinstance(message, (BlindedReport, BlindingAdjustment,
                                         PartialAggregate))]
    assert {type(m) for m in delivered} == {
        BlindedReport, BlindingAdjustment, PartialAggregate}
    for message in delivered:
        assert isinstance(message.cells, CellVector)
        assert message.cells.array.dtype == np.uint32
        assert not message.cells.array.flags.writeable
    assert computed == VECTORS["scenarios"]["k4-dropout"]
