"""Full protocol rounds over the byte-exact wire codec."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.protocol.aggregator import CliqueAggregator
from repro.protocol.client import RoundConfig
from repro.api import ProtocolSession, SessionConfig
from repro.protocol.enrollment import enroll_users
from repro.protocol import wire
from repro.protocol.messages import (
    BlindedReport,
    BlindingAdjustment,
    CellVector,
    MissingClientsNotice,
    ThresholdBroadcast,
)
from repro.protocol.net.transport import SocketTransport
from repro.protocol.transport import InMemoryTransport, WireTransport

CONFIG = RoundConfig(cms_depth=4, cms_width=64, cms_seed=3, id_space=200)

#: Cell values at both edges of a 4-byte cell and just past them.
EDGE_CELLS = [0, 2**32 - 1, 2**32, -1, 2**64 - 1]


@pytest.fixture(scope="module")
def transports():
    made = {"memory": InMemoryTransport(), "wire": WireTransport(),
            "socket": SocketTransport()}
    for transport in made.values():
        transport.register("aggregator")
    yield made
    made["socket"].close()


class TestCellRange:
    """A cell arrives exactly as sent or not at all: on the codec
    transports ``encode`` refuses a value outside ``[0, 2^32)``, and on
    memory the clique aggregator's intake does — nothing wraps it
    silently."""

    @pytest.mark.parametrize("name", ["memory", "wire", "socket"])
    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from([BlindedReport, BlindingAdjustment]),
           cells=st.lists(st.sampled_from(EDGE_CELLS), min_size=1,
                          max_size=5))
    def test_cells_arrive_exact_or_are_refused(self, transports, name,
                                               kind, cells):
        transport = transports[name]
        aggregator = CliqueAggregator(
            0, RoundConfig(cms_depth=1, cms_width=len(cells), cms_seed=0,
                           id_space=1), {"u": 0, "v": 1, "w": 2})
        aggregator.on_round_start(1)
        counted = aggregator._reports
        if kind is BlindingAdjustment:
            # An adjustment is taken only from a reporter sent a notice,
            # and a notice goes out only while two members report.
            for user in ("u", "v"):
                aggregator.on_message(user, BlindedReport(
                    user, 1, cells=(0,) * len(cells)))
            assert aggregator.on_idle(1)
            counted = aggregator._adjustments
        message = kind("u", 1, cells=tuple(cells))

        def deliver():
            transport.send("u", "aggregator", message)
            _sender, delivered = transport.receive("aggregator")
            aggregator.on_message("u", delivered)
            return delivered

        if all(0 <= cell < 2**32 for cell in cells):
            delivered = deliver()
            assert delivered == message
            array = delivered.cells_as_array()
            assert array.dtype == np.uint32 and array.tolist() == cells
        else:
            with pytest.raises(ProtocolError, match=r"\[0, 2\^32\)"):
                deliver()
            with pytest.raises(ProtocolError, match=r"\[0, 2\^32\)"):
                CellVector(cells)
            assert transport.pending("aggregator") == 0
            assert "u" not in counted


#: One message of each round-scoped kind, built for a given round id.
ROUND_MESSAGES = {
    "report": lambda r: BlindedReport("u", r, cells=(1, 2)),
    "adjustment": lambda r: BlindingAdjustment("u", r, cells=(3,)),
    "notice": lambda r: MissingClientsNotice(round_id=r, missing_indexes=(4,)),
    "broadcast": lambda r: ThresholdBroadcast(round_id=r, users_threshold=1.5),
}


class TestRoundIdRange:
    """The header carries the round id in 4 bytes: ``encode`` refuses
    one outside ``[0, 2^32)`` with ``ProtocolError``, as it refuses an
    out-of-range clique id, and both edges round-trip."""

    @pytest.mark.parametrize("kind", ROUND_MESSAGES)
    @pytest.mark.parametrize("round_id", [-1, 2**32, 2**63])
    def test_out_of_range_round_id_is_refused(self, kind, round_id):
        with pytest.raises(ProtocolError, match=r"round_id .* \[0, 2\^32\)"):
            wire.encode(ROUND_MESSAGES[kind](round_id))

    @pytest.mark.parametrize("kind", ROUND_MESSAGES)
    @pytest.mark.parametrize("round_id", [0, 2**32 - 1])
    def test_edge_round_ids_round_trip(self, kind, round_id):
        message = ROUND_MESSAGES[kind](round_id)
        assert wire.decode(wire.encode(message)) == message


class TestWireTransportRound:
    def test_round_over_encoded_bytes(self):
        """The complete round survives serialization of every message."""
        enrollment = enroll_users([f"u{i}" for i in range(4)], CONFIG,
                                  seed=2, use_oprf=False)
        for client in enrollment.clients:
            client.observe_ad("http://everyone.example/ad")
        enrollment.clients[1].observe_ad("http://rare.example/ad")
        session = ProtocolSession(
            CONFIG, enrollment.clients,
            SessionConfig(transport=WireTransport()))
        result = session.run_round(5)
        mapper = enrollment.clients[0].ad_mapper
        assert result.aggregate.query(
            mapper.ad_id("http://everyone.example/ad")) >= 4
        assert result.aggregate.query(
            mapper.ad_id("http://rare.example/ad")) >= 1

    def test_recovery_round_over_wire(self):
        enrollment = enroll_users([f"u{i}" for i in range(5)], CONFIG,
                                  seed=3, use_oprf=False)
        for client in enrollment.clients:
            client.observe_ad("http://shared.example/ad")
        session = ProtocolSession(CONFIG, enrollment.clients,
                                  SessionConfig(transport=WireTransport()))
        session.drop_users(["u2"])
        result = session.run_round(1)
        assert result.missing_users == ["u2"]
        mapper = enrollment.clients[0].ad_mapper
        assert result.aggregate.query(
            mapper.ad_id("http://shared.example/ad")) >= 4

    def test_byte_accounting_uses_real_sizes(self):
        enrollment = enroll_users(["a", "b"], CONFIG, seed=4,
                                  use_oprf=False)
        transport = WireTransport()
        session = ProtocolSession(
            CONFIG, enrollment.clients, SessionConfig(transport=transport))
        result = session.run_round(0)
        # Each report is 16B header + id + 4B/cell; two reports plus
        # broadcasts must exceed two raw cell payloads.
        assert result.total_bytes > 2 * CONFIG.num_cells * 4

    def test_unencodable_message_rejected(self):
        transport = WireTransport()
        transport.register("dst")
        with pytest.raises(ProtocolError):
            transport.send("src", "dst", {"not": "a protocol message"})
