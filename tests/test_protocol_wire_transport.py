"""Full protocol rounds over the byte-exact wire codec."""

import pytest

from repro.errors import ProtocolError
from repro.protocol.client import RoundConfig
from repro.api import ProtocolSession, SessionConfig
from repro.protocol.enrollment import enroll_users
from repro.protocol.transport import WireTransport

CONFIG = RoundConfig(cms_depth=4, cms_width=64, cms_seed=3, id_space=200)


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
        transport = WireTransport()
        transport.fail_sender("u2")
        result = ProtocolSession(
            CONFIG, enrollment.clients,
            SessionConfig(transport=transport)).run_round(1)
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
