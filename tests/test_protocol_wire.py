"""Round-trip, registry and error tests for the binary wire codec."""

import dataclasses
import inspect
import typing

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ProtocolError
from repro.protocol import messages, wire
from repro.protocol.messages import (
    BlindedReport,
    BlindingAdjustment,
    CleartextReport,
    MissingClientsNotice,
    PartialAggregate,
    PublicKeyAnnouncement,
    ThresholdBroadcast,
)
from repro.protocol.wire import decode, encode


SAMPLES = [
    PublicKeyAnnouncement("user-1", public_key=0xDEADBEEF, element_bytes=16),
    BlindedReport("user-2", round_id=3, cells=(0, 1, 0xFFFFFFFF, 42)),
    CleartextReport("user-3", round_id=1,
                    urls=("http://a.example/x", "http://b.example/y"),
                    bytes_per_char=2),
    MissingClientsNotice(round_id=9, missing_indexes=(0, 5, 17)),
    BlindingAdjustment("user-4", round_id=2, cells=(7, 8, 9)),
    ThresholdBroadcast(round_id=4, users_threshold=2.25),
]
#: One sample of every wire type, multi-byte characters included.
EVERY_TYPE = [pytest.param(m, id=type(m).__name__) for m in SAMPLES] + [
    pytest.param(CleartextReport("üser", 1, urls=("http://ü.example/päth",)),
                 id="CleartextReport-unicode"),
    pytest.param(PartialAggregate(clique_id=3, round_id=5, cells=(1, 2, 3),
                                  reported=("user-1", "üser-2"),
                                  missing=("user-3",)),
                 id="PartialAggregate"),
]
HEADER = 16


class TestRoundTrip:
    @pytest.mark.parametrize("message", EVERY_TYPE)
    def test_encode_decode_identity(self, message):
        assert decode(encode(message)) == message

    def test_every_message_class_is_registered(self):
        """The message classes (dataclasses defining ``size_bytes``) are
        exactly the codec's tagged types, the ``Message`` union and the
        types sampled above, and no two share a tag."""
        classes = {
            cls for _name, cls in inspect.getmembers(messages, inspect.isclass)
            if cls.__module__ == messages.__name__
            and dataclasses.is_dataclass(cls) and "size_bytes" in vars(cls)}
        assert set(wire._TYPE_OF) == classes
        assert set(typing.get_args(wire.Message)) == classes
        assert {type(p.values[0]) for p in EVERY_TYPE} == classes
        assert len(set(wire._TYPE_OF.values())) == len(classes)

    def test_empty_collections(self):
        assert decode(encode(BlindedReport("u", 0, cells=()))) == \
            BlindedReport("u", 0, cells=())
        assert decode(encode(MissingClientsNotice(0, ()))) == \
            MissingClientsNotice(0, ())
        assert decode(encode(CleartextReport("u", 0, urls=()))) == \
            CleartextReport("u", 0, urls=())

    def test_unicode_urls(self):
        report = CleartextReport("üser", 1, urls=("http://ü.example/päth",))
        assert decode(encode(report)) == report

    def test_wire_size_tracks_size_bytes(self):
        """The declared size model matches the real encoding closely."""
        report = BlindedReport("u1", 1, cells=tuple(range(256)))
        encoded = encode(report)
        # size_bytes() assumes a 16-byte header; the codec adds a small
        # variable-length id field on top.
        assert abs(len(encoded) - report.size_bytes()) < 32

    @settings(max_examples=30)
    @given(st.text(max_size=30),
           st.integers(min_value=0, max_value=2 ** 31 - 1),
           st.lists(st.integers(min_value=0, max_value=2 ** 32 - 1),
                    max_size=64))
    def test_blinded_report_roundtrip_property(self, user_id, round_id,
                                               cells):
        message = BlindedReport(user_id, round_id, tuple(cells))
        assert decode(encode(message)) == message


class TestErrors:
    def test_short_message(self):
        with pytest.raises(ProtocolError):
            decode(b"eW")

    def test_bad_magic(self):
        data = bytearray(encode(SAMPLES[1]))
        data[0:2] = b"XX"
        with pytest.raises(ProtocolError):
            decode(bytes(data))

    def test_bad_version(self):
        data = bytearray(encode(SAMPLES[1]))
        data[2] = 99
        with pytest.raises(ProtocolError):
            decode(bytes(data))

    def test_truncated_payload(self):
        data = encode(SAMPLES[1])
        with pytest.raises(ProtocolError):
            decode(data[:-3])

    def test_unknown_type_tag(self):
        data = bytearray(encode(SAMPLES[5]))
        data[3] = 42
        with pytest.raises(ProtocolError):
            decode(bytes(data))

    def test_unencodable_type(self):
        with pytest.raises(ProtocolError):
            encode("just a string")  # type: ignore[arg-type]

    def test_oversized_string_field(self):
        report = CleartextReport("u", 1, urls=("x" * 70000,))
        with pytest.raises(ProtocolError):
            encode(report)

    @pytest.mark.parametrize("message", EVERY_TYPE)
    def test_every_truncation_is_a_protocol_error(self, message):
        """Cut the payload anywhere and fix the header's length field up,
        so only the payload parser can notice."""
        data = encode(message)
        payload = data[HEADER:]
        for cut in range(len(payload)):
            header = bytearray(data[:HEADER])
            header[8:12] = cut.to_bytes(4, "big")
            with pytest.raises(ProtocolError):
                decode(bytes(header) + payload[:cut])

    @pytest.mark.parametrize("message", EVERY_TYPE)
    def test_trailing_bytes_are_a_protocol_error(self, message):
        """Bytes past the last field, covered by the header's length
        field, are refused rather than ignored."""
        data = encode(message)
        for extra in (b"\x00", b"\x00\x00\x00\x07"):
            header = bytearray(data[:HEADER])
            header[8:12] = (len(data) - HEADER + len(extra)).to_bytes(4, "big")
            with pytest.raises(ProtocolError, match="trailing"):
                decode(bytes(header) + data[HEADER:] + extra)

    def test_string_length_past_the_payload_is_a_protocol_error(self):
        data = bytearray(encode(BlindedReport("ab", 1, cells=(1, 2))))
        data[HEADER:HEADER + 2] = (200).to_bytes(2, "big")
        with pytest.raises(ProtocolError, match="overruns"):
            decode(bytes(data))
