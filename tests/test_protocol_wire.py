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

#: One fixed instance of every wire type with its encoding, recorded
#: before the codec was rewritten: non-default clique ids, non-ASCII
#: strings and a cell of 2^32 - 1 wherever the type carries them.
GOLDEN = [
    (PublicKeyAnnouncement("ünïcode-1", public_key=0xDEADBEEFCAFE,
                           element_bytes=8),
     "65570101000000000000001700000000000bc3bc6ec3af636f64652d3100080000"
     "deadbeefcafe"),
    (BlindedReport("用户-2", round_id=7, cells=(0, 1, 0xFFFFFFFF, 42),
                   clique_id=513),
     "65570102000000070000001e020100000008e794a8e688b72d3200000004000000"
     "0000000001ffffffff0000002a"),
    (CleartextReport("üser-3", round_id=65537,
                     urls=("http://ü.example/päth", "http://b.example/€"),
                     bytes_per_char=2),
     "65570103000100010000003d000000000007c3bc7365722d330200000002001768"
     "7474703a2f2fc3bc2e6578616d706c652f70c3a474680014687474703a2f2f622e"
     "6578616d706c652fe282ac"),
    (MissingClientsNotice(round_id=9, missing_indexes=(0, 5, 0xFFFFFFFF),
                          clique_id=300),
     "655701040000000900000010012c0000000000030000000000000005ffffffff"),
    (BlindingAdjustment("ädjust-4", round_id=2, cells=(0xFFFFFFFF, 8, 0),
                        clique_id=65535),
     "65570105000000020000001bffff00000009c3a4646a7573742d3400000003ffff"
     "ffff0000000800000000"),
    (ThresholdBroadcast(round_id=0xFFFFFFFF, users_threshold=2.25),
     "65570106ffffffff00000008000000004002000000000000"),
    (PartialAggregate(clique_id=1027, round_id=5, cells=(1, 0xFFFFFFFF, 3),
                      reported=("user-1", "üser-2"), missing=("ñ-3",)),
     "65570107000000050000002f04030000000000020006757365722d310007c3bc73"
     "65722d32000000010004c3b12d330000000300000001ffffffff00000003"),
]


class TestGoldenBytes:
    def test_every_type_is_pinned(self):
        assert {type(m) for m, _ in GOLDEN} == set(wire._ENCODERS)

    @pytest.mark.parametrize(
        "message, hex_bytes",
        [pytest.param(m, h, id=type(m).__name__) for m, h in GOLDEN])
    def test_encoding_is_pinned(self, message, hex_bytes):
        assert encode(message).hex() == hex_bytes
        assert decode(bytes.fromhex(hex_bytes)) == message


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
        assert set(wire._ENCODERS) == classes
        assert set(typing.get_args(wire.Message)) == classes
        assert {type(p.values[0]) for p in EVERY_TYPE} == classes
        tags = {tag for tag, _encoder in wire._ENCODERS.values()}
        assert len(tags) == len(classes)
        assert {tag: cls for tag, (cls, _decoder) in wire._DECODERS.items()} \
            == {tag: cls for cls, (tag, _encoder) in wire._ENCODERS.items()}

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

    @pytest.mark.parametrize("message, field", [
        pytest.param(MissingClientsNotice(0, (3, -1)), "missing_indexes",
                     id="negative-missing-index"),
        pytest.param(MissingClientsNotice(0, (2 ** 33,)), "missing_indexes",
                     id="huge-missing-index"),
        pytest.param(PublicKeyAnnouncement("u", public_key=1 << 64,
                                           element_bytes=8),
                     "public_key", id="key-wider-than-element"),
        pytest.param(PublicKeyAnnouncement("u", public_key=-1,
                                           element_bytes=8),
                     "public_key", id="negative-key"),
        pytest.param(PublicKeyAnnouncement("u", public_key=5,
                                           element_bytes=70000),
                     "element_bytes", id="element-bytes-too-wide"),
        pytest.param(CleartextReport("u", 1, urls=(), bytes_per_char=300),
                     "bytes_per_char", id="bytes-per-char-too-wide"),
        pytest.param(BlindedReport("\ud800", 1, cells=(1,)), "user_id",
                     id="lone-surrogate-user-id"),
        pytest.param(CleartextReport("u", 1, urls=("\udfff",)), "url",
                     id="lone-surrogate-url"),
        pytest.param(PartialAggregate(0, 1, cells=(1,), reported=("\ud800",)),
                     "reported", id="lone-surrogate-reported"),
        pytest.param(BlindedReport("u", 2 ** 32, cells=(1,)), "round_id",
                     id="round-id-too-wide"),
        pytest.param(BlindedReport("u", 1, cells=(1,), clique_id=-1),
                     "clique_id", id="negative-clique-id"),
    ])
    def test_unencodable_field_is_a_protocol_error_naming_it(self, message,
                                                             field):
        with pytest.raises(ProtocolError, match=field):
            encode(message)

    @pytest.mark.parametrize("message, field", [
        pytest.param(PublicKeyAnnouncement("u", 7, 4), "round_id",
                     id="PublicKeyAnnouncement-round"),
        pytest.param(PublicKeyAnnouncement("u", 7, 4), "clique_id",
                     id="PublicKeyAnnouncement-clique"),
        pytest.param(CleartextReport("u", 1, urls=()), "clique_id",
                     id="CleartextReport-clique"),
        pytest.param(ThresholdBroadcast(1, 2.0), "clique_id",
                     id="ThresholdBroadcast-clique"),
    ])
    def test_header_field_the_type_lacks_is_a_protocol_error(self, message,
                                                             field):
        """Only the encoding a message makes decodes: a type without a
        round or clique refuses a non-zero one in the header."""
        data = bytearray(encode(message))
        at = {"round_id": 4, "clique_id": 12}[field]
        data[at + 1] = 1
        with pytest.raises(ProtocolError, match=field):
            decode(bytes(data))

    def test_counts_past_the_payload_are_refused_before_allocating(self):
        notice = bytearray(encode(MissingClientsNotice(0, (1,))))
        notice[HEADER:HEADER + 4] = (2 ** 32 - 1).to_bytes(4, "big")
        with pytest.raises(ProtocolError, match="overrun"):
            decode(bytes(notice))
        partial = bytearray(encode(PartialAggregate(0, 1, cells=())))
        partial[HEADER:HEADER + 4] = (2 ** 32 - 1).to_bytes(4, "big")
        with pytest.raises(ProtocolError, match="overrun"):
            decode(bytes(partial))


# ---------------------------------------------------------------------------
# Generated malformed bytes
# ---------------------------------------------------------------------------

_ENCODINGS = [encode(p.values[0]) for p in EVERY_TYPE] + \
    [bytes.fromhex(h) for _, h in GOLDEN]


@st.composite
def _malformed(draw) -> bytes:
    """A valid encoding after one to four byte flips, truncations or
    appended bytes; half the time the header's payload length is then
    fixed up, so the payload parser is what must notice."""
    data = bytearray(draw(st.sampled_from(_ENCODINGS)))
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        op = draw(st.sampled_from(["flip", "truncate", "append"]))
        if op == "flip" and data:
            at = draw(st.integers(min_value=0, max_value=len(data) - 1))
            data[at] ^= draw(st.integers(min_value=1, max_value=255))
        elif op == "truncate":
            del data[draw(st.integers(min_value=0, max_value=len(data))):]
        elif op == "append":
            data += draw(st.binary(min_size=1, max_size=8))
    if len(data) >= HEADER and draw(st.booleans()):
        data[8:12] = (len(data) - HEADER).to_bytes(4, "big")
    return bytes(data)


@settings(max_examples=400, deadline=None)
@given(_malformed())
def test_malformed_bytes_are_refused_or_decode_canonically(data):
    """Every mutated encoding is a ProtocolError (and nothing else) or a
    message whose encoding is the input, the header's two pad bytes
    aside; a bytearray of it decodes the same."""
    try:
        message = decode(data)
    except ProtocolError:
        with pytest.raises(ProtocolError):
            decode(bytearray(data))
        return
    again = encode(message)
    assert len(again) == len(data)
    assert again[:14] + again[16:] == data[:14] + data[16:]
    # Re-encoding compares a NaN threshold too, where == would not.
    assert encode(decode(bytearray(data))) == again
