"""Binary wire codec for protocol messages.

The in-memory transport moves Python objects; a real deployment moves
bytes. This codec pins down the exact format the byte-accounting in
:mod:`repro.protocol.messages` models: fixed 16-byte header (magic, type,
round, payload length) followed by a type-specific payload with 4-byte
big-endian sketch cells — the messages' native ``uint32`` cells, byte-
swapped — so ``decode(encode(m)) == m`` and ``len(encode(m))`` agrees
with ``m.size_bytes()`` up to the variable-size identity strings. A cell
outside ``[0, 2^32)`` is refused, never wrapped; so is any other field
the format cannot hold (a :class:`~repro.errors.ProtocolError` naming it).

Format (all integers big-endian):

    header:  2s magic "eW" | B version | B type | I round_id | I payload_len
             | H clique_id | 2x pad
    payload: type-specific (see the _encode_* helpers)

The clique id occupies two of the header bytes that were padding before
blinding cliques existed, so the format's size (and therefore the §7.1
byte accounting) is unchanged and old frames decode as clique 0. A type
without a clique id (or, for a key announcement, a round) refuses a
non-zero one, so every accepted encoding is the one its message makes.

Each type has one encoder and one decoder, in one table each. An encoder
packs its fields with precompiled structs and builds the message with a
single join whose parts include the big-endian cell array itself. A
decoder reads fields at offsets of the buffer it is given (``bytes`` or
``bytearray``, never a payload slice) after checking every length
against it, so malformed bytes cannot make it allocate. Decoded cells
are one byteswapping copy, wrapped unchecked: a ``>u4`` read cannot be
out of ``uint32`` range.
"""

from __future__ import annotations

import struct
from typing import Callable, Dict, List, Tuple, Union

import numpy as np

from repro.errors import ProtocolError
from repro.protocol.messages import (
    BlindedReport,
    BlindingAdjustment,
    CellVector,
    CleartextReport,
    MissingClientsNotice,
    PartialAggregate,
    PublicKeyAnnouncement,
    ThresholdBroadcast,
    cells_to_array,
)

MAGIC = b"eW"
VERSION = 1
_HEADER = struct.Struct(">2sBBIIH2x")
_START = _HEADER.size
_U16 = struct.Struct(">H")
_U32 = struct.Struct(">I")
_U8_U32 = struct.Struct(">BI")
_F64 = struct.Struct(">d")
_BE_U32 = np.dtype(">u4")
_UINT32 = np.dtype(np.uint32)

Message = Union[BlindedReport, BlindingAdjustment, CleartextReport,
                MissingClientsNotice, PartialAggregate,
                PublicKeyAnnouncement, ThresholdBroadcast]

#: What :func:`decode` reads from.
Buffer = Union[bytes, bytearray]


# ---------------------------------------------------------------------------
# Encoding
# ---------------------------------------------------------------------------

def _header(tag: int, round_id: int, size: int, clique_id: int) -> bytes:
    try:
        return _HEADER.pack(MAGIC, VERSION, tag, round_id, size, clique_id)
    except struct.error:
        pass
    if not 0 <= clique_id <= 0xFFFF:
        raise ProtocolError(
            f"clique_id {clique_id} out of wire range [0, 65535]")
    if not 0 <= round_id <= 0xFFFFFFFF:
        raise ProtocolError(
            f"round_id {round_id} out of wire range [0, 2^32)")
    raise ProtocolError(
        f"cannot pack a header with round_id {round_id!r}, clique_id "
        f"{clique_id!r} and a {size}-byte payload")


def _str(text: str, field: str) -> Tuple[bytes, bytes]:
    """A string field's two parts: its ``>H`` byte length, its UTF-8."""
    try:
        data = text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ProtocolError(
            f"{field} {text!r} is not encodable as UTF-8: {exc.reason}"
        ) from None
    if len(data) > 0xFFFF:
        raise ProtocolError(
            f"{field} of {len(data)} bytes too long for wire format "
            f"(at most 65535)")
    return _U16.pack(len(data)), data


def _str_seq(strings: Tuple[str, ...], field: str) -> List[bytes]:
    parts = [_U32.pack(len(strings))]
    for text in strings:
        parts += _str(text, field)
    return parts


def _encode_key(message: PublicKeyAnnouncement, tag: int) -> bytes:
    user_len, user = _str(message.user_id, "user_id")
    width = message.element_bytes
    if not 0 <= width <= 0xFFFF:
        raise ProtocolError(
            f"element_bytes {width} out of wire range [0, 65535]")
    try:
        key = message.public_key.to_bytes(width, "big")
    except OverflowError:
        raise ProtocolError(
            f"public_key is negative or wider than element_bytes={width}"
        ) from None
    return b"".join((_header(tag, 0, 4 + len(user) + width, 0),
                     user_len, user, _U16.pack(width), key))


def _encode_report(message: Union[BlindedReport, BlindingAdjustment],
                   tag: int) -> bytes:
    user_len, user = _str(message.user_id, "user_id")
    cells = cells_to_array(message.cells).astype(_BE_U32)
    return b"".join((
        _header(tag, message.round_id, 6 + len(user) + cells.nbytes,
                message.clique_id),
        user_len, user, _U32.pack(cells.size), cells))


def _encode_cleartext(message: CleartextReport, tag: int) -> bytes:
    try:
        counts = _U8_U32.pack(message.bytes_per_char, len(message.urls))
    except struct.error:
        raise ProtocolError(
            f"bytes_per_char {message.bytes_per_char} out of wire range "
            f"[0, 255]") from None
    # parts[0] is the header, packed once the payload's size is known.
    parts = [b"", *_str(message.user_id, "user_id"), counts]
    for url in message.urls:
        parts += _str(url, "url")
    parts[0] = _header(tag, message.round_id, sum(map(len, parts)), 0)
    return b"".join(parts)


def _encode_notice(message: MissingClientsNotice, tag: int) -> bytes:
    indexes = message.missing_indexes
    try:
        payload = struct.pack(f">{1 + len(indexes)}I", len(indexes),
                              *indexes)
    except struct.error:
        raise ProtocolError(
            f"missing_indexes {indexes} out of wire range [0, 2^32)"
        ) from None
    return b"".join((
        _header(tag, message.round_id, len(payload), message.clique_id),
        payload))


def _encode_threshold(message: ThresholdBroadcast, tag: int) -> bytes:
    return b"".join((_header(tag, message.round_id, 8, 0),
                     _F64.pack(message.users_threshold)))


def _encode_partial(message: PartialAggregate, tag: int) -> bytes:
    cells = cells_to_array(message.cells).astype(_BE_U32)
    parts = [b"", *_str_seq(message.reported, "reported"),
             *_str_seq(message.missing, "missing"), _U32.pack(cells.size)]
    parts[0] = _header(tag, message.round_id,
                       sum(map(len, parts)) + cells.nbytes,
                       message.clique_id)
    parts.append(cells)
    return b"".join(parts)


#: Message type -> its tag on the wire and its encoder.
_ENCODERS: Dict[type, Tuple[int, Callable[[Message, int], bytes]]] = {
    PublicKeyAnnouncement: (1, _encode_key),
    BlindedReport: (2, _encode_report),
    CleartextReport: (3, _encode_cleartext),
    MissingClientsNotice: (4, _encode_notice),
    BlindingAdjustment: (5, _encode_report),
    ThresholdBroadcast: (6, _encode_threshold),
    PartialAggregate: (7, _encode_partial),
}


def encode(message: Message) -> bytes:
    """Serialize a protocol message to bytes; a field the format cannot
    hold raises :class:`~repro.errors.ProtocolError` naming it."""
    try:
        tag, encoder = _ENCODERS[type(message)]
    except KeyError:
        raise ProtocolError(
            f"cannot encode message type {type(message).__name__}") from None
    return encoder(message, tag)


# ---------------------------------------------------------------------------
# Decoding: every decoder reads the whole buffer from offset _START and
# returns its message and the offset its last field ends at.
# ---------------------------------------------------------------------------

def _read_str(data: Buffer, offset: int) -> Tuple[str, int]:
    (length,) = _U16.unpack_from(data, offset)
    start = offset + 2
    end = start + length
    if end > len(data):
        raise ProtocolError("string field overruns the payload")
    return data[start:end].decode("utf-8"), end


def _read_strs(data: Buffer, offset: int) -> Tuple[Tuple[str, ...], int]:
    (count,) = _U32.unpack_from(data, offset)
    offset += 4
    if offset + 2 * count > len(data):
        raise ProtocolError(f"{count} string fields overrun the payload")
    out = []
    for _ in range(count):
        text, offset = _read_str(data, offset)
        out.append(text)
    return tuple(out), offset


def _read_cells(data: Buffer, offset: int) -> Tuple[CellVector, int]:
    (count,) = _U32.unpack_from(data, offset)
    offset += 4
    end = offset + 4 * count
    if end > len(data):
        raise ProtocolError("cell payload truncated")
    cells = np.frombuffer(data, _BE_U32, count, offset).astype(_UINT32)
    cells.setflags(write=False)
    return CellVector._wrap(cells), end


def _lacks(cls: type, field: str, value: int) -> ProtocolError:
    return ProtocolError(
        f"a {cls.__name__} carries no {field}, but the header says {value}")


def _decode_key(cls: type, data: Buffer, round_id: int,
                clique_id: int) -> Tuple[Message, int]:
    if round_id:
        raise _lacks(cls, "round_id", round_id)
    if clique_id:
        raise _lacks(cls, "clique_id", clique_id)
    user_id, offset = _read_str(data, _START)
    (width,) = _U16.unpack_from(data, offset)
    offset += 2
    end = offset + width
    if end > len(data):
        raise ProtocolError("public key overruns the payload")
    return cls(user_id, int.from_bytes(data[offset:end], "big"), width), end


def _decode_report(cls: type, data: Buffer, round_id: int,
                   clique_id: int) -> Tuple[Message, int]:
    user_id, offset = _read_str(data, _START)
    cells, end = _read_cells(data, offset)
    return cls(user_id, round_id, cells, clique_id), end


def _decode_cleartext(cls: type, data: Buffer, round_id: int,
                      clique_id: int) -> Tuple[Message, int]:
    if clique_id:
        raise _lacks(cls, "clique_id", clique_id)
    user_id, offset = _read_str(data, _START)
    bytes_per_char, count = _U8_U32.unpack_from(data, offset)
    offset += 5
    if offset + 2 * count > len(data):
        raise ProtocolError(f"{count} url fields overrun the payload")
    urls = []
    for _ in range(count):
        url, offset = _read_str(data, offset)
        urls.append(url)
    return cls(user_id, round_id, tuple(urls), bytes_per_char), offset


def _decode_notice(cls: type, data: Buffer, round_id: int,
                   clique_id: int) -> Tuple[Message, int]:
    (count,) = _U32.unpack_from(data, _START)
    end = _START + 4 + 4 * count
    if end > len(data):
        raise ProtocolError(f"{count} missing indexes overrun the payload")
    indexes = struct.unpack_from(f">{count}I", data, _START + 4)
    return cls(round_id, indexes, clique_id), end


def _decode_threshold(cls: type, data: Buffer, round_id: int,
                      clique_id: int) -> Tuple[Message, int]:
    if clique_id:
        raise _lacks(cls, "clique_id", clique_id)
    (threshold,) = _F64.unpack_from(data, _START)
    return cls(round_id, threshold), _START + 8


def _decode_partial(cls: type, data: Buffer, round_id: int,
                    clique_id: int) -> Tuple[Message, int]:
    reported, offset = _read_strs(data, _START)
    missing, offset = _read_strs(data, offset)
    cells, end = _read_cells(data, offset)
    return cls(clique_id, round_id, cells, reported, missing), end


#: Wire tag -> its message type and decoder (the inverse of _ENCODERS).
_DECODERS: Dict[int, Tuple[type, Callable[[type, Buffer, int, int],
                                          Tuple[Message, int]]]] = {
    1: (PublicKeyAnnouncement, _decode_key),
    2: (BlindedReport, _decode_report),
    3: (CleartextReport, _decode_cleartext),
    4: (MissingClientsNotice, _decode_notice),
    5: (BlindingAdjustment, _decode_report),
    6: (ThresholdBroadcast, _decode_threshold),
    7: (PartialAggregate, _decode_partial),
}


def decode(data: Buffer) -> Message:
    """Parse bytes back into a protocol message; malformed bytes of any
    kind raise :class:`~repro.errors.ProtocolError`, bytes left over after
    the message's last field included."""
    size = len(data)
    if size < _START:
        raise ProtocolError(f"message too short: {size} bytes")
    magic, version, type_tag, round_id, payload_len, clique_id = \
        _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}")
    if version != VERSION:
        raise ProtocolError(f"unsupported version {version}")
    if size - _START != payload_len:
        raise ProtocolError(
            f"payload length mismatch: header says {payload_len}, "
            f"got {size - _START}")
    try:
        cls, decoder = _DECODERS[type_tag]
    except KeyError:
        raise ProtocolError(f"unknown message type tag {type_tag}") from None
    try:
        message, end = decoder(cls, data, round_id, clique_id)
    except (struct.error, UnicodeDecodeError) as exc:
        raise ProtocolError(
            f"malformed payload for message type tag {type_tag}: {exc}"
        ) from None
    if end != size:
        raise ProtocolError(
            f"{size - end} trailing bytes after a "
            f"{type(message).__name__} payload")
    return message
