"""Binary wire codec for protocol messages.

The in-memory transport moves Python objects; a real deployment moves
bytes. This codec pins down the exact format the byte-accounting in
:mod:`repro.protocol.messages` models: fixed 16-byte header (magic, type,
round, payload length) followed by a type-specific payload with 4-byte
big-endian sketch cells — the messages' native ``uint32`` cells, byte-
swapped — so ``decode(encode(m)) == m`` and ``len(encode(m))`` agrees
with ``m.size_bytes()`` up to the variable-size identity strings. A cell
outside ``[0, 2^32)`` is refused, never wrapped.

Format (all integers big-endian):

    header:  2s magic "eW" | B version | B type | I round_id | I payload_len
             | H clique_id | 2x pad
    payload: type-specific (see the _encode_* helpers)

The clique id occupies two of the header bytes that were padding before
blinding cliques existed, so the format's size (and therefore the §7.1
byte accounting) is unchanged and old frames decode as clique 0.
"""

from __future__ import annotations

import struct
from typing import Dict, Sequence, Tuple, Union

import numpy as np

from repro.errors import ProtocolError
from repro.protocol.messages import (
    BlindedReport,
    BlindingAdjustment,
    CellVector,
    Cells,
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

Message = Union[BlindedReport, BlindingAdjustment, CleartextReport,
                MissingClientsNotice, PartialAggregate,
                PublicKeyAnnouncement, ThresholdBroadcast]

#: Message type tags on the wire.
_TYPE_OF: Dict[type, int] = {
    PublicKeyAnnouncement: 1,
    BlindedReport: 2,
    CleartextReport: 3,
    MissingClientsNotice: 4,
    BlindingAdjustment: 5,
    ThresholdBroadcast: 6,
    PartialAggregate: 7,
}


def _pack_str(s: str) -> bytes:
    data = s.encode("utf-8")
    if len(data) > 0xFFFF:
        raise ProtocolError("string field too long for wire format")
    return struct.pack(">H", len(data)) + data


def _unpack_str(buf: bytes, offset: int) -> Tuple[str, int]:
    (length,) = struct.unpack_from(">H", buf, offset)
    start = offset + 2
    end = start + length
    if end > len(buf):
        raise ProtocolError("string field overruns the payload")
    return buf[start:end].decode("utf-8"), end


def _pack_str_seq(strings: Sequence[str]) -> bytes:
    return struct.pack(">I", len(strings)) \
        + b"".join(_pack_str(s) for s in strings)


def _unpack_str_seq(buf: bytes, offset: int) -> Tuple[Tuple[str, ...], int]:
    (count,) = struct.unpack_from(">I", buf, offset)
    offset += 4
    out = []
    for _ in range(count):
        s, offset = _unpack_str(buf, offset)
        out.append(s)
    return tuple(out), offset


def _pack_cells(cells: Cells) -> bytes:
    """The cells' ``uint32`` array, byteswapped to big-endian once; a
    value outside ``[0, 2^32)`` raises :class:`~repro.errors.ProtocolError`
    (:func:`~repro.protocol.messages.cells_to_array`)."""
    arr = cells_to_array(cells)
    return struct.pack(">I", len(arr)) + arr.astype(">u4").tobytes()


def _unpack_cells(buf: bytes, offset: int) -> Tuple[CellVector, int]:
    """Decode cells into a native ``uint32`` :class:`CellVector`: one byteswap."""
    (count,) = struct.unpack_from(">I", buf, offset)
    offset += 4
    if len(buf) < offset + 4 * count:
        raise ProtocolError("cell payload truncated")
    cells = np.frombuffer(buf, dtype=">u4", count=count,
                          offset=offset).astype(np.uint32)
    return CellVector(cells), offset + 4 * count


def encode(message: Message) -> bytes:
    """Serialize a protocol message to bytes."""
    try:
        type_tag = _TYPE_OF[type(message)]
    except KeyError:
        raise ProtocolError(
            f"cannot encode message type {type(message).__name__}") from None

    if isinstance(message, PublicKeyAnnouncement):
        key_bytes = message.public_key.to_bytes(message.element_bytes, "big")
        payload = (_pack_str(message.user_id)
                   + struct.pack(">H", message.element_bytes) + key_bytes)
        round_id = 0
    elif isinstance(message, BlindedReport):
        payload = _pack_str(message.user_id) + _pack_cells(message.cells)
        round_id = message.round_id
    elif isinstance(message, CleartextReport):
        payload = (_pack_str(message.user_id)
                   + struct.pack(">BI", message.bytes_per_char,
                                 len(message.urls)))
        for url in message.urls:
            payload += _pack_str(url)
        round_id = message.round_id
    elif isinstance(message, MissingClientsNotice):
        payload = struct.pack(">I", len(message.missing_indexes))
        for index in message.missing_indexes:
            payload += struct.pack(">I", index)
        round_id = message.round_id
    elif isinstance(message, BlindingAdjustment):
        payload = _pack_str(message.user_id) + _pack_cells(message.cells)
        round_id = message.round_id
    elif isinstance(message, ThresholdBroadcast):
        payload = struct.pack(">d", message.users_threshold)
        round_id = message.round_id
    elif isinstance(message, PartialAggregate):
        payload = _pack_str_seq(message.reported) \
            + _pack_str_seq(message.missing) + _pack_cells(message.cells)
        round_id = message.round_id
    else:  # pragma: no cover - exhaustive above
        raise ProtocolError("unreachable")

    clique_id = getattr(message, "clique_id", 0)
    if not 0 <= clique_id <= 0xFFFF:
        raise ProtocolError(
            f"clique_id {clique_id} out of wire range [0, 65535]")
    if not 0 <= round_id <= 0xFFFFFFFF:
        raise ProtocolError(
            f"round_id {round_id} out of wire range [0, 2^32)")
    header = _HEADER.pack(MAGIC, VERSION, type_tag, round_id, len(payload),
                          clique_id)
    return header + payload


def decode(data: bytes) -> Message:
    """Parse bytes back into a protocol message; malformed bytes of any
    kind raise :class:`~repro.errors.ProtocolError`, bytes left over after
    the message's last field included."""
    if len(data) < _HEADER.size:
        raise ProtocolError(f"message too short: {len(data)} bytes")
    magic, version, type_tag, round_id, payload_len, clique_id = \
        _HEADER.unpack_from(data, 0)
    if magic != MAGIC:
        raise ProtocolError(f"bad magic {magic!r}")
    if version != VERSION:
        raise ProtocolError(f"unsupported version {version}")
    payload = data[_HEADER.size:]
    if len(payload) != payload_len:
        raise ProtocolError(
            f"payload length mismatch: header says {payload_len}, "
            f"got {len(payload)}")
    try:
        message, end = _decode_payload(type_tag, payload, round_id, clique_id)
    except (struct.error, UnicodeDecodeError) as exc:
        raise ProtocolError(
            f"malformed payload for message type tag {type_tag}: {exc}"
        ) from None
    if end != payload_len:
        raise ProtocolError(
            f"{payload_len - end} trailing bytes after a "
            f"{type(message).__name__} payload")
    return message


def _decode_payload(type_tag: int, payload: bytes, round_id: int,
                    clique_id: int) -> Tuple[Message, int]:
    """One payload's message and the offset its last field ends at."""
    if type_tag == 1:
        user_id, offset = _unpack_str(payload, 0)
        (element_bytes,) = struct.unpack_from(">H", payload, offset)
        offset += 2
        end = offset + element_bytes
        if end > len(payload):
            raise ProtocolError("public key overruns the payload")
        key = int.from_bytes(payload[offset:end], "big")
        return PublicKeyAnnouncement(user_id=user_id, public_key=key,
                                     element_bytes=element_bytes), end
    if type_tag == 2:
        user_id, offset = _unpack_str(payload, 0)
        cells, end = _unpack_cells(payload, offset)
        return BlindedReport(user_id=user_id, round_id=round_id,
                             cells=cells, clique_id=clique_id), end
    if type_tag == 3:
        user_id, offset = _unpack_str(payload, 0)
        bytes_per_char, count = struct.unpack_from(">BI", payload, offset)
        offset += 5
        urls = []
        for _ in range(count):
            url, offset = _unpack_str(payload, offset)
            urls.append(url)
        return CleartextReport(user_id=user_id, round_id=round_id,
                               urls=tuple(urls),
                               bytes_per_char=bytes_per_char), offset
    if type_tag == 4:
        (count,) = struct.unpack_from(">I", payload, 0)
        indexes = struct.unpack_from(f">{count}I", payload, 4)
        return MissingClientsNotice(round_id=round_id,
                                    missing_indexes=tuple(indexes),
                                    clique_id=clique_id), 4 + 4 * count
    if type_tag == 5:
        user_id, offset = _unpack_str(payload, 0)
        cells, end = _unpack_cells(payload, offset)
        return BlindingAdjustment(user_id=user_id, round_id=round_id,
                                  cells=cells, clique_id=clique_id), end
    if type_tag == 6:
        (threshold,) = struct.unpack_from(">d", payload, 0)
        return ThresholdBroadcast(round_id=round_id,
                                  users_threshold=threshold), 8
    if type_tag == 7:
        reported, offset = _unpack_str_seq(payload, 0)
        missing, offset = _unpack_str_seq(payload, offset)
        cells, end = _unpack_cells(payload, offset)
        return PartialAggregate(clique_id=clique_id, round_id=round_id,
                                cells=cells, reported=reported,
                                missing=missing), end
    raise ProtocolError(f"unknown message type tag {type_tag}")
