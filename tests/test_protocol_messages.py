"""Unit tests for wire messages and the in-memory transport."""

import dataclasses
import inspect

import pytest

from repro.errors import TransportError
from repro.protocol.messages import (
    CELL_BYTES,
    HEADER_BYTES,
    BlindedReport,
    BlindingAdjustment,
    CellVector,
    CleartextReport,
    MissingClientsNotice,
    PartialAggregate,
    PublicKeyAnnouncement,
    ThresholdBroadcast,
)
from repro.protocol.transport import InMemoryTransport

#: One instance's field values per message type, every field given.
FIELDS = {
    PublicKeyAnnouncement: dict(user_id="u1", public_key=12345,
                                element_bytes=16),
    BlindedReport: dict(user_id="u1", round_id=3,
                        cells=CellVector((1, 2, 2**32 - 1)), clique_id=2),
    CleartextReport: dict(user_id="u1", round_id=3, urls=("a", "bb"),
                          bytes_per_char=2),
    MissingClientsNotice: dict(round_id=3, missing_indexes=(4, 9),
                               clique_id=2),
    BlindingAdjustment: dict(user_id="u1", round_id=3, cells=(7, 0, 5),
                             clique_id=2),
    ThresholdBroadcast: dict(round_id=3, users_threshold=2.5),
    PartialAggregate: dict(clique_id=2, round_id=3,
                           cells=CellVector((9, 8)), reported=("u1", "u2"),
                           missing=("u3",)),
}
MESSAGE_TYPES = list(FIELDS)


def field_values(message):
    return {field.name: getattr(message, field.name)
            for field in dataclasses.fields(message)}


def set_per_field(cls, values):
    """An instance built as the generated frozen ``__init__`` builds
    one: one ``object.__setattr__`` per field."""
    message = object.__new__(cls)
    for name, value in values.items():
        object.__setattr__(message, name, value)
    return message


@pytest.mark.parametrize("cls", MESSAGE_TYPES,
                         ids=lambda cls: cls.__name__)
class TestFrozenMessages:
    """Each type's own ``__init__`` builds what the dataclass's would,
    and the dataclass behaviour around it is unchanged."""

    def test_init_parameters_are_the_fields(self, cls):
        parameters = list(inspect.signature(cls.__init__).parameters.values())
        assert [p.name for p in parameters[1:]] == \
            [f.name for f in dataclasses.fields(cls)]
        for parameter, field in zip(parameters[1:], dataclasses.fields(cls)):
            assert parameter.default == (
                inspect.Parameter.empty
                if field.default is dataclasses.MISSING else field.default)

    def test_keyword_positional_and_per_field_builds_agree(self, cls):
        values = FIELDS[cls]
        keyword = cls(**values)
        twins = [cls(*values.values()), set_per_field(cls, values)]
        assert field_values(keyword) == values
        for twin in twins:
            assert keyword == twin
            assert hash(keyword) == hash(twin)
            assert repr(keyword) == repr(twin)

    def test_defaults_fill_omitted_fields(self, cls):
        required = {f.name: FIELDS[cls][f.name]
                    for f in dataclasses.fields(cls)
                    if f.default is dataclasses.MISSING}
        defaulted = {f.name: f.default for f in dataclasses.fields(cls)
                     if f.default is not dataclasses.MISSING}
        assert field_values(cls(**required)) == {**required, **defaulted}

    def test_a_message_is_slotted(self, cls):
        message = cls(**FIELDS[cls])
        assert not hasattr(message, "__dict__")
        assert set(cls.__slots__) == set(FIELDS[cls])

    def test_assignment_and_deletion_raise(self, cls):
        message = cls(**FIELDS[cls])
        for name, value in FIELDS[cls].items():
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(message, name, value)
            with pytest.raises(dataclasses.FrozenInstanceError):
                delattr(message, name)
        # A name that is no field has no slot either; the frozen
        # ``__setattr__`` of a slotted dataclass refuses it with a
        # TypeError (the same on Python 3.10 to 3.13).
        with pytest.raises((dataclasses.FrozenInstanceError, TypeError)):
            message.extra = 1
        assert field_values(message) == FIELDS[cls]

    def test_replace_builds_a_changed_copy(self, cls):
        message = cls(**FIELDS[cls])
        name = "round_id" if "round_id" in FIELDS[cls] else "element_bytes"
        changed = dataclasses.replace(message, **{name: 99})
        assert type(changed) is cls
        assert field_values(changed) == {**FIELDS[cls], name: 99}
        assert changed != message
        assert dataclasses.replace(message) == message


class TestMessageSizes:
    def test_blinded_report_size(self):
        report = BlindedReport("u1", 1, cells=tuple(range(100)))
        assert report.size_bytes() == HEADER_BYTES + 100 * CELL_BYTES

    def test_cleartext_report_counts_urls(self):
        report = CleartextReport("u1", 1, urls=("a" * 100, "b" * 50))
        assert report.size_bytes() == HEADER_BYTES + 150

    def test_cleartext_unicode_factor(self):
        report = CleartextReport("u1", 1, urls=("a" * 100,), bytes_per_char=2)
        assert report.size_bytes() == HEADER_BYTES + 200

    def test_public_key_announcement(self):
        msg = PublicKeyAnnouncement("u1", 12345, element_bytes=16)
        assert msg.size_bytes() == HEADER_BYTES + 16

    def test_missing_notice(self):
        msg = MissingClientsNotice(1, (3, 5, 7))
        assert msg.size_bytes() == HEADER_BYTES + 12

    def test_adjustment(self):
        msg = BlindingAdjustment("u1", 1, cells=(1, 2, 3))
        assert msg.size_bytes() == HEADER_BYTES + 3 * CELL_BYTES

    def test_threshold_broadcast(self):
        msg = ThresholdBroadcast(1, 2.5)
        assert msg.size_bytes() == HEADER_BYTES + 8


class TestTransport:
    def test_register_and_send(self):
        t = InMemoryTransport()
        t.register("a")
        t.register("b")
        t.send("a", "b", "hello")
        assert t.receive("b") == ("a", "hello")

    def test_receive_empty(self):
        t = InMemoryTransport()
        t.register("a")
        assert t.receive("a") is None

    def test_unknown_recipient(self):
        t = InMemoryTransport()
        with pytest.raises(TransportError):
            t.send("a", "ghost", "x")

    def test_unknown_mailbox_operations(self):
        t = InMemoryTransport()
        with pytest.raises(TransportError):
            t.receive("ghost")
        with pytest.raises(TransportError):
            t.drain("ghost")
        with pytest.raises(TransportError):
            t.pending("ghost")

    def test_fifo_order(self):
        t = InMemoryTransport()
        t.register("dst")
        for i in range(5):
            t.send("src", "dst", i)
        assert [m for _, m in t.drain("dst")] == [0, 1, 2, 3, 4]

    def test_an_alias_routes_into_its_endpoint_until_unregistered(self):
        t = InMemoryTransport()
        t.register("host")
        t.register("home")
        t.register_alias("u", "host")
        t.send("s", "u", "x")
        assert t.drain("host") == [("s", "x")]
        t.register_alias("u", "home")  # churn re-homes a user
        t.send("s", "u", "y")
        assert t.drain("home") == [("s", "y")] and t.pending("host") == 0
        t.unregister_alias("u")
        t.unregister_alias("u")  # unknown aliases are a no-op
        with pytest.raises(TransportError, match="unknown endpoint"):
            t.send("s", "u", "z")

    def test_an_alias_must_name_a_mailbox_and_not_shadow_one(self):
        t = InMemoryTransport()
        t.register("host")
        t.register("dst")
        with pytest.raises(TransportError, match="unknown endpoint"):
            t.register_alias("u", "ghost")
        with pytest.raises(TransportError, match="shadow"):
            t.register_alias("dst", "host")
        t.send("s", "dst", "x")
        assert t.drain("dst") == [("s", "x")] and t.pending("host") == 0

    def test_byte_accounting(self):
        t = InMemoryTransport()
        t.register("dst")
        report = BlindedReport("u", 1, cells=(1, 2))
        t.send("u", "dst", report)
        assert t.bytes_sent["u"] == report.size_bytes()
        assert t.total_bytes == report.size_bytes()
        assert t.total_messages == 1

    def test_non_sized_messages_counted_as_messages(self):
        t = InMemoryTransport()
        t.register("dst")
        t.send("u", "dst", {"no": "size"})
        assert t.total_messages == 1
        assert t.total_bytes == 0

    def test_endpoints_sorted(self):
        t = InMemoryTransport()
        t.register("b")
        t.register("a")
        assert t.endpoints == ["a", "b"]
