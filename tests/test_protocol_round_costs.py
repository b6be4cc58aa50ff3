"""What a round pays per message, pinned by counting calls, not by a clock.

* **The roster is read once per release** — a dropout-free round of N
  cliques asks each clique aggregator for its missing users once: N
  ``missing_users`` calls, not one per release check.
* **Cells are checked once, where they are built** — the cells of the
  reports, adjustments and partials this process built are wrapped
  unchecked (``CellVector._wrap``, or ``_wrap_rows`` for a whole stack)
  and read-only; anything from outside
  (caller tuples, decoded bytes) still goes through the validating
  ``CellVector(...)`` / ``cells_to_array``.
* **One round of cells at a time** — the aggregation tier drops the
  last round's reports before the clients build the next round's.
* **The per-message transport seam holds** — a transport that overrides
  only ``send`` and ``receive`` (as a tracing transport does) sees every
  message the round bills and every message it delivers.
* **Delivery follows the mail** — a round calls ``receive`` once per
  message plus once per endpoint visit that found mail (the call that
  finds the mailbox empty), not once per endpoint every pass.
* **A tiered round's traffic is pinned** — the ordered transcript of an
  army round behind a regional tier, with a dropout and its recovery,
  hashes to one digest on the memory and the wire transport, and bills
  the same bytes and messages: no tier may reorder or re-bill.
"""

import hashlib

import numpy as np
import pytest

from repro.api import ProtocolSession, SessionConfig
from repro.errors import ProtocolError
from repro.protocol import messages as messages_module
from repro.protocol.aggregator import CliqueAggregator
from repro.protocol.army import ClientArmy
from repro.protocol.client import RoundConfig
from repro.protocol.messages import (
    BlindedReport,
    BlindingAdjustment,
    CellVector,
    PartialAggregate,
)
from repro.protocol.transport import InMemoryTransport, WireTransport
from repro.protocol.wire import decode, encode

CONFIG = RoundConfig(cms_depth=4, cms_width=64, cms_seed=7, id_space=400)
#: Bytes of a wire message's fixed header.
HEADER = 16
USERS = [f"user-{i:03d}" for i in range(24)]


def observe(session):
    """The same small window for either backend."""
    for i, uid in enumerate(sorted(USERS)):
        urls = [f"http://ads.example/{i % 7}", f"http://ads.example/x{i % 3}"]
        if session.army is not None:
            session.army.observe_ads(uid, urls)
        else:
            client = next(c for c in session.clients if c.user_id == uid)
            for url in urls:
                client.observe_ad(url)


def session_on(transport, batched, num_cliques=6, fan_in=None):
    settings = SessionConfig(
        transport=transport, fan_in=fan_in,
        client_backend="batched" if batched else "objects")
    session = ProtocolSession.create(
        list(USERS), CONFIG, settings, seed=3, use_oprf=False,
        num_cliques=num_cliques)
    observe(session)
    return session


class SeamTransport(InMemoryTransport):
    """Overrides only the per-message pair a tracing transport wraps."""

    def __init__(self):
        super().__init__(record_transcript=True)
        self.sends = 0
        self.received = []

    def send(self, sender, recipient, message):
        self.sends += 1
        return super().send(sender, recipient, message)

    def receive(self, endpoint):
        item = super().receive(endpoint)
        if item is not None:
            self.received.append(item[1])
        return item


class TestTransportSeam:
    def test_army_round_sends_and_receives_every_message(self):
        transport = SeamTransport()
        session = session_on(transport, batched=True, fan_in=2)
        result = session.run_round(0)
        assert transport.sends == transport.total_messages \
            == result.total_messages
        delivered = [m for _s, _r, m in transport.transcript]
        assert len(delivered) == transport.total_messages
        assert sorted(map(id, transport.received)) == \
            sorted(map(id, delivered))

    def test_object_round_with_a_dropout(self):
        transport = SeamTransport()
        session = session_on(transport, batched=False)
        session.drop_users([USERS[5]])
        result = session.run_round(0)
        assert result.missing_users == [USERS[5]]
        # A dropped client sends nothing: every send is billed.
        assert transport.sends == transport.total_messages \
            == result.total_messages
        assert any(isinstance(m, BlindingAdjustment)
                   for m in transport.received)
        delivered = [m for _s, _r, m in transport.transcript]
        assert sorted(map(id, transport.received)) == \
            sorted(map(id, delivered))


class VisitCountingTransport(InMemoryTransport):
    """Counts ``receive`` calls, the messages they return, and the
    visits that found mail. A visit is a run of ``receive`` calls on one
    mailbox, ended by the call that finds it empty."""

    def __init__(self):
        super().__init__()
        self.receives = self.received = self.visits_with_mail = 0
        self._visiting = None

    def receive(self, endpoint):
        item = super().receive(endpoint)
        self.receives += 1
        if endpoint != self._visiting:
            self.visits_with_mail += item is not None
        self._visiting = endpoint if item is not None else None
        self.received += item is not None
        return item


class TestDeliveryFollowsTheMail:
    def test_army_round_receives_only_where_mail_is(self):
        """6 cliques behind ``fan_in=2`` with a dropout and its recovery:
        ``receive`` calls are at most messages plus visits that found
        mail — no call on an endpoint with an empty mailbox."""
        transport = VisitCountingTransport()
        session = session_on(transport, batched=True, fan_in=2)
        session.drop_users([USERS[5]])
        result = session.run_round(0)
        assert result.recovery_round_used
        assert transport.received == result.total_messages
        assert transport.receives <= \
            result.total_messages + transport.visits_with_mail


class TestRosterReadOncePerRelease:
    @pytest.mark.parametrize("num_cliques", [1, 6])
    def test_dropout_free_round_reads_each_roster_once(self, monkeypatch,
                                                       num_cliques):
        calls = []
        missing_users = CliqueAggregator.missing_users

        def counting(self):
            calls.append(self)
            return missing_users(self)

        monkeypatch.setattr(CliqueAggregator, "missing_users", counting)
        session = session_on(None, batched=True, num_cliques=num_cliques,
                             fan_in=2)
        result = session.run_round(0)
        assert result.missing_users == []
        assert len(calls) == num_cliques
        assert len(set(map(id, calls))) == num_cliques

    def test_full_roster_answers_without_a_set_difference(self):
        aggregator = CliqueAggregator(0, CONFIG, {"a": 0, "b": 1})
        aggregator.on_round_start(1)
        assert aggregator.missing_users() == ["a", "b"]
        for uid in ("a", "b"):
            aggregator.on_message(uid, BlindedReport(
                uid, 1, cells=(0,) * CONFIG.num_cells))
        assert aggregator.missing_users() == []


class TestOneRoundOfCellsAtATime:
    def test_aggregators_drop_the_last_round_before_clients_build(
            self, monkeypatch):
        """The clique aggregators start the round (dropping the reports
        they hold) before the army builds its reports, so a round never
        holds two rounds of report cells."""
        session = session_on(None, batched=True, fan_in=2)
        session.run_round(0)
        held = []
        on_round_start = ClientArmy.on_round_start

        def spy(self, round_id):
            held.append(sorted(
                len(endpoint._reports)
                for endpoint in session.endpoints
                if isinstance(endpoint, CliqueAggregator)))
            return on_round_start(self, round_id)

        monkeypatch.setattr(ClientArmy, "on_round_start", spy)
        result = session.run_round(1)
        assert held == [[0] * 6]
        assert sorted(result.reported_users) == sorted(USERS)


class TestBuiltCellsAreCheckedOnce:
    @staticmethod
    def count_validating_calls(monkeypatch):
        """Calls of ``cells_to_array`` on anything but a ready
        ``CellVector`` — the path ``CellVector(...)`` runs."""
        validating = []
        cells_to_array = messages_module.cells_to_array

        def counting(cells):
            if not isinstance(cells, CellVector):
                validating.append(type(cells))
            return cells_to_array(cells)

        monkeypatch.setattr(messages_module, "cells_to_array", counting)
        return validating

    @pytest.mark.parametrize("dropped", [(), (USERS[2], USERS[11])])
    def test_army_round_runs_no_validating_conversion(self, monkeypatch,
                                                      dropped):
        session = session_on(None, batched=True, fan_in=2)
        session.army.drop_users(dropped)
        validating = self.count_validating_calls(monkeypatch)
        result = session.run_round(0)
        assert sorted(result.missing_users) == sorted(dropped)
        assert validating == []

    def test_outside_cells_are_still_checked(self, monkeypatch):
        validating = self.count_validating_calls(monkeypatch)
        for bad in ([2 ** 32], [-1], [1.5]):
            with pytest.raises(ProtocolError, match=r"\[0, 2\^32\)"):
                CellVector(bad)
        assert len(validating) == 3
        aggregator = CliqueAggregator(0, CONFIG, {"a": 0})
        aggregator.on_round_start(1)
        tuple_report = BlindedReport(
            "a", 1, cells=(2 ** 32,) + (0,) * (CONFIG.num_cells - 1))
        with pytest.raises(ProtocolError):
            aggregator.on_message("a", tuple_report)
        with pytest.raises(ProtocolError):
            encode(tuple_report)

    def test_decoded_report_with_a_bad_cell_payload_raises(self):
        data = bytearray(encode(BlindedReport("a", 1, cells=(1, 2, 3))))
        # The cell count follows the user id (2-byte length + "a");
        # claim one cell more than was sent.
        offset = HEADER + 2 + 1
        data[offset:offset + 4] = (4).to_bytes(4, "big")
        with pytest.raises(ProtocolError, match="truncated"):
            decode(bytes(data))

    def test_unchecked_wrap_takes_only_read_only_uint32(self):
        writable = np.zeros(4, dtype=np.uint32)
        with pytest.raises(ProtocolError):
            CellVector._wrap(writable)
        wide = np.zeros(4, dtype=np.uint64)
        wide.setflags(write=False)
        with pytest.raises(ProtocolError):
            CellVector._wrap(wide)
        writable.setflags(write=False)
        vector = CellVector._wrap(writable)
        assert vector.array is writable
        assert vector == (0, 0, 0, 0) and hash(vector) == hash((0, 0, 0, 0))


    def test_row_wrap_checks_the_stack_once_and_wraps_views(self):
        """``_wrap_rows`` refuses a writable or non-``uint32`` stack
        before it builds a single vector; otherwise each vector is a
        zero-copy view of its row, clique-major: clique 0's members,
        then clique 1's."""
        built = []

        class Counted(CellVector):
            __slots__ = ()

            def __new__(cls, *args):
                built.append(cls)
                return super().__new__(cls)

        stack = np.arange(3 * 2 * 4, dtype=np.uint32).reshape(3, 2, 4)
        wide = stack.astype(np.uint64)
        wide.setflags(write=False)
        for refused in (stack, wide, stack[0]):
            with pytest.raises(ProtocolError):
                Counted._wrap_rows(refused)
        assert not built
        stack.setflags(write=False)
        vectors = Counted._wrap_rows(stack)
        assert len(built) == len(vectors) == 6
        order = [(row, clique) for clique in range(2) for row in range(3)]
        for vector, (row, clique) in zip(vectors, order):
            assert np.shares_memory(vector.array, stack)
            assert vector.array.tobytes() == stack[row, clique].tobytes()
            assert not vector.array.flags.writeable


#: The tiered round below on either transport, recorded on the code
#: before the member-major kernel: sha256 over the ordered
#: ``(sender, recipient, encode(message))`` transcript, billed bytes and
#: messages.
TIERED_ROUND_PINS = {
    "memory": ("16ca3e574a77db0da1e323b3e5729a9f"
               "74dd68764feb59540395cde215f3ab98", 51516, 83),
    "wire": ("16ca3e574a77db0da1e323b3e5729a9f"
             "74dd68764feb59540395cde215f3ab98", 52364, 83),
}


class TestTieredRoundIsPinned:
    @pytest.mark.parametrize("name", sorted(TIERED_ROUND_PINS))
    def test_army_round_behind_a_regional_tier(self, name):
        """8 cliques of 4 behind ``fan_in=2`` (two regional levels), one
        dropout and its clique's recovery: every message, in order and
        byte for byte, and what the round bills."""
        transport = {"memory": InMemoryTransport,
                     "wire": WireTransport}[name](record_transcript=True)
        users = [f"user-{i:03d}" for i in range(32)]
        session = ProtocolSession.create(
            users, CONFIG, SessionConfig(transport=transport, fan_in=2,
                                         client_backend="batched"),
            seed=5, use_oprf=False, num_cliques=8)
        for i, uid in enumerate(users):
            session.army.observe_ads(
                uid, [f"http://ads.example/{i % 5}",
                      f"http://ads.example/y{i % 11}"])
        session.army.drop_users([users[9]])
        result = session.run_round(0)
        assert result.recovery_round_used
        assert result.missing_users == [users[9]]
        digest = hashlib.sha256()
        for sender, recipient, message in transport.transcript:
            for part in (sender.encode(), recipient.encode(), encode(message)):
                digest.update(len(part).to_bytes(4, "big"))
                digest.update(part)
        assert (digest.hexdigest(), result.total_bytes,
                result.total_messages) == TIERED_ROUND_PINS[name]


class TestBuiltCellsAreReadOnly:
    def test_reports_adjustments_and_partials_cannot_be_written(self):
        transport = InMemoryTransport(record_transcript=True)
        session = session_on(transport, batched=True, fan_in=2)
        session.army.drop_users([USERS[4]])
        session.run_round(0)
        seen = {BlindedReport: 0, BlindingAdjustment: 0, PartialAggregate: 0}
        for _sender, _recipient, message in transport.transcript:
            if type(message) not in seen:
                continue
            seen[type(message)] += 1
            array = message.cells.array
            assert array.dtype == np.uint32
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                np.add(array, 1, out=array)
        assert seen[BlindedReport] == len(USERS) - 1
        assert seen[BlindingAdjustment] > 0
        # Six clique partials, three regional ones, two above them.
        assert seen[PartialAggregate] == 6 + 3 + 2
