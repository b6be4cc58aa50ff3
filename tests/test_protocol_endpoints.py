"""The message-driven endpoint layer: the tree, the driver, and hygiene.

Covers the redesign's contracts:

* the aggregation tree is **bit-identical** to the independent
  reference round (``tests/reference_round.py``) — same aggregate
  cells, same #Users distribution, same threshold — for k in {1, 4},
  including dropout-recovery rounds;
* every mailbox is drained at the end of every round (the old inline
  coordinator leaked ThresholdBroadcasts into client mailboxes forever);
* unknown / unroutable messages raise ProtocolError instead of being
  silently dropped.
"""

import pytest

from reference_round import enrollment_round
from repro.api import ProtocolSession, SessionConfig
from repro.errors import (
    MissingReportError,
    ProtocolError,
    RoundStateError,
    TransportError,
)
from repro.protocol import wire
from repro.protocol.aggregator import (
    CliqueAggregator,
    RegionalAggregator,
    RootAggregator,
    clique_endpoint_id,
)
from repro.protocol.client import RoundConfig
from repro.protocol.endpoint import SERVER_ENDPOINT
from repro.protocol.enrollment import enroll_users
from repro.protocol.messages import (
    BlindedReport,
    CellVector,
    PartialAggregate,
    ThresholdBroadcast,
)
from repro.protocol.transport import InMemoryTransport, WireTransport

CONFIG = RoundConfig(cms_depth=4, cms_width=128, cms_seed=7, id_space=500)
USER_IDS = [f"user-{i:02d}" for i in range(12)]


def enrolled(num_cliques=1, seed=3, user_ids=USER_IDS):
    enrollment = enroll_users(user_ids, CONFIG, seed=seed, use_oprf=False,
                              num_cliques=num_cliques)
    for i, client in enumerate(enrollment.clients):
        for j in range(5):
            client.observe_ad(f"ad-{(i * 3 + j) % 15}")
    return enrollment


def run_session(enrollment, failed=(),
                transport_cls=InMemoryTransport, round_id=1):
    session = ProtocolSession(CONFIG, enrollment.clients,
                              SessionConfig(transport=transport_cls()))
    session.drop_users(failed)
    return session, session.run_round(round_id)


def reference_cells(enrollment, failed=(), round_id=1):
    """The reference round's root cells: every report and recovery
    adjustment summed from the paper's formulas — no endpoints, no
    tree."""
    return tuple(enrollment_round(enrollment, round_id, failed).root_cells)


def cleartext_sum(enrollment, failed=()):
    """The plain cell-wise sum of the reporters' unblinded sketches,
    each built from the URLs its client saw."""
    total = CONFIG.make_sketch()
    for client in enrollment.clients:
        if client.user_id not in failed:
            total.update_many([client.ad_mapper.ad_id(url)
                               for url in client.seen_urls])
    return total


class TestFanoutEquivalence:
    @staticmethod
    def assert_matches_reference(enrollment, failed=()):
        """The tree's round result equals the reference round — and the
        plain sum of the reporters' sketches."""
        reference = enrollment_round(enrollment, 1, failed)
        _, fan = run_session(enrollment, failed=failed)
        assert fan.aggregate.cells == tuple(reference.root_cells)
        assert fan.aggregate.cells == \
            cleartext_sum(enrollment, failed=failed).cells
        assert list(fan.distribution.values) == reference.distribution
        assert fan.users_threshold == reference.users_threshold
        assert sorted(fan.reported_users) == reference.reported
        assert fan.missing_users == reference.missing == sorted(failed)
        assert fan.recovery_round_used == bool(failed)

    @pytest.mark.parametrize("num_cliques", [1, 4])
    def test_bit_identical_to_monolithic(self, num_cliques):
        self.assert_matches_reference(enrolled(num_cliques=num_cliques))

    @pytest.mark.parametrize("num_cliques", [1, 4])
    def test_bit_identical_with_dropout_recovery(self, num_cliques):
        self.assert_matches_reference(
            enrolled(num_cliques=num_cliques), failed=("user-05",))

    @pytest.mark.parametrize("num_cliques", [1, 4])
    def test_matches_direct_aggregation_server(self, num_cliques):
        """Acceptance: the tree equals the reference round on the same
        enrollment/round inputs, dropouts included."""
        failed = ("user-02", "user-09")
        enrollment = enrolled(num_cliques=num_cliques)
        _, fan = run_session(enrollment, failed=failed)
        assert fan.aggregate.cells == reference_cells(enrollment, failed)

    def test_fanout_spawns_one_aggregator_per_clique(self):
        enrollment = enrolled(num_cliques=4)
        session = ProtocolSession(CONFIG, enrollment.clients)
        aggregator_ids = {e.endpoint_id for e in session.endpoints
                          if isinstance(e, CliqueAggregator)}
        assert aggregator_ids == {clique_endpoint_id(c) for c in range(4)}
        for client in enrollment.clients:
            assert client.uplink == clique_endpoint_id(client.clique_id)

    def test_recovery_stays_inside_the_clique(self):
        enrollment = enrolled(num_cliques=4)
        victim = "user-05"
        session, result = run_session(enrollment, failed=(victim,))
        assert result.missing_users == [victim]
        victim_clique = enrollment.clique_of[victim]
        for endpoint in session.endpoints:
            if not isinstance(endpoint, CliqueAggregator):
                continue
            adjusted = set(endpoint._adjustments)
            if endpoint.clique_id == victim_clique:
                mates = {uid for uid, c in enrollment.clique_of.items()
                         if c == victim_clique and uid != victim}
                assert adjusted == mates
            else:
                assert adjusted == set()

    def test_whole_clique_missing_contributes_zero_partial(self):
        enrollment = enrolled(num_cliques=4)
        dead_clique = enrollment.clique_of["user-00"]
        dead = tuple(uid for uid, c in enrollment.clique_of.items()
                     if c == dead_clique)
        _, fan = run_session(enrollment, failed=dead)
        assert sorted(fan.missing_users) == sorted(dead)
        assert fan.aggregate.cells == reference_cells(enrollment, dead)

    def test_unrecovered_clique_raises(self):
        """A survivor that fails after reporting (its adjustment is
        dropped) makes the round unreleasable, loudly."""
        enrollment = enrolled(num_cliques=1)
        transport = InMemoryTransport()
        session = ProtocolSession(CONFIG, enrollment.clients,
                                  SessionConfig(transport=transport))
        session.drop_users(["user-03"])
        # Let reports through but drop one survivor's adjustment — the
        # "failed after reporting" shape the recovery cannot absorb.
        original_send = transport.send

        def send_hook(sender, recipient, message):
            if sender == "user-04" and not isinstance(message,
                                                      BlindedReport):
                return None  # drop user-04's adjustment
            return original_send(sender, recipient, message)

        transport.send = send_hook
        with pytest.raises(MissingReportError):
            session.run_round(1)


class TestMultiRoundWireSession:
    """Acceptance: a full multi-round, multi-clique session over the
    byte-exact codec with injected dropouts."""

    def test_three_rounds_with_dropouts_over_wire(self):
        enrollment = enrolled(num_cliques=4)
        transport = WireTransport()
        session = ProtocolSession(CONFIG, enrollment.clients,
                                  SessionConfig(transport=transport))
        reference = enrolled(num_cliques=4)

        # Round 1: everyone reports.
        r1 = session.run_round(1)
        assert r1.aggregate.cells == reference_cells(reference, round_id=1)

        # Round 2: two users in different cliques drop out.
        session.drop_users(["user-02", "user-09"])
        r2 = session.run_round(2)
        assert sorted(r2.missing_users) == ["user-02", "user-09"]
        assert r2.recovery_round_used
        assert r2.aggregate.cells == reference_cells(
            reference, failed=("user-02", "user-09"), round_id=2)

        # Round 3: they come back; the session keeps going.
        session.restore_users(["user-02", "user-09"])
        r3 = session.run_round(3)
        assert r3.missing_users == []
        assert r3.aggregate.cells == reference_cells(reference, round_id=3)

        # Every client received every round's broadcast and no endpoint
        # has unread mail after three rounds on the same transport.
        for client in enrollment.clients:
            assert client.last_threshold_round == 3
        for endpoint in session.endpoints:
            assert transport.pending(endpoint.endpoint_id) == 0

    @pytest.mark.parametrize("num_cliques", [1, 4])
    def test_byte_accounting_identical_across_byte_transports(
            self, num_cliques):
        """Wire and socket transports share one counter path
        (``WireTransport._transcode``), so transcript byte counts cannot
        drift between them — per sender, with and without dropouts."""
        from repro.protocol.net import SocketTransport

        for failed in ((), ("user-05",)):
            per_transport = {}
            for transport_cls in (WireTransport, SocketTransport):
                enrollment = enrolled(num_cliques=num_cliques)
                session, result = run_session(
                    enrollment, failed=failed,
                    transport_cls=transport_cls)
                transport = session.transport
                per_transport[transport_cls] = (
                    dict(transport.bytes_sent),
                    dict(transport.messages_sent),
                    result.total_bytes,
                )
                close = getattr(transport, "close", None)
                if close is not None:
                    close()
            wire_acct = per_transport[WireTransport]
            socket_acct = per_transport[SocketTransport]
            assert wire_acct == socket_acct
            assert wire_acct[2] > 0


class TestMailboxHygiene:
    def test_round_drains_every_mailbox(self):
        """Regression for the broadcast leak: the old coordinator pushed
        ThresholdBroadcasts (and stale notices) into client mailboxes and
        never drained them, growing the transport without bound across a
        multi-week session."""
        enrollment = enrolled(num_cliques=2)
        transport = InMemoryTransport()
        session = ProtocolSession(CONFIG, enrollment.clients,
                                  SessionConfig(transport=transport))
        for week in range(1, 6):
            session.run_round(week)
            for endpoint in session.endpoints:
                assert transport.pending(endpoint.endpoint_id) == 0, \
                    f"week {week}: {endpoint.endpoint_id} has unread mail"

    def test_clients_receive_the_broadcast(self):
        enrollment = enrolled(num_cliques=2)
        session = ProtocolSession(CONFIG, enrollment.clients)
        result = session.run_round(1)
        for client in enrollment.clients:
            assert client.last_threshold == result.users_threshold
            assert client.last_threshold_round == 1

    def test_backend_service_transport_stays_drained(self):
        """Week over week on one long-lived session (what every
        operator of the back-end runs), no client mailbox keeps mail."""
        enrollment = enrolled(num_cliques=2)
        session = ProtocolSession(CONFIG, enrollment.clients)
        for week in range(3):
            session.reset_windows()
            for i, client in enumerate(enrollment.clients):
                client.observe_ad(f"ad-week{week}-{i % 4}")
            session.run_round(week)
            for client in enrollment.clients:
                assert session.transport.pending(client.user_id) == 0


class TestRunnerPhases:
    """The four public phases ``run_round`` loops over — what a caller
    whose clients are remote (``ServiceState``) steps by hand."""

    def test_close_round_reads_the_summary_before_any_round_end(self):
        """An unfinalized root makes ``close_round`` raise with no
        endpoint ended, so the round stays open (HTTP 409 upstream) and
        a later ``close_round`` of the same round succeeds."""
        from repro.protocol.runner import ProtocolRunner
        _, expected = run_session(enrolled(num_cliques=2))
        session = ProtocolSession(CONFIG, enrolled(num_cliques=2).clients)
        runner = ProtocolRunner(session.endpoints, session.root,
                                transport=session.transport)
        ended = []
        for endpoint in runner.endpoints:
            endpoint.on_round_end = \
                lambda round_id, e=endpoint: ended.append(e.endpoint_id)
        runner.open_round(1)
        with pytest.raises(ProtocolError, match="not finalized"):
            runner.close_round(1)
        assert ended == []
        runner.deliver_pending()
        while runner.idle_phase(1):
            runner.deliver_pending()
        result = runner.close_round(1)
        assert ended == [e.endpoint_id for e in runner.endpoints]
        assert result.aggregate.cells == expected.aggregate.cells
        assert result.users_threshold == expected.users_threshold
        assert result.total_bytes == expected.total_bytes

    @pytest.mark.parametrize("drive", ["run_round", "stepped"])
    def test_endpoints_that_never_stop_mailing_hit_the_safety_valve(
            self, drive):
        """Two endpoints that answer every message with one to the
        other never quiesce: ``run_round`` and a caller stepping
        ``open_round`` + ``deliver_pending`` (the HTTP plane) both get a
        ProtocolError from the cap, not a hung process."""
        from repro.protocol.endpoint import ProtocolEndpoint
        from repro.protocol.runner import ProtocolRunner

        class PingPong(ProtocolEndpoint):
            def __init__(self, endpoint_id, peer):
                self.endpoint_id = endpoint_id
                self.peer = peer

            def on_round_start(self, round_id):
                return [(self.peer, "ping")] if self.peer == "b" else []

            def on_message(self, sender, message):
                return [(self.peer, message)]

        ping = PingPong("a", "b")
        runner = ProtocolRunner([ping, PingPong("b", "a")], ping)
        with pytest.raises(ProtocolError, match="did not quiesce"):
            if drive == "run_round":
                runner.run_round(0)
            else:
                runner.open_round(0)
                runner.deliver_pending()
        assert runner.transport.total_messages \
            == 2 * ProtocolRunner._MAX_CYCLES


class TestStrictRouting:
    def test_unknown_message_type_raises_not_dropped(self):
        """Regression: the old coordinator silently discarded unexpected
        message types when draining the server mailbox."""
        enrollment = enrolled(num_cliques=1)
        transport = InMemoryTransport()
        session = ProtocolSession(CONFIG, enrollment.clients,
                                  SessionConfig(transport=transport))
        transport.send(enrollment.clients[0].user_id, SERVER_ENDPOINT,
                       ThresholdBroadcast(round_id=1, users_threshold=1.0))
        with pytest.raises(ProtocolError):
            session.run_round(1)

    def test_client_rejects_foreign_message(self):
        enrollment = enrolled(num_cliques=1)
        client = enrollment.clients[0]
        partial = PartialAggregate(clique_id=0, round_id=1,
                                   cells=CellVector([0] * CONFIG.num_cells))
        with pytest.raises(ProtocolError):
            client.on_message("someone", partial)

    def test_unroutable_recipient_raises(self):
        transport = InMemoryTransport()
        transport.register("known")
        with pytest.raises(TransportError):
            transport.send("known", "unknown-endpoint", object())

    def test_root_rejects_wrong_round_partial(self):
        root = RootAggregator(CONFIG, [0], USER_IDS)
        root.on_round_start(2)
        partial = PartialAggregate(clique_id=0, round_id=1,
                                   cells=CellVector([0] * CONFIG.num_cells))
        with pytest.raises(RoundStateError):
            root.on_message(clique_endpoint_id(0), partial)

    def test_root_rejects_differing_duplicate_partial(self):
        root = RootAggregator(CONFIG, [0, 1], USER_IDS)
        root.on_round_start(1)
        a = PartialAggregate(clique_id=0, round_id=1,
                             cells=CellVector([1] * CONFIG.num_cells),
                             reported=("u",))
        b = PartialAggregate(clique_id=0, round_id=1,
                             cells=CellVector([2] * CONFIG.num_cells),
                             reported=("u",))
        root.on_message(clique_endpoint_id(0), a)
        root.on_message(clique_endpoint_id(0), a)  # identical: idempotent
        with pytest.raises(RoundStateError):
            root.on_message(clique_endpoint_id(0), b)

    def test_report_routed_to_wrong_clique_aggregator_rejected(self):
        enrollment = enrolled(num_cliques=4)
        session = ProtocolSession(CONFIG, enrollment.clients)
        aggregators = {e.clique_id: e for e in session.endpoints
                       if isinstance(e, CliqueAggregator)}
        client = enrollment.clients[0]
        wrong = aggregators[(client.clique_id + 1) % 4]
        wrong.on_round_start(1)
        with pytest.raises(RoundStateError):
            wrong.on_message(client.user_id, client.build_report(1))


class TestFlatRootIntake:
    """Clock-free pin for the flat-root fix: checking one partial's
    sender against the child list must not rebuild a set of every
    child (20,000 ints is ~1 MiB a message, quadratic a round)."""

    CHILDREN = 20_000
    TINY = RoundConfig(cms_depth=1, cms_width=4, cms_seed=1, id_space=8)

    def collectors(self):
        children = list(range(self.CHILDREN))
        return [RootAggregator(self.TINY, children, ["u"]),
                RegionalAggregator(0, 1, self.TINY, children,
                                   SERVER_ENDPOINT)]

    def test_intake_allocates_nothing_per_child(self):
        import tracemalloc
        partial = PartialAggregate(clique_id=7, round_id=1,
                                   cells=CellVector([1, 2, 3, 4]),
                                   reported=("u",))
        for collector in self.collectors():
            collector.on_round_start(1)
            collector.on_message("child", partial)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                # An identical resend walks every check, stores nothing.
                assert collector.on_message("child", partial) == []
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak - before < 16 * 1024, type(collector).__name__

    def test_membership_is_built_once(self):
        for collector in self.collectors():
            assert isinstance(collector._children, frozenset)
            assert len(collector._children) == self.CHILDREN


class TestPartialAggregateWire:
    def test_roundtrip(self):
        partial = PartialAggregate(clique_id=9, round_id=4,
                                   cells=CellVector([1, 2, 3]),
                                   reported=("a", "b"), missing=("c",))
        assert wire.decode(wire.encode(partial)) == partial

    def test_size_model_tracks_encoding(self):
        partial = PartialAggregate(clique_id=1, round_id=2,
                                   cells=CellVector([5] * 16),
                                   reported=("user-a",), missing=())
        encoded = wire.encode(partial)
        # The model ignores per-string framing; it must still be within
        # the header + length-prefix slack of the true encoding.
        assert abs(len(encoded) - partial.size_bytes()) < 64
