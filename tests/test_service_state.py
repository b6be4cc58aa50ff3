"""ServiceState: lifecycle guards, spec round-trips, and the parity
properties the HTTP plane exists to keep.

The headline assertions:

* a round driven through :class:`~repro.service.state.ServiceState` —
  every message crossing HTTP-shaped ``submit``/``drain_mailbox`` calls
  as wire bytes — produces a **bit-identical** aggregate, distribution
  and threshold to the in-process driver over the same enrollment, and
  the **same §7.1 byte totals** (the service re-sends every payload
  through the transport's ``_carry``/``_ship`` seam);
* ``RoundSummary`` / ``RoundResult`` / ``WeeklySnapshot`` survive their
  JSON specs exactly (satellite: ``net/spec.py`` round-trips).
"""

import json

import numpy as np
import pytest

from repro.api import ProtocolSession, SessionConfig, run_private_round
from repro.protocol.spec import WeeklySnapshot
from repro.errors import (
    ConfigurationError,
    MissingReportError,
    ProtocolError,
    RoundStateError,
)
from repro.protocol import wire
from repro.protocol.client import RoundConfig
from repro.protocol.endpoint import RoundSummary
from repro.protocol.enrollment import enroll_users
from repro.protocol.messages import BlindingAdjustment, MissingClientsNotice
from repro.protocol.spec import (
    result_from_spec,
    result_to_spec,
    snapshot_from_spec,
    snapshot_to_spec,
    summary_from_spec,
    summary_to_spec,
)
from repro.protocol.transport import WireTransport
from repro.service.client import RemoteClient
from repro.service.state import ServiceState
from repro.store.history import HistoryStore

CONFIG = RoundConfig(cms_depth=3, cms_width=64, cms_seed=7, id_space=512)
ROSTER = [f"u{i}" for i in range(6)]
URLS = {uid: [f"http://ads.example/{i % 3}", f"http://ads.example/{i}"]
        for i, uid in enumerate(ROSTER)}


def enrolled_clients(seed=11, num_cliques=2):
    enrollment = enroll_users(sorted(ROSTER), CONFIG, seed=seed,
                              use_oprf=False, num_cliques=num_cliques)
    for client in enrollment.clients:
        for url in URLS[client.user_id]:
            client.observe_ad(url)
    return enrollment.clients


def fresh_state(seed=11, num_cliques=2, transport="wire"):
    state = ServiceState(CONFIG, seed=seed, num_cliques=num_cliques,
                         transport=transport)
    for uid in ROSTER:
        state.enroll(uid)
    state.advance_epoch()
    return state


def drive_round(state, clients, participants=None):
    """The RemoteClient pump loop, minus HTTP: submit reports, poll
    mailboxes, advance on quiescence, finalize."""
    participants = {c.user_id for c in (participants or clients)}
    rid = state.start_round()
    by_id = {c.user_id: c for c in clients}
    for uid in sorted(participants):
        for _recipient, message in by_id[uid].on_round_start(rid):
            state.submit(uid, wire.encode(message))
    for _ in range(100):
        delivered = 0
        for uid in sorted(participants):
            for item in state.drain_mailbox(uid, rid):
                delivered += 1
                message = wire.decode(item["payload"])
                for _r, reply in by_id[uid].on_message(item["from"],
                                                       message):
                    state.submit(uid, wire.encode(reply))
        if delivered:
            continue
        if not state.advance(rid)["emitted"]:
            return state.finalize(rid)
    raise AssertionError("round did not quiesce")


@pytest.fixture(scope="module")
def finalized():
    """One fully-driven service round, shared by the read-only tests."""
    state = fresh_state()
    result = drive_round(state, enrolled_clients())
    yield state, result
    state.close()


class TestConstruction:
    def test_memory_transport_is_refused(self):
        with pytest.raises(ConfigurationError, match="byte-exact"):
            ServiceState(CONFIG, transport="memory")

    def test_unknown_threshold_rule_is_refused_early(self):
        with pytest.raises(ProtocolError, match="unknown threshold rule"):
            ServiceState(CONFIG, threshold_rule="p99-vibes")


class TestLifecycleGuards:
    def test_round_needs_an_epoch(self):
        state = ServiceState(CONFIG)
        with pytest.raises(ProtocolError, match="advance the epoch"):
            state.start_round()
        state.close()

    def test_first_epoch_needs_enrollment(self):
        state = ServiceState(CONFIG)
        with pytest.raises(ConfigurationError, match="at least one"):
            state.advance_epoch()
        state.close()

    def test_duplicate_enroll_refused(self):
        state = ServiceState(CONFIG)
        state.enroll("u1")
        with pytest.raises(ConfigurationError, match="already"):
            state.enroll("u1")
        state.close()

    def test_epoch_advance_refused_while_round_open(self):
        state = fresh_state()
        state.start_round()
        state.enroll("u9")
        with pytest.raises(ProtocolError, match="finalize it"):
            state.advance_epoch()
        state.close()

    def test_leaving_unknown_user_refused(self):
        state = fresh_state()
        with pytest.raises(ConfigurationError, match="not in the epoch"):
            state.advance_epoch(leaves=["nobody"])
        state.close()

    def test_submit_needs_an_open_round(self):
        state = fresh_state()
        with pytest.raises(ProtocolError, match="no round is open"):
            state.submit("u1", b"\x00")
        state.close()

    def test_submit_rejects_non_members(self):
        state = fresh_state()
        clients = enrolled_clients()
        rid = state.start_round()
        report = clients[0].build_report(rid)
        with pytest.raises(ProtocolError, match="not a member"):
            state.submit("stranger", wire.encode(report))
        state.close()

    def test_submit_rejects_spoofed_user_id(self):
        """u1's report cannot be submitted as u2 — the wire message's
        user_id must match the authenticated principal."""
        state = fresh_state()
        by_id = {c.user_id: c for c in enrolled_clients()}
        rid = state.start_round()
        report = by_id["u1"].build_report(rid)
        with pytest.raises(ProtocolError, match="does not match"):
            state.submit("u2", wire.encode(report))
        state.close()

    def test_submit_rejects_wrong_round(self):
        state = fresh_state()
        by_id = {c.user_id: c for c in enrolled_clients()}
        state.start_round()
        stale = by_id["u1"].build_report(99)
        with pytest.raises(ProtocolError, match="round 99"):
            state.submit("u1", wire.encode(stale))
        state.close()

    def test_submit_rejects_server_side_message_types(self):
        state = fresh_state()
        state.start_round()
        notice = MissingClientsNotice(round_id=0, missing_indexes=(0,),
                                      clique_id=0)
        with pytest.raises(ProtocolError, match="BlindedReport"):
            state.submit("u1", wire.encode(notice))
        state.close()

    def test_finalize_before_reports_is_a_conflict(self):
        state = fresh_state()
        rid = state.start_round()
        with pytest.raises(ProtocolError):
            state.finalize(rid)
        state.close()

    def test_an_unsolicited_adjustment_cannot_wedge_the_round(self):
        """Every member reports, then one sends an adjustment nobody
        asked for: it is refused and stores nothing, so the round still
        finalizes and the next one starts."""
        state = fresh_state()
        clients = enrolled_clients()
        rid = state.start_round()
        for client in clients:
            for _recipient, report in client.on_round_start(rid):
                state.submit(client.user_id, wire.encode(report))
        stray = BlindingAdjustment(
            user_id=clients[0].user_id, round_id=rid,
            cells=(1,) * CONFIG.num_cells, clique_id=clients[0].clique_id)
        with pytest.raises(RoundStateError, match="unsolicited"):
            state.submit(clients[0].user_id, wire.encode(stray))
        while state.advance(rid)["emitted"]:
            pass
        result = state.finalize(rid)
        assert result.missing_users == []
        assert sorted(result.reported_users) == ROSTER
        assert state.start_round() == rid + 1
        state.close()

    def test_a_round_nobody_reported_in_cannot_wedge_the_service(self):
        """Every member drops out: ``finalize`` answers the real cause
        once, the round closes with nothing recorded, and its id is
        spent, so the next round opens."""
        state = fresh_state(num_cliques=1)
        rid = state.start_round()
        while state.advance(rid)["emitted"]:
            pass
        with pytest.raises(MissingReportError, match="no reports arrived"):
            state.finalize(rid)
        assert state.open_round is None
        assert state.status()["rounds_finalized"] == []
        assert state.history_weeks() == []
        with pytest.raises(ProtocolError, match="no round is open"):
            state.finalize(rid)
        assert state.start_round() == rid + 1
        state.close()

    def test_summary_of_unfinalized_round_is_a_conflict(self):
        state = fresh_state()
        with pytest.raises(ProtocolError, match="not been finalized"):
            state.summary_spec(0)
        with pytest.raises(ProtocolError, match="no snapshot"):
            state.snapshot_spec(0)
        state.close()


class TestEquivalence:
    """The tentpole property: HTTP-shaped rounds match the in-process
    driver bit for bit — and byte for byte."""

    def test_round_matches_in_memory_driver_bitwise(self, finalized):
        _state, via_service = finalized
        reference = run_private_round(
            CONFIG, enrolled_clients(), round_id=0,
            settings=SessionConfig(transport="wire"))
        assert np.array_equal(via_service.aggregate.cells_array,
                              reference.aggregate.cells_array)
        assert list(via_service.distribution.values) == \
            list(reference.distribution.values)
        assert via_service.users_threshold == reference.users_threshold
        assert list(via_service.reported_users) == \
            list(reference.reported_users)
        assert list(via_service.missing_users) == []
        assert via_service.recovery_round_used is False

    def test_byte_totals_match_the_wire_driver(self, finalized):
        """Same messages, same codec, same accounting seam -> the
        service's §7.1 totals equal the in-process wire driver's."""
        _state, via_service = finalized
        transport = WireTransport()
        reference = run_private_round(
            CONFIG, enrolled_clients(), round_id=0,
            settings=SessionConfig(transport=transport))
        assert via_service.total_bytes == reference.total_bytes
        assert via_service.total_messages == reference.total_messages
        assert via_service.total_bytes == transport.total_bytes

    def test_each_finalized_round_bills_only_itself(self):
        """Three HTTP-stepped rounds bill the same traffic each, and
        ``/v1/history/rounds`` reports those per-round totals."""
        state = fresh_state()
        try:
            clients = state.session.membership.clients
            for client in clients:
                for url in URLS[client.user_id]:
                    client.observe_ad(url)
            results = [drive_round(state, clients) for _ in range(3)]
            billed = [(r.total_bytes, r.total_messages) for r in results]
            assert len(set(billed)) == 1
            assert sum(b for b, _m in billed) == state.transport.total_bytes
            assert [(h["round_id"], h["total_bytes"], h["total_messages"])
                    for h in state.history_rounds()] == \
                [(r.round_id, r.total_bytes, r.total_messages)
                 for r in results]
        finally:
            state.close()

    def test_full_participation_leaves_nothing_undelivered(self, finalized):
        state, _result = finalized
        assert state.undelivered == []
        assert state.status()["rounds_finalized"] == [0]

    def test_dropout_recovers_and_strands_the_broadcast(self):
        """A never-polling user goes missing, the recovery round runs,
        and finalize strands exactly that user's threshold broadcast in
        the undelivered telemetry."""
        state = fresh_state()
        clients = enrolled_clients()
        present = [c for c in clients if c.user_id != "u3"]
        result = drive_round(state, clients, participants=present)
        assert list(result.missing_users) == ["u3"]
        assert result.recovery_round_used is True
        assert [(u, t) for (_r, u, _s, t) in state.undelivered] == \
            [("u3", "ThresholdBroadcast")]
        state.close()

    def test_late_report_after_the_notice_is_refused(self):
        """A slow client POSTs its report after ``advance`` named it
        missing and the survivors adjusted: refused with its bytes
        billed, never stored, and the round ends exactly as if it had
        never reported."""
        state = fresh_state()
        by_id = {c.user_id: c for c in enrolled_clients()}
        survivors = [uid for uid in ROSTER if uid != "u3"]
        rid = state.start_round()
        for uid in survivors:
            state.submit(uid, wire.encode(by_id[uid].build_report(rid)))
        assert state.advance(rid)["emitted"]  # the recovery notice
        for uid in survivors:
            for item in state.drain_mailbox(uid, rid):
                for _r, reply in by_id[uid].on_message(
                        item["from"], wire.decode(item["payload"])):
                    state.submit(uid, wire.encode(reply))
        late = wire.encode(by_id["u3"].build_report(rid))
        before = state.transport.total_bytes
        with pytest.raises(RoundStateError, match="late report"):
            state.submit("u3", late)
        assert state.transport.total_bytes == before + len(late)
        assert state.status()["reports_received"] == len(survivors)
        while state.advance(rid)["emitted"]:
            pass
        result = state.finalize(rid)
        state.close()
        reference_state = fresh_state()
        clients = enrolled_clients()
        reference = drive_round(
            reference_state, clients,
            participants=[c for c in clients if c.user_id != "u3"])
        reference_state.close()
        assert list(result.missing_users) == ["u3"]
        assert np.array_equal(result.aggregate.cells_array,
                              reference.aggregate.cells_array)
        assert result.users_threshold == reference.users_threshold
        assert result.total_bytes == reference.total_bytes + len(late)


class TestDeliveryFollowsTheMail:
    @staticmethod
    def receives_per_submit(users, monkeypatch):
        """``transport.receive`` calls per report submitted, over a
        round's reports, with cliques of 4 on the wire transport."""
        state = ServiceState(CONFIG, seed=3, num_cliques=users // 4)
        roster = [f"p{i:04d}" for i in range(users)]
        for uid in roster:
            state.enroll(uid)
        state.advance_epoch()
        clients = {c.user_id: c for c in state.session.membership.clients}
        rid = state.start_round()
        reports = [(uid, wire.encode(clients[uid].build_report(rid)))
                   for uid in roster]
        calls = []
        receive = state.transport.receive
        monkeypatch.setattr(
            state.transport, "receive",
            lambda endpoint: calls.append(endpoint) or receive(endpoint))
        for uid, payload in reports:
            state.submit(uid, payload)
        state.close()
        return len(calls) / users

    def test_a_submit_costs_the_same_receives_at_any_roster_size(
            self, monkeypatch):
        """A submit visits the one clique aggregator it mailed — its
        report and the call that finds the mailbox empty — whatever the
        number of server endpoints."""
        assert self.receives_per_submit(200, monkeypatch) \
            == self.receives_per_submit(800, monkeypatch) == 2


class TestMultiEpochParity:
    """A service life — two rounds (one with a dropout), an epoch with a
    join and a leave, one more round — against an in-process session
    over the same roster, seed and ``"wire"`` transport."""

    @staticmethod
    def observe(clients):
        for client in clients:
            if not client.seen_urls:
                for url in URLS.get(client.user_id, ["http://ads.example/new"]):
                    client.observe_ad(url)

    def service_life(self):
        state = fresh_state()
        results = []
        for dropout in (None, "u3"):
            clients = state.session.membership.clients
            self.observe(clients)
            present = [c for c in clients if c.user_id != dropout]
            results.append(drive_round(state, clients, participants=present))
        state.enroll("u-new")
        state.advance_epoch(leaves=["u1"])
        clients = state.session.membership.clients
        self.observe(clients)
        results.append(drive_round(state, clients))
        return state, results

    def session_life(self):
        session = ProtocolSession.create(
            sorted(ROSTER), CONFIG, SessionConfig(transport="wire"),
            store=HistoryStore(), store_name="service", seed=11,
            use_oprf=False, num_cliques=2)
        results = []
        for dropout in (None, "u3"):
            self.observe(session.clients)
            if dropout:
                session.drop_users([dropout])
            session.week = session.next_round
            results.append(session.run_next_round())
            if dropout:
                session.restore_users([dropout])
        session.advance_epoch(joins=["u-new"], leaves=["u1"])
        self.observe(session.clients)
        session.week = session.next_round
        results.append(session.run_next_round())
        return session, results

    def test_rounds_and_records_match_the_in_process_session(self):
        state, via_service = self.service_life()
        session, in_process = self.session_life()
        try:
            assert [r.missing_users for r in via_service] == [[], ["u3"], []]
            for served, reference in zip(via_service, in_process):
                assert served.round_id == reference.round_id
                assert np.array_equal(served.aggregate.cells_array,
                                      reference.aggregate.cells_array)
                assert served.users_threshold == reference.users_threshold
                assert served.total_bytes == reference.total_bytes
                assert served.total_messages == reference.total_messages
            assert state.store.epoch_records("service") == \
                session.store.epoch_records("service")
            assert state.store.round_history(session="service") == \
                session.store.round_history(session="service")
        finally:
            state.close()
            session.close()


class TestRemoteSync:
    """``RemoteClient.sync`` derives its uplink from the replayed clique
    and *checks* it against the service's spec — it never adopts it."""

    def synced(self, mutate):
        state = fresh_state()
        spec = json.loads(json.dumps(state.enrollment_spec("u0")))
        state.close()
        mutate(spec["user"])
        remote = RemoteClient("localhost", 0, "u0")
        remote.http.get = lambda path: spec
        return remote.sync(), spec

    def test_derived_uplink_matches_the_service(self):
        client, spec = self.synced(lambda user: None)
        assert client.uplink == spec["user"]["uplink"] == \
            f"clique-aggregator-{client.clique_id}"

    def test_uplink_mismatch_is_a_diverged_replay(self):
        with pytest.raises(ProtocolError, match="replay diverged"):
            self.synced(lambda user: user.update(uplink="backend-server"))

    def test_clique_mismatch_is_a_diverged_replay(self):
        with pytest.raises(ProtocolError, match="replay diverged"):
            self.synced(lambda user: user.update(
                clique_id=user["clique_id"] + 1))


class TestSpecRoundTrips:
    """Satellite: WeeklySnapshot and RoundSummary JSON specs."""

    def test_round_result_survives_json_exactly(self, finalized):
        _state, result = finalized
        spec = json.loads(json.dumps(result_to_spec(result)))
        rebuilt = result_from_spec(spec, CONFIG)
        assert np.array_equal(rebuilt.aggregate.cells_array,
                              result.aggregate.cells_array)
        assert rebuilt.users_threshold == result.users_threshold
        assert list(rebuilt.distribution.values) == \
            list(result.distribution.values)
        assert rebuilt.total_bytes == result.total_bytes
        assert rebuilt.total_messages == result.total_messages

    def test_round_summary_methods_round_trip(self, finalized):
        _state, result = finalized
        summary = RoundSummary(
            round_id=result.round_id, aggregate=result.aggregate,
            distribution=result.distribution,
            users_threshold=result.users_threshold,
            reported_users=result.reported_users,
            missing_users=result.missing_users,
            recovery_round_used=result.recovery_round_used)
        rebuilt = summary_from_spec(
            json.loads(json.dumps(summary_to_spec(summary))), CONFIG)
        assert np.array_equal(rebuilt.aggregate.cells_array,
                              summary.aggregate.cells_array)
        assert rebuilt.users_threshold == summary.users_threshold
        assert tuple(rebuilt.reported_users) == \
            tuple(summary.reported_users)

    def test_weekly_snapshot_methods_round_trip(self, finalized):
        _state, result = finalized
        snapshot = WeeklySnapshot(
            week=0, users_threshold=result.users_threshold,
            distribution=result.distribution, round_result=result)
        rebuilt = snapshot_from_spec(
            json.loads(json.dumps(snapshot_to_spec(snapshot))), CONFIG)
        assert rebuilt.week == 0
        assert rebuilt.users_threshold == snapshot.users_threshold
        assert np.array_equal(rebuilt.round_result.aggregate.cells_array,
                              result.aggregate.cells_array)

    def test_service_specs_match_module_functions(self, finalized):
        state, result = finalized
        assert state.summary_spec(0) == result_to_spec(result)
        assert state.snapshot_spec(0)["round_result"] == \
            result_to_spec(result)

    def test_missing_field_is_a_malformed_spec(self, finalized):
        _state, result = finalized
        spec = result_to_spec(result)
        del spec["total_bytes"]
        with pytest.raises(ProtocolError, match="malformed round-result"):
            result_from_spec(spec, CONFIG)
        summary_spec = summary_to_spec(result)
        del summary_spec["cells"]
        with pytest.raises(ProtocolError, match="malformed round-summary"):
            summary_from_spec(summary_spec, CONFIG)
        with pytest.raises(ProtocolError, match="malformed weekly-snapshot"):
            snapshot_from_spec({"week": 0}, CONFIG)

    def test_from_spec_requires_the_shared_config(self, finalized):
        _state, result = finalized
        with pytest.raises(ProtocolError, match="RoundConfig"):
            summary_from_spec(summary_to_spec(result))
        with pytest.raises(ProtocolError, match="RoundConfig"):
            snapshot_from_spec({"week": 0})

    def test_cell_count_mismatch_is_refused(self, finalized):
        _state, result = finalized
        spec = summary_to_spec(result)
        wrong = RoundConfig(cms_depth=2, cms_width=8, cms_seed=7,
                            id_space=512)
        with pytest.raises(ProtocolError, match="cells"):
            summary_from_spec(spec, wrong)
