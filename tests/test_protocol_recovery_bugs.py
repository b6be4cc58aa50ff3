"""Regression tests for the recovery-round hardening fixes.

Each class pins one bug that existed before the hardening PR:

* The aggregate was released on *partial* adjustment coverage (any
  non-empty adjustment list silenced the missing-user check), so its
  blinding had not cancelled — pure noise, silently.
* A second report from the same user silently overwrote the first,
  letting a replayed or forged upload corrupt the sum.
* ``ProtocolClient.build_report`` would blind two different sketches
  under the same round id, reusing the pairwise one-time pad and leaking
  the cell-wise difference of the sketches.
* ``enroll_users`` carried a dead ``or b"\\0"`` fallback on the shared
  PRF key (an 8-byte bytes object is always truthy).
* ``CliqueAggregator`` stored a report that arrived after its recovery
  notice had named the sender missing; minus the survivors' adjustments
  that report is the sender's cleartext sketch.
* Both client backends answered a ``MissingClientsNotice`` for any
  round, any number of times, handing out pad material of rounds they
  never reported in.
* ``ClientArmy`` forgot the notice it had answered whenever a round was
  rebuilt — identically, or refused by the pad-reuse guard — so a
  differing notice for the same round was answered a second time.
* ``CliqueAggregator`` stored traffic that arrived after it released its
  partial — an adjustment from a clique with no missing members (refused
  before the release), a late report for a user the root had already
  been told was missing — where it was never counted.
* ``CliqueAggregator`` stored an adjustment nobody asked for; its release
  then refused every attempt, so one member could wedge the round.
"""

import hashlib
import inspect
from types import SimpleNamespace

import numpy as np
import pytest

from repro.api import ProtocolSession, SessionConfig
from repro.errors import (
    BlindingError,
    MissingReportError,
    ProtocolError,
    RoundStateError,
)
from repro.protocol import client as client_mod
from repro.protocol import enrollment as enrollment_mod
from repro.protocol.aggregator import CliqueAggregator
from repro.protocol.army import ClientArmy
from repro.protocol.client import RoundConfig
from repro.protocol.enrollment import enroll_users
from repro.protocol.messages import (
    BlindedReport,
    BlindingAdjustment,
    MissingClientsNotice,
)
from repro.protocol.transport import InMemoryTransport
from repro.sketch.countmin import CountMinSketch

CONFIG = RoundConfig(cms_depth=4, cms_width=64, cms_seed=5, id_space=300)


def make_enrollment(n=4, seed=0, **kwargs):
    return enroll_users([f"user-{i}" for i in range(n)], CONFIG,
                        seed=seed, use_oprf=False, **kwargs)


def make_aggregator(clients, round_id=1):
    """One clique's aggregator over ``clients`` (all in clique 0), with
    ``round_id`` open."""
    aggregator = CliqueAggregator(
        0, CONFIG, {c.user_id: c.blinding.user_index for c in clients})
    aggregator.on_round_start(round_id)
    return aggregator


def submit(aggregator, message):
    return aggregator.on_message(message.user_id, message)


def answer(aggregator, clients, notices):
    """Deliver each notice to its survivor and the adjustment back."""
    by_id = {c.user_id: c for c in clients}
    for user, notice in notices:
        [(_uplink, adjustment)] = by_id[user].on_message(
            aggregator.endpoint_id, notice)
        submit(aggregator, adjustment)


class TestPartialAdjustmentCoverage:
    def _drop_last(self, n=5):
        clients = make_enrollment(n).clients
        aggregator = make_aggregator(clients)
        for client in clients:
            client.observe_ad("http://ad.example/1")
        for client in clients[:-1]:
            submit(aggregator, client.build_report(1))
        notices = aggregator.on_idle(1)
        assert [u for u, _ in notices] == \
            sorted(c.user_id for c in clients[:-1])
        return clients, aggregator, notices

    def test_partial_coverage_raises(self):
        """Some-but-not-all survivors adjusting must not release noise."""
        clients, aggregator, notices = self._drop_last()
        answer(aggregator, clients, notices[:2])  # 2 of 4 adjust
        with pytest.raises(MissingReportError):
            aggregator.on_idle(1)

    def test_full_coverage_releases_clean_aggregate(self):
        clients, aggregator, notices = self._drop_last()
        answer(aggregator, clients, notices)
        [(_root, partial)] = aggregator.on_idle(1)
        aggregate = CountMinSketch(CONFIG.cms_depth, CONFIG.cms_width,
                                   CONFIG.cms_seed,
                                   cells=partial.cells_as_array())
        mapper = clients[0].ad_mapper
        assert aggregate.query(mapper.ad_id("http://ad.example/1")) == \
            len(clients) - 1

    def test_all_dropout_round_raises(self):
        """Zero reports must not release an all-zero 'aggregate': the
        clique's partial is zeros with its whole roster missing, and
        the root refuses to threshold it."""
        clients = make_enrollment(3).clients
        [(_root, partial)] = make_aggregator(clients).on_idle(1)
        assert partial.reported == ()
        assert partial.missing == tuple(sorted(c.user_id for c in clients))
        assert not partial.cells_as_array().any()
        session = ProtocolSession(CONFIG, clients,
                                  SessionConfig(transport=InMemoryTransport()))
        session.drop_users(c.user_id for c in clients)
        with pytest.raises(MissingReportError, match="no reports"):
            session.run_round(1)

    def test_adjusted_users_tracked(self):
        clients, aggregator, notices = self._drop_last()
        assert aggregator._adjustments == {}
        answer(aggregator, clients, notices[:1])
        assert set(aggregator._adjustments) == {clients[0].user_id}

    def test_adjustment_from_non_reporting_user_rejected(self):
        """A user whose own pads never entered the sum cannot 'correct':
        intake refuses it, and so does the release check behind it."""
        clients = make_enrollment(4).clients
        aggregator = make_aggregator(clients)
        for client in clients[:2]:
            submit(aggregator, client.build_report(1))
        assert aggregator.on_idle(1)  # the notice goes out
        # clients[2] never reported but sends an adjustment for clients[3].
        adjustment = clients[2].build_adjustment(
            1, [clients[3].blinding.user_index])
        with pytest.raises(RoundStateError, match="unsolicited"):
            submit(aggregator, adjustment)
        assert aggregator._adjustments == {}
        # Stored past intake (as an intake bug would), release refuses it.
        aggregator._adjustments[adjustment.user_id] = adjustment
        with pytest.raises(RoundStateError, match="never arrived"):
            aggregator.on_idle(1)

    def test_adjustment_without_any_missing_user_rejected(self):
        """An unsolicited adjustment is un-cancelled noise, not a fix."""
        clients = make_enrollment(3).clients
        aggregator = make_aggregator(clients)
        for client in clients:
            submit(aggregator, client.build_report(1))
        adjustment = BlindingAdjustment(
            clients[0].user_id, 1, cells=tuple([1] * CONFIG.num_cells))
        with pytest.raises(RoundStateError, match="unsolicited"):
            submit(aggregator, adjustment)
        aggregator._adjustments[adjustment.user_id] = adjustment
        with pytest.raises(RoundStateError, match="no missing users"):
            aggregator.on_idle(1)


class TestDuplicateReports:
    def _aggregator_with_report(self):
        clients = make_enrollment(3).clients
        aggregator = make_aggregator(clients)
        clients[0].observe_ad("http://ad.example/1")
        report = clients[0].build_report(1)
        submit(aggregator, report)
        return clients, aggregator, report

    def test_differing_resubmission_rejected(self):
        clients, aggregator, report = self._aggregator_with_report()
        forged = BlindedReport(
            user_id=report.user_id, round_id=1,
            cells=tuple((c + 1) % (2 ** 32) for c in report.cells))
        with pytest.raises(RoundStateError, match="differing"):
            submit(aggregator, forged)
        # And the original report is still the one in the round.
        assert aggregator._reports == {report.user_id: report}

    def test_identical_resend_is_idempotent(self):
        clients, aggregator, report = self._aggregator_with_report()
        assert submit(aggregator, report) == []
        for client in clients[1:]:
            submit(aggregator, client.build_report(1))
        [(_root, partial)] = aggregator.on_idle(1)
        aggregate = CountMinSketch(CONFIG.cms_depth, CONFIG.cms_width,
                                   CONFIG.cms_seed,
                                   cells=partial.cells_as_array())
        mapper = clients[0].ad_mapper
        # Counted once despite the resend.
        assert aggregate.query(mapper.ad_id("http://ad.example/1")) == 1

    def test_duplicate_adjustment_differing_rejected(self):
        clients = make_enrollment(4).clients
        aggregator = make_aggregator(clients)
        for client in clients[:-1]:
            submit(aggregator, client.build_report(1))
        aggregator.on_idle(1)
        missing = [clients[-1].blinding.user_index]
        adjustment = clients[0].build_adjustment(1, missing)
        submit(aggregator, adjustment)
        assert submit(aggregator, adjustment) == []  # identical resend
        forged = BlindingAdjustment(
            adjustment.user_id, 1,
            cells=tuple((c + 1) % (2 ** 32) for c in adjustment.cells))
        with pytest.raises(RoundStateError, match="differing"):
            submit(aggregator, forged)


class TestRoundIdReuse:
    def test_blinding_two_sketches_same_round_rejected(self):
        client = make_enrollment(2).clients[0]
        client.observe_ad("http://first.example/ad")
        client.build_report(7)
        client.observe_ad("http://second.example/ad")  # sketch changed
        with pytest.raises(RoundStateError):
            client.build_report(7)

    def test_identical_rebuild_allowed(self):
        client = make_enrollment(2).clients[0]
        client.observe_ad("http://same.example/ad")
        first = client.build_report(3)
        second = client.build_report(3)  # retransmission of the same state
        assert first == second

    def test_fresh_round_id_always_allowed(self):
        client = make_enrollment(2).clients[0]
        client.observe_ad("http://a.example/1")
        client.build_report(1)
        client.observe_ad("http://b.example/2")
        report = client.build_report(2)
        assert report.round_id == 2

    def test_guard_survives_window_reset(self):
        """Pads are keyed by (pair, round); a new window does not refresh
        them, so reuse across windows must still be refused."""
        client = make_enrollment(2).clients[0]
        client.observe_ad("http://w0.example/ad")
        client.build_report(5)
        client.reset_window()
        client.observe_ad("http://w1.example/ad")
        with pytest.raises(RoundStateError):
            client.build_report(5)

    def test_guard_hashes_each_sketch_once(self, monkeypatch):
        """The guard's digest is computed once per built sketch, not once
        a round: three rounds of four unchanged windows hash four
        sketches, and one new observation costs its client exactly one
        more hash — counted, not timed."""
        calls = []

        def counting_sha256(data=b""):
            calls.append(1)
            return hashlib.sha256(data)

        monkeypatch.setattr(client_mod, "hashlib",
                            SimpleNamespace(sha256=counting_sha256))
        session = ProtocolSession.create(
            [f"user-{i}" for i in range(4)], CONFIG, seed=0, use_oprf=False)
        try:
            for client in session.clients:
                client.observe_ad("http://ad.example/1")
            for _ in range(3):
                session.run_next_round()
            assert len(calls) == 4
            session.clients[2].observe_ad("http://ad.example/2")
            session.run_next_round()
            assert len(calls) == 5
        finally:
            session.close()


class TestSeedZeroPrfKey:
    def test_seed_zero_enrollment_works(self):
        enrollment = make_enrollment(3, seed=0)
        mapper = enrollment.clients[0].ad_mapper
        assert len(mapper._key) == 8
        ad_id = mapper.ad_id("http://ad.example/1")
        assert 0 <= ad_id < CONFIG.id_space
        assert mapper.ad_id("http://ad.example/1") == ad_id

    def test_dead_fallback_removed(self):
        """``seed.to_bytes(8, ...)`` is never falsy (8 bytes are truthy
        even when all zero), so the old ``or b"\\0"`` branch was dead
        code masquerading as a safety net."""
        source = inspect.getsource(enrollment_mod.enroll_users)
        assert 'or b"\\0"' not in source and "or b'\\0'" not in source
        # And the real guarantee the fallback pretended to give:
        assert (0).to_bytes(8, "big", signed=True)  # truthy, 8 bytes


class TestLateReportAfterRecoveryNotice:
    """Four members, three report, the notice names the fourth missing,
    the three adjustments arrive — and then the fourth report."""

    URLS = ("http://ad.example/1", "http://ad.example/2")

    def _recovered_clique(self):
        clients = make_enrollment(4).clients
        for i, client in enumerate(clients):
            client.observe_ad(self.URLS[i % 2])
        aggregator = CliqueAggregator(
            0, CONFIG, {c.user_id: c.blinding.user_index for c in clients})
        aggregator.on_round_start(1)
        survivors, late = clients[:3], clients[3]
        for client in survivors:
            aggregator.on_message(client.user_id, client.build_report(1))
        notices = aggregator.on_idle(1)
        assert sorted(u for u, _ in notices) == \
            sorted(c.user_id for c in survivors)
        adjustments = []
        for client, (_user, notice) in zip(survivors, notices):
            [(_uplink, adjustment)] = client.on_message(
                aggregator.endpoint_id, notice)
            aggregator.on_message(client.user_id, adjustment)
            adjustments.append(adjustment)
        return survivors, late, aggregator, adjustments

    @staticmethod
    def cleartext(client):
        sketch = CONFIG.make_sketch()
        sketch.update_many([client.ad_mapper.ad_id(url)
                            for url in client.seen_urls])
        return sketch.cells_array

    def test_late_report_is_refused_before_it_is_stored(self):
        survivors, late, aggregator, adjustments = self._recovered_clique()
        report = late.build_report(1)
        # What storing it would hand the back-end: the report minus the
        # survivors' adjustments is the late user's sketch, cell for cell
        # (plain uint32 subtraction wraps mod 2^32).
        unmasked = report.cells_as_array() - sum(
            a.cells_as_array() for a in adjustments)
        assert unmasked.dtype == np.uint32
        assert np.array_equal(unmasked, self.cleartext(late))
        with pytest.raises(RoundStateError, match="late report"):
            aggregator.on_message(late.user_id, report)
        assert late.user_id not in aggregator._reports
        # A survivor's identical resend stays idempotent.
        aggregator.on_message(survivors[0].user_id,
                              survivors[0].build_report(1))
        [(_root, partial)] = aggregator.on_idle(1)
        assert partial.missing == (late.user_id,)
        assert partial.reported == tuple(sorted(
            c.user_id for c in survivors))
        assert np.array_equal(partial.cells_as_array(),
                              sum(self.cleartext(c) for c in survivors))


class TestLateTrafficAfterRelease:
    """Once a clique aggregator released its partial, only an identical
    resend of a counted submission is a no-op; anything else is refused,
    never stored behind the sum the root already has."""

    def _clique(self, reporting):
        clients = make_enrollment(4).clients
        for client in clients:
            client.observe_ad("http://ad.example/1")
        aggregator = CliqueAggregator(
            0, CONFIG, {c.user_id: c.blinding.user_index for c in clients})
        aggregator.on_round_start(1)
        reports = {c.user_id: c.build_report(1) for c in clients}
        for client in clients[:reporting]:
            aggregator.on_message(client.user_id, reports[client.user_id])
        [(_root, partial)] = aggregator.on_idle(1)
        return clients, aggregator, reports, partial

    def test_adjustment_after_a_full_release_is_refused(self):
        clients, aggregator, reports, partial = self._clique(reporting=4)
        assert partial.missing == ()
        adjustment = BlindingAdjustment(
            user_id=clients[0].user_id, round_id=1,
            cells=(1,) * CONFIG.num_cells, clique_id=0)
        with pytest.raises(RoundStateError, match="already released"):
            aggregator.on_message(clients[0].user_id, adjustment)
        assert not aggregator._adjustments
        # An identical report resend stays a no-op, a differing one raises.
        assert aggregator.on_message(
            clients[1].user_id, reports[clients[1].user_id]) == []
        with pytest.raises(RoundStateError, match="differing"):
            aggregator.on_message(clients[1].user_id, BlindedReport(
                user_id=clients[1].user_id, round_id=1,
                cells=(0,) * CONFIG.num_cells, clique_id=0))
        assert aggregator.on_idle(1) == []

    def test_the_same_adjustment_before_release_is_refused_too(self):
        """Refused at intake, it stores nothing: the round still
        releases, and the next one starts."""
        clients = make_enrollment(4).clients
        aggregator = make_aggregator(clients)
        for client in clients:
            submit(aggregator, client.build_report(1))
        with pytest.raises(RoundStateError, match="unsolicited"):
            submit(aggregator, BlindingAdjustment(
                user_id=clients[0].user_id, round_id=1,
                cells=(1,) * CONFIG.num_cells, clique_id=0))
        [(_root, partial)] = aggregator.on_idle(1)
        assert partial.missing == ()
        assert partial.cells_as_array().sum() == 0  # nothing observed
        aggregator.on_round_start(2)
        for client in clients:
            submit(aggregator, client.build_report(2))
        [(_root, partial)] = aggregator.on_idle(2)
        assert partial.round_id == 2

    def test_late_report_after_a_whole_clique_release_is_refused(self):
        clients, aggregator, reports, partial = self._clique(reporting=0)
        assert partial.reported == ()
        late = clients[2].user_id
        assert late in partial.missing
        with pytest.raises(RoundStateError, match="already released"):
            aggregator.on_message(late, reports[late])
        assert not aggregator._reports

    def test_identical_adjustment_resend_after_recovery_is_a_no_op(self):
        clients = make_enrollment(4).clients
        aggregator = CliqueAggregator(
            0, CONFIG, {c.user_id: c.blinding.user_index for c in clients})
        aggregator.on_round_start(1)
        survivors = clients[:3]
        for client in survivors:
            aggregator.on_message(client.user_id, client.build_report(1))
        adjustments = []
        for client, (_user, notice) in zip(survivors, aggregator.on_idle(1)):
            [(_uplink, adjustment)] = client.on_message(
                aggregator.endpoint_id, notice)
            aggregator.on_message(client.user_id, adjustment)
            adjustments.append(adjustment)
        [(_root, partial)] = aggregator.on_idle(1)
        assert partial.missing == (clients[3].user_id,)
        assert aggregator.on_message(survivors[0].user_id,
                                     adjustments[0]) == []
        with pytest.raises(RoundStateError, match="differing"):
            aggregator.on_message(survivors[0].user_id, BlindingAdjustment(
                user_id=survivors[0].user_id, round_id=1,
                cells=adjustments[1].cells, clique_id=0))


class TestRecoveryNoticeGuard:
    """Answering a notice hands its sender the pads the answering client
    shares with the named peers in the notice's round; in a clique of
    two that is the peer's whole blinding for the round. So a client
    answers only a notice for the round it last reported in, for its own
    clique, once: an identical repeat is a no-op, a differing one a
    :class:`RoundStateError`."""

    SENDER = "clique-aggregator-0"

    @pytest.fixture(params=["objects", "batched"])
    def clique0(self, request):
        """(endpoint answering for clique 0, a reporting member's index,
        a silent member's index, the third member's index) in a six-user,
        two-clique panel; the endpoint has not reported yet."""
        if request.param == "objects":
            members = sorted((c for c in make_enrollment(6, num_cliques=2).clients
                              if c.clique_id == 0), key=lambda c: c.user_id)
            for client in members:
                client.observe_ad("http://ad.example/1")
            return (members[0],
                    *(c.blinding.user_index for c in members))
        army = ClientArmy.enroll([f"user-{i}" for i in range(6)], CONFIG,
                                 seed=0, use_oprf=False, num_cliques=2)
        survivor, silent, third = sorted(army.members()[0])
        army.observe_ad(survivor, "http://ad.example/1")
        army.drop_users([silent])
        return (army, *(army.index_of[u] for u in (survivor, silent, third)))

    def notice(self, round_id, *missing, clique_id=0):
        return MissingClientsNotice(round_id=round_id,
                                    missing_indexes=missing,
                                    clique_id=clique_id)

    def test_notice_for_another_round_is_refused(self, clique0):
        endpoint, _survivor, silent, _third = clique0
        endpoint.on_round_start(0)
        with pytest.raises(RoundStateError, match="round 7"):
            endpoint.on_message(self.SENDER, self.notice(7, silent))

    def test_notice_before_any_report_is_refused(self, clique0):
        endpoint, _survivor, silent, _third = clique0
        with pytest.raises(RoundStateError, match="round 3"):
            endpoint.on_message(self.SENDER, self.notice(3, silent))

    def test_one_answer_per_round_and_clique(self, clique0):
        endpoint, _survivor, silent, third = clique0
        endpoint.on_round_start(0)
        answer = endpoint.on_message(self.SENDER, self.notice(0, silent))
        assert answer and all(isinstance(m, BlindingAdjustment)
                              and m.round_id == 0 for _to, m in answer)
        assert endpoint.on_message(self.SENDER, self.notice(0, silent)) == []
        with pytest.raises(RoundStateError, match="different"):
            endpoint.on_message(self.SENDER, self.notice(0, silent, third))

    @staticmethod
    def silence(endpoint, index):
        """Drop the member with blinding index ``index`` from the army's
        reports; an object client reports only itself, so for it there
        is nothing to silence."""
        if isinstance(endpoint, ClientArmy):
            endpoint.drop_users([uid for uid, i in endpoint.index_of.items()
                                 if i == index])

    @staticmethod
    def observe(endpoint, index, url):
        if isinstance(endpoint, ClientArmy):
            [uid] = [u for u, i in endpoint.index_of.items() if i == index]
            endpoint.observe_ad(uid, url)
        else:
            endpoint.observe_ad(url)

    def test_identical_rebuild_keeps_the_answered_notice(self, clique0):
        """A retransmitted round is the same round: its answered notice
        still stands, so a notice naming a second dropout is refused
        instead of handing out that member's pads too."""
        endpoint, _survivor, silent, third = clique0
        self.silence(endpoint, third)
        endpoint.on_round_start(0)
        assert endpoint.on_message(self.SENDER, self.notice(0, silent))
        endpoint.on_round_start(0)
        assert endpoint.on_message(self.SENDER, self.notice(0, silent)) == []
        with pytest.raises(RoundStateError, match="different"):
            endpoint.on_message(self.SENDER, self.notice(0, silent, third))

    def test_refused_rebuild_keeps_the_answered_notice(self, clique0):
        """A rebuild the pad-reuse guard refuses changes no round state."""
        endpoint, survivor, silent, third = clique0
        self.silence(endpoint, third)
        endpoint.on_round_start(0)
        assert endpoint.on_message(self.SENDER, self.notice(0, silent))
        self.observe(endpoint, survivor, "http://ad.example/2")
        with pytest.raises(RoundStateError, match="already blinded"):
            endpoint.on_round_start(0)
        assert endpoint.on_message(self.SENDER, self.notice(0, silent)) == []
        with pytest.raises(RoundStateError, match="different"):
            endpoint.on_message(self.SENDER, self.notice(0, silent, third))

    def test_malformed_notices_raise_typed_errors(self, clique0):
        endpoint, survivor, silent, _third = clique0
        endpoint.on_round_start(0)
        with pytest.raises(BlindingError, match="surviving"):
            endpoint.on_message(self.SENDER, self.notice(0, survivor))
        with pytest.raises(ProtocolError, match="clique 9"):
            endpoint.on_message(self.SENDER,
                                self.notice(0, silent, clique_id=9))
        # The refusals consumed nothing: the honest notice still answers.
        assert endpoint.on_message(self.SENDER, self.notice(0, silent))
