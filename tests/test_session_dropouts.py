"""The one dropout seam: ``ProtocolSession.drop_users`` / ``restore_users``.

Paper §6's fault tolerance is a session fact: a user that crashes before
reporting is dropped through the session, whichever backend hosts it,
and its clique's survivors cover it with recovery adjustments. Pinned
here:

* the same drops give the same round on the object and the batched
  backend, over the in-memory and the wire transport: aggregate,
  missing users, bytes and messages;
* a dropped user sends nothing, and the recovered aggregate is exact:
  the survivors' cleartext sum;
* a drop lasts until it is restored or the user leaves the roster;
* a drop takes effect at the next round start on both backends: a
  clique mate dropped after the reports went out still adjusts for the
  round already open, and counts missing from the next one; a restore
  likewise waits: a user restored mid-round stays missing from the open
  round and reports in the next one;
* a dropped client object builds no report and squeezes no pad: its
  round start yields an empty outbox until it is restored;
* the refusals: an id outside the roster (on both backends, before
  anything is dropped), any call on remote members, and dropouts on a
  cleartext pipeline;
* the pipeline drops a window's dropouts for that window's round only,
  and restores them when the round raises.
"""

import numpy as np
import pytest

from repro.api import ProtocolSession, SessionConfig
from repro.core.pipeline import DetectionPipeline
from repro.errors import ConfigurationError
from repro.protocol.client import RoundConfig
from repro.protocol.membership import MembershipManager
from repro.protocol.messages import BlindedReport, BlindingAdjustment
from repro.protocol.runner import RemotePopulation
from repro.protocol.transport import InMemoryTransport, WireTransport
from repro.types import TICKS_PER_WEEK, Ad, Impression

CONFIG = RoundConfig(cms_depth=4, cms_width=64, cms_seed=7, id_space=400)
USERS = [f"user-{i:02d}" for i in range(12)]
DROPPED = ["user-02", "user-07"]
BACKENDS = ("objects", "batched")
TRANSPORTS = {"memory": InMemoryTransport, "wire": WireTransport}


def ads_of(user_id):
    i = int(user_id.split("-")[1])
    return [f"http://ads.example/{i % 5}", f"http://ads.example/x{i % 3}"]


def observe(session):
    session.reset_windows()
    for uid in session.membership.roster:
        if session.army is not None:
            session.army.observe_ads(uid, ads_of(uid))
        else:
            session.membership.client_of(uid).observe_ads(ads_of(uid))


def make_session(backend, transport=None):
    session = ProtocolSession.create(
        USERS, CONFIG,
        SessionConfig(client_backend=backend, transport=transport),
        seed=3, num_cliques=3)
    observe(session)
    return session


def impressions(week):
    return [Impression(user_id=uid, ad=Ad(url=url), domain="site.example",
                       tick=week * TICKS_PER_WEEK)
            for uid in USERS for url in ads_of(uid)]


def cleartext(session, user_ids):
    sketch = CONFIG.make_sketch()
    mapper = session.membership.ad_mapper
    for uid in user_ids:
        sketch.update_many([mapper.ad_id(url) for url in ads_of(uid)])
    return sketch.cells_array


class TestSameRoundOnBothBackends:
    @pytest.mark.parametrize("transport", sorted(TRANSPORTS))
    def test_drops_give_the_same_round(self, transport):
        results = {}
        for backend in BACKENDS:
            wired = TRANSPORTS[transport](record_transcript=True)
            session = make_session(backend, wired)
            session.drop_users(DROPPED)
            result = session.run_round(0)
            submitters = {message.user_id for _, _, message in wired.transcript
                          if isinstance(message,
                                        (BlindedReport, BlindingAdjustment))}
            assert submitters == set(USERS) - set(DROPPED)
            survivors = sorted(set(USERS) - set(DROPPED))
            assert np.array_equal(result.aggregate.cells_array,
                                  cleartext(session, survivors))
            results[backend] = result
        objects, batched = results["objects"], results["batched"]
        assert objects.recovery_round_used and batched.recovery_round_used
        assert np.array_equal(objects.aggregate.cells_array,
                              batched.aggregate.cells_array)
        assert sorted(objects.missing_users) == sorted(batched.missing_users) \
            == DROPPED
        assert objects.total_bytes == batched.total_bytes
        assert objects.total_messages == batched.total_messages

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_drop_lasts_until_restored(self, backend):
        session = make_session(backend)
        session.drop_users(DROPPED[:1])
        session.drop_users(DROPPED[1:])
        assert sorted(session.run_next_round().missing_users) == DROPPED
        observe(session)
        assert sorted(session.run_next_round().missing_users) == DROPPED
        session.restore_users(DROPPED)
        observe(session)
        result = session.run_next_round()
        assert result.missing_users == [] and not result.recovery_round_used

    @pytest.mark.parametrize("transport", sorted(TRANSPORTS))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_drop_mid_round_waits_for_the_next_round(self, backend,
                                                       transport):
        session = make_session(backend, TRANSPORTS[transport]())
        first = DROPPED[0]
        clique_of = session.membership.epoch.clique_of
        mate = next(uid for uid in USERS
                    if uid != first and clique_of[uid] == clique_of[first])
        session.drop_users([first])
        session.open_round(0)
        session.deliver_pending()
        session.drop_users([mate])
        while session.idle_phase(0):
            session.deliver_pending()
        result = session.close_round(0)
        assert result.missing_users == [first]
        survivors = sorted(set(USERS) - {first})
        assert np.array_equal(result.aggregate.cells_array,
                              cleartext(session, survivors))
        observe(session)
        assert sorted(session.run_next_round().missing_users) \
            == sorted([first, mate])

    @pytest.mark.parametrize("transport", sorted(TRANSPORTS))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_restore_mid_round_waits_for_the_next_round(self, backend,
                                                          transport):
        session = make_session(backend, TRANSPORTS[transport]())
        session.drop_users(DROPPED)
        session.open_round(0)
        session.deliver_pending()
        session.restore_users(DROPPED[:1])
        while session.idle_phase(0):
            session.deliver_pending()
        result = session.close_round(0)
        assert sorted(result.missing_users) == DROPPED
        survivors = sorted(set(USERS) - set(DROPPED))
        assert np.array_equal(result.aggregate.cells_array,
                              cleartext(session, survivors))
        observe(session)
        assert session.run_next_round().missing_users == DROPPED[1:]

    def test_a_dropped_client_object_builds_no_report(self):
        session = make_session("objects")
        client = session.membership.client_of(DROPPED[0])
        session.drop_users(DROPPED[:1])
        assert client.dropped
        assert client.on_round_start(0) == []
        assert client._reported_round is None
        assert client._blinded_rounds.get(0) is None
        session.restore_users(DROPPED[:1])
        assert not client.dropped
        (_, report), = client.on_round_start(0)
        assert isinstance(report, BlindedReport)
        assert report.user_id == DROPPED[0] and report.round_id == 0

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_leaver_is_no_longer_dropped(self, backend):
        session = make_session(backend)
        session.drop_users(DROPPED)
        session.advance_epoch(leaves=DROPPED[:1])
        session.advance_epoch(joins=DROPPED[:1])
        observe(session)
        assert session.run_next_round().missing_users == DROPPED[1:]


class TestRefusals:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_an_id_outside_the_roster_drops_nobody(self, backend):
        session = make_session(backend)
        for seam in (session.drop_users, session.restore_users):
            with pytest.raises(ConfigurationError,
                               match="not in the roster"):
                seam([DROPPED[0], "user-99"])
        assert session.run_round(0).missing_users == []

    def test_an_id_that_left_is_outside_the_roster(self):
        session = make_session("batched")
        session.advance_epoch(leaves=DROPPED[:1])
        with pytest.raises(ConfigurationError, match="user-02"):
            session.drop_users(DROPPED[:1])

    def test_remote_members_are_refused(self):
        members = RemotePopulation(MembershipManager.enroll(
            USERS, CONFIG, seed=3, num_cliques=3))
        with ProtocolSession.create(members) as session:
            for seam in (session.drop_users, session.restore_users):
                with pytest.raises(ConfigurationError, match="remote members"):
                    seam(DROPPED)

    def test_the_cleartext_pipeline_refuses_dropouts(self):
        pipeline = DetectionPipeline(private=False)
        with pytest.raises(ConfigurationError, match="cleartext"):
            pipeline.run_week(impressions(0), dropouts=DROPPED)
        assert pipeline.run_week(impressions(0)).round_result is None


class TestPipelineDropouts:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_dropouts_last_one_window(self, backend):
        pipeline = DetectionPipeline(
            private=True, enrollment_seed=3, num_cliques=3,
            settings=SessionConfig(client_backend=backend))
        try:
            dropped = pipeline.run_week(impressions(0), week=0,
                                        dropouts=set(DROPPED))
            assert sorted(dropped.round_result.missing_users) == DROPPED
            assert dropped.round_result.recovery_round_used
            after = pipeline.run_week(impressions(1), week=1)
            assert after.round_result.missing_users == []
        finally:
            pipeline.close()

    def test_a_raising_round_still_restores(self, monkeypatch):
        pipeline = DetectionPipeline(private=True, enrollment_seed=3,
                                     num_cliques=3)
        real = ProtocolSession.run_round

        def crash(session, round_id):
            monkeypatch.setattr(ProtocolSession, "run_round", real)
            raise RuntimeError("operator crashed mid-round")

        monkeypatch.setattr(ProtocolSession, "run_round", crash)
        try:
            with pytest.raises(RuntimeError, match="mid-round"):
                pipeline.run_week(impressions(0), week=0,
                                  dropouts=DROPPED)
            after = pipeline.run_week(impressions(1), week=1)
            assert after.round_result.missing_users == []
        finally:
            pipeline.close()
