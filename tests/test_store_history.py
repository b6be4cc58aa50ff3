"""The typed DAO surface of :class:`repro.store.HistoryStore`: record
round-trips, immutability rules, longitudinal queries and connection
lifecycle."""

import os

import pytest

from repro.api import ProtocolSession, SessionConfig
from repro.errors import StoreError
from repro.protocol.client import RoundConfig
from repro.store import (
    DetectionRecord,
    EpochRecord,
    HistoryStore,
    SessionRecord,
    WeeklyStatsRecord,
)
from repro.types import Ad, ClassifiedAd, Label

CONFIG = RoundConfig(cms_depth=2, cms_width=64, cms_seed=5, id_space=512)


def _session_record(name="s", **overrides):
    fields = dict(
        name=name,
        config=CONFIG,
        seed=3,
        use_oprf=False,
        num_cliques=2,
        share_pad_streams=True,
    )
    fields.update(overrides)
    return SessionRecord(**fields)


def _epoch_record(epoch_id=0, roster=("u1", "u2"), **overrides):
    fields = dict(
        epoch_id=epoch_id,
        first_round=0,
        num_cliques=1,
        roster=tuple(roster),
        clique_of={u: 0 for u in roster},
    )
    fields.update(overrides)
    return EpochRecord(**fields)


def _verdict(week, user_id, ad, label, users_seen=5.0):
    return ClassifiedAd(
        user_id=user_id,
        ad=Ad(url=ad),
        label=label,
        domains_seen=4,
        users_seen=users_seen,
        domains_threshold=3.0,
        users_threshold=6.0,
        week=week,
    )


def _run_round(store=None, name="live", user_ids=("a", "b", "c", "d")):
    """One real protocol round, optionally recorded into ``store``."""
    session = ProtocolSession.create(
        list(user_ids),
        CONFIG,
        SessionConfig(),
        store=store,
        store_name=name,
        seed=3,
    )
    try:
        for client in session.clients:
            client.observe_ad("http://ads.example/1")
        return session.run_round(0)
    finally:
        session.close()


class TestLifecycle:
    def test_close_is_idempotent_and_guards_access(self):
        store = HistoryStore()
        assert not store.closed
        store.close()
        store.close()
        assert store.closed
        with pytest.raises(StoreError, match="closed"):
            store.recorded_weeks()

    def test_context_manager(self):
        with HistoryStore() as store:
            assert store.version > 0
        assert store.closed

    def test_file_store_persists(self, tmp_path):
        path = os.path.join(tmp_path, "history.db")
        with HistoryStore(path) as store:
            store.record_session(_session_record())
        with HistoryStore(path) as store:
            assert store.session_names() == ["s"]


class TestSessionAndEpochDAOs:
    def test_session_record_round_trips(self):
        with HistoryStore() as store:
            record = _session_record()
            store.record_session(record)
            assert store.session_record("s") == record
            assert store.session_record("ghost") is None

    def test_identical_rerecord_is_noop_conflict_raises(self):
        with HistoryStore() as store:
            store.record_session(_session_record())
            store.record_session(_session_record())
            with pytest.raises(StoreError, match="different"):
                store.record_session(_session_record(seed=99))

    def test_pad_stream_sharing_is_not_part_of_the_identity(self):
        """A store written when sharing was optional may record 0;
        sharing never changed a pad byte, so the session still attaches
        and resumes."""
        with HistoryStore() as store:
            store.record_session(_session_record(
                name="live", use_oprf=True, num_cliques=1,
                share_pad_streams=False))
            _run_round(store)
            ProtocolSession.resume(store, "live").close()
            assert not store.session_record("live").share_pad_streams

    def test_epoch_records_ordered_and_immutable(self):
        with HistoryStore() as store:
            store.record_session(_session_record())
            e1 = _epoch_record(1, roster=("u1", "u2", "u3"), first_round=1)
            e0 = _epoch_record(0)
            store.record_epoch("s", e1)
            store.record_epoch("s", e0)
            assert store.epoch_records("s") == [e0, e1]
            store.record_epoch("s", e0)  # identical: fine
            with pytest.raises(StoreError, match="immutable"):
                store.record_epoch("s", _epoch_record(0, roster=("x", "y")))


class TestRoundDAO:
    def test_round_survives_bit_identically(self):
        with HistoryStore() as store:
            result = _run_round(store)
            record = store.round_record("live", 0)
            assert record is not None
            assert record.epoch_id == 0
            rebuilt = record.result(CONFIG)
            assert rebuilt.aggregate.cells == result.aggregate.cells
            assert (
                rebuilt.distribution.values == result.distribution.values
            )
            assert rebuilt.users_threshold == result.users_threshold
            assert rebuilt.total_bytes == result.total_bytes

    def test_round_ids_are_one_time(self):
        with HistoryStore() as store:
            result = _run_round(store)
            store.record_round("live", result, epoch_id=0)  # identical
            with pytest.raises(StoreError, match="may not be reused"):
                store.record_round("live", result, epoch_id=7)

    def test_round_history_filters(self):
        with HistoryStore() as store:
            _run_round(store)
            assert [r.round_id for r in store.round_history()] == [0]
            assert store.round_history(epoch=1) == []
            assert store.round_history(session="ghost") == []
            assert store.last_round_id("live") == 0
            assert store.last_round_id("ghost") is None


class TestLongitudinalQueries:
    def _seed_verdicts(self, store):
        store.record_detections(
            0,
            [
                _verdict(0, "u1", "http://ad/a", Label.TARGETED),
                _verdict(0, "u2", "http://ad/a", Label.TARGETED),
                _verdict(0, "u1", "http://ad/b", Label.NON_TARGETED),
            ],
        )
        store.record_detections(
            3,
            [
                _verdict(3, "u2", "http://ad/a", Label.TARGETED, 9.0),
                _verdict(3, "u1", "http://ad/b", Label.UNDECIDED),
            ],
        )

    def test_detection_records_round_trip(self):
        with HistoryStore() as store:
            assert self._seed_verdicts(store) is None
            records = store.detection_records(0)
            assert len(records) == 3
            assert records[0] == DetectionRecord(
                week=0,
                user_id="u1",
                ad_identity="http://ad/a",
                label="targeted",
                domains_seen=4,
                users_seen=5.0,
                domains_threshold=3.0,
                users_threshold=6.0,
            )
            assert records[0].is_targeted
            assert len(store.detection_records()) == 5

    def test_flagged_campaigns_view(self):
        with HistoryStore() as store:
            self._seed_verdicts(store)
            flagged = store.flagged_campaigns()
            assert [(c.ad_identity, c.week, c.flagged_users) for c in flagged] == [
                ("http://ad/a", 0, 2),
                ("http://ad/a", 3, 1),
            ]
            since = store.flagged_campaigns(since_week=1)
            assert [(c.week, c.users_seen) for c in since] == [(3, 9.0)]

    def test_trend_includes_unflagged_weeks(self):
        with HistoryStore() as store:
            self._seed_verdicts(store)
            trend = store.trend("http://ad/b")
            assert [(t.week, t.flagged_users) for t in trend] == [
                (0, 0),
                (3, 0),
            ]
            assert store.trend("http://ad/ghost") == []

    def test_recorded_weeks_sorted_and_distinct(self):
        with HistoryStore() as store:
            for week in (5, 2, 5):
                store.save_weekly_record(WeeklyStatsRecord(
                    week=week, users_threshold=1.0, num_reporting=3,
                    num_missing=0, distribution=(1.0,)))
            assert store.recorded_weeks() == [2, 5]
