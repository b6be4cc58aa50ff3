"""Unit tests for the back-end substrate: the weekly-stats table, the
crawler, the service."""

import json
from contextlib import closing

import pytest
from test_service_state import drive_round

from repro.backend.crawler import CleanProfileCrawler
from repro.cli import main
from repro.core.pipeline import DetectionPipeline
from repro.errors import ProtocolError, StoreError
from repro.protocol.client import RoundConfig
from repro.protocol.spec import snapshot_from_spec
from repro.service.state import ServiceState
from repro.simulation import SimulationConfig, Simulator
from repro.store import HistoryStore, WeeklyStatsRecord
from repro.types import TICKS_PER_WEEK, Ad, Impression


def weekly_row(store, week):
    """The ``weekly_stats`` row of ``week`` as a record (None when the
    week has none), read with SQL: the store writes the row and has no
    reader for it."""
    row = store._conn().execute(
        "SELECT users_threshold, num_reporting, num_missing, "
        "distribution_json FROM weekly_stats WHERE week = ?",
        (week,)).fetchone()
    if row is None:
        return None
    return WeeklyStatsRecord(
        week=week, users_threshold=row[0], num_reporting=row[1],
        num_missing=row[2], distribution=tuple(json.loads(row[3])))


class TestMetadataStore:
    """The paper's metadata-database role (weekly aggregates), served by
    :class:`HistoryStore`."""

    def test_weekly_stats_roundtrip(self):
        with HistoryStore() as store:
            record = WeeklyStatsRecord(
                week=3, users_threshold=2.5, num_reporting=100,
                num_missing=2, distribution=(1.0, 2.0, 3.0))
            store.save_weekly_record(record)
            assert weekly_row(store, 3) == record

    def test_weekly_stats_missing(self):
        with HistoryStore() as store:
            assert weekly_row(store, 9) is None
            assert store.recorded_weeks() == []

    def test_weekly_stats_overwrite(self):
        with HistoryStore() as store:
            store.save_weekly_record(WeeklyStatsRecord(
                week=1, users_threshold=1.0, num_reporting=10,
                num_missing=0, distribution=()))
            store.save_weekly_record(WeeklyStatsRecord(
                week=1, users_threshold=2.0, num_reporting=11,
                num_missing=1, distribution=(5.0,)))
            assert weekly_row(store, 1).users_threshold == 2.0
            assert store.recorded_weeks() == [1]


class TestCleanProfileCrawler:
    @pytest.fixture(scope="class")
    def sim(self):
        return Simulator(SimulationConfig.small(seed=3))

    def test_crawler_sees_only_untargeted(self, sim):
        """Clean profiles must never receive user-targeted ads."""
        crawler = CleanProfileCrawler(sim.adserver)
        impressions = crawler.crawl_sites(sim.catalog.sites[:30], tick=0)
        assert impressions
        truth = {c.ad.identity: c.kind for c in sim.campaigns}
        for imp in impressions:
            assert not truth[imp.ad.identity].is_targeted

    def test_saw_ad(self, sim):
        crawler = CleanProfileCrawler(sim.adserver)
        impressions = crawler.crawl_site(sim.catalog.sites[0], tick=0)
        for impression in impressions:
            assert crawler.saw_ad(impression.ad.identity)
        assert not crawler.saw_ad("never-seen")

    def test_sightings_accumulate_across_sites(self, sim):
        """The crawler keeps every sighting of its life in memory: a
        later site's crawl does not forget an earlier site's ads."""
        crawler = CleanProfileCrawler(sim.adserver)
        first = crawler.crawl_sites(sim.catalog.sites[:15], tick=0)
        second = crawler.crawl_sites(sim.catalog.sites[15:30], tick=1)
        assert first and second
        for impression in first + second:
            assert crawler.saw_ad(impression.ad.identity)

    def test_fresh_profile_each_session(self, sim):
        crawler = CleanProfileCrawler(sim.adserver, visits_per_site=2)
        crawler.crawl_site(sim.catalog.sites[0], tick=0)
        crawler.crawl_site(sim.catalog.sites[1], tick=1)
        # Four sessions -> four distinct crawler ids were used.
        assert crawler._session_counter == 4


class TestBackendService:
    """The weekly cadence of the paper's Figure-1 back-end — run the
    round, persist its statistics, answer the extension's queries — on
    the two operators that hold that job: ``ServiceState`` (remote
    clients, ``repro serve``) and ``DetectionPipeline`` (in-process).

    (The class named ``BackendService`` these cases were written against
    is deleted; the class and test names stay so the ids keep pinning
    the same behaviours.)
    """

    CONFIG = RoundConfig(cms_depth=4, cms_width=128, cms_seed=1,
                         id_space=200)

    def make_service(self, n=4):
        state = ServiceState(self.CONFIG, seed=5)
        for i in range(n):
            state.enroll(f"u{i}")
        state.advance_epoch()
        return state

    @staticmethod
    def run_week(state, url):
        """One weekly round: every member observes ``url`` and reports."""
        clients = state.session.membership.clients
        for client in clients:
            client.reset_window()
            client.observe_ad(url)
        return drive_round(state, clients)

    def test_week_run_persists_stats(self):
        with closing(self.make_service()) as state:
            result = self.run_week(state, "http://shared.example/ad")
            assert result.users_threshold > 0
            stored = weekly_row(state.store, 0)
            assert stored == WeeklyStatsRecord(
                week=0, users_threshold=result.users_threshold,
                num_reporting=4, num_missing=0,
                distribution=tuple(result.distribution.values))

    def test_legacy_tables_are_written_by_nothing(self):
        """Migration v1's ``crawler_sightings`` and ``users`` tables stay
        in the append-only schema, but a served week and an in-process
        week leave both empty: the crawler keeps its sightings in memory
        and rosters live in the epoch records."""
        tables = ("crawler_sightings", "users")
        with closing(self.make_service()) as state:
            self.run_week(state, "http://shared.example/ad")
            conn = state.store._conn()
            for table in tables:
                assert conn.execute(
                    f"SELECT COUNT(*) FROM {table}").fetchone() == (0,)
        impressions = [Impression(user_id=f"u{i}",
                                  ad=Ad(url="http://shared.example/ad"),
                                  domain="site.example", tick=0)
                       for i in range(4)]
        with HistoryStore() as store:
            with closing(DetectionPipeline(private=True, store=store,
                                           round_config=self.CONFIG)) as p:
                p.run_week(impressions, week=0)
            assert store.recorded_weeks() == [0]
            for table in tables:
                assert store._conn().execute(
                    f"SELECT COUNT(*) FROM {table}").fetchone() == (0,)

    def test_windows_reset_between_weeks(self):
        """A week's observations do not leak into the next week's
        aggregate: the pipeline opens every window on cleared clients."""
        users = [f"u{i}" for i in range(4)]

        def week_of(url, week):
            return [Impression(user_id=u, ad=Ad(url=url),
                               domain="site.example",
                               tick=week * TICKS_PER_WEEK)
                    for u in users]

        pipeline = DetectionPipeline(private=True, round_config=self.CONFIG)
        with closing(pipeline):
            pipeline.run_week(week_of("http://week0.example/ad", 0), week=0)
            out = pipeline.run_week(week_of("http://week1.example/ad", 1),
                                    week=1)
            mapper = pipeline.session.membership.ad_mapper
        aggregate = out.round_result.aggregate
        assert aggregate.query(mapper.ad_id("http://week1.example/ad")) >= 4
        assert aggregate.query(mapper.ad_id("http://week0.example/ad")) == 0

    def test_query_interface(self):
        with closing(self.make_service()) as state:
            self.run_week(state, "http://q.example/ad")
            snapshot = snapshot_from_spec(state.snapshot_spec(0), self.CONFIG)
            mapper = state.session.membership.ad_mapper
        assert snapshot.users_threshold > 0
        ad_id = mapper.ad_id("http://q.example/ad")
        assert snapshot.round_result.aggregate.query(ad_id) >= 4
        assert snapshot.week == 0

    def test_unknown_week_rejected(self):
        with closing(self.make_service()) as state:
            with pytest.raises(ProtocolError, match="no snapshot"):
                state.snapshot_spec(9)

    def test_multi_week_operation(self):
        with closing(self.make_service()) as state:
            for week in range(3):
                self.run_week(state, f"http://week{week}.example/ad")
            assert state.status()["rounds_finalized"] == [0, 1, 2]
            assert state.history_weeks() == [0, 1, 2]

    def test_restart_on_the_same_store_is_refused(self, tmp_path, capsys):
        """A store file belongs to one service life: a second life would
        re-enroll with the same seed and blind round 0 again under the
        first life's one-time pads."""
        path = str(tmp_path / "service.db")
        with closing(ServiceState(self.CONFIG, seed=5, store=path)) as state:
            for i in range(4):
                state.enroll(f"u{i}")
            state.advance_epoch()
            result = self.run_week(state, "http://shared.example/ad")
            assert result.round_id == 0
        with pytest.raises(StoreError) as refusal:
            ServiceState(self.CONFIG, seed=5, store=path)
        message = str(refusal.value)
        assert path in message and "'service'" in message
        assert "last round 0" in message and "new file" in message
        # The CLI prints the refusal and exits 2 before binding a port.
        assert main(["serve", "--store", path]) == 2
        captured = capsys.readouterr()
        assert "one-time pads" in captured.err
        assert "serving on" not in captured.out
        # Another session name, or the in-memory default, is unaffected.
        ServiceState(self.CONFIG, seed=5, store=path,
                     session_name="other").close()
        with closing(self.make_service()), closing(self.make_service()):
            pass
