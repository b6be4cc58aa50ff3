"""Unit tests for the back-end substrate: metadata tables, crawler,
service."""

import pytest

from repro.api import SessionConfig
from repro.backend.crawler import CleanProfileCrawler
from repro.backend.service import BackendService
from repro.core.thresholds import ThresholdRule
from repro.errors import ConfigurationError, RoundStateError
from repro.protocol.client import RoundConfig
from repro.protocol.enrollment import enroll_users
from repro.simulation import SimulationConfig, Simulator
from repro.store import HistoryStore


class TestMetadataStore:
    """The paper's metadata-database role (users, weekly aggregates,
    crawler sightings), served by :class:`HistoryStore`."""

    def test_enroll_and_list_users(self):
        with HistoryStore() as store:
            store.enroll_user("u2", week=0, blinding_index=1)
            store.enroll_user("u1", week=0, blinding_index=0)
            assert store.active_users() == ["u1", "u2"]

    def test_duplicate_enrollment_rejected(self):
        with HistoryStore() as store:
            store.enroll_user("u", week=0, blinding_index=0)
            with pytest.raises(ConfigurationError):
                store.enroll_user("u", week=1, blinding_index=1)

    def test_blinding_index(self):
        with HistoryStore() as store:
            store.enroll_user("u", week=0, blinding_index=7)
            assert store.blinding_index("u") == 7
            with pytest.raises(ConfigurationError):
                store.blinding_index("ghost")

    def test_weekly_stats_roundtrip(self):
        with HistoryStore() as store:
            store.save_weekly_stats(3, 2.5, 100, 2, [1.0, 2.0, 3.0])
            stats = store.weekly_stats_record(3)
            assert stats.users_threshold == 2.5
            assert stats.num_reporting == 100
            assert stats.num_missing == 2
            assert stats.distribution == (1.0, 2.0, 3.0)

    def test_weekly_stats_missing(self):
        with HistoryStore() as store:
            assert store.weekly_stats_record(9) is None

    def test_weekly_stats_overwrite(self):
        with HistoryStore() as store:
            store.save_weekly_stats(1, 1.0, 10, 0, [])
            store.save_weekly_stats(1, 2.0, 11, 1, [5.0])
            assert store.weekly_stats_record(1).users_threshold == 2.0
            assert store.recorded_weeks() == [1]

    def test_sightings(self):
        with HistoryStore() as store:
            store.record_sighting("ad-1", "site.example", week=0)
            store.record_sighting("ad-1", "site.example", week=0)  # idempotent
            assert store.crawler_saw("ad-1")
            assert store.crawler_saw("ad-1", week=0)
            assert not store.crawler_saw("ad-1", week=1)
            assert not store.crawler_saw("ad-2")
            assert store.sightings_for_week(0) == [("ad-1", "site.example")]


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

    def test_sightings_recorded(self, sim):
        store = HistoryStore()
        crawler = CleanProfileCrawler(sim.adserver, store=store)
        crawler.crawl_site(sim.catalog.sites[0], tick=0, week=2)
        for identity in crawler.ads_seen:
            assert store.crawler_saw(identity, week=2)

    def test_saw_ad(self, sim):
        crawler = CleanProfileCrawler(sim.adserver)
        crawler.crawl_site(sim.catalog.sites[0], tick=0)
        seen = crawler.ads_seen
        if seen:
            assert crawler.saw_ad(next(iter(seen)))
        assert not crawler.saw_ad("never-seen")

    def test_fresh_profile_each_session(self, sim):
        crawler = CleanProfileCrawler(sim.adserver, visits_per_site=2)
        crawler.crawl_site(sim.catalog.sites[0], tick=0)
        crawler.crawl_site(sim.catalog.sites[1], tick=1)
        # Four sessions -> four distinct crawler ids were used.
        assert crawler._session_counter == 4


class TestBackendService:
    CONFIG = RoundConfig(cms_depth=4, cms_width=128, cms_seed=1,
                         id_space=200)

    def make_service(self, n=4):
        enrollment = enroll_users([f"u{i}" for i in range(n)], self.CONFIG,
                                  seed=5, use_oprf=False)
        return BackendService(self.CONFIG, enrollment.clients), enrollment

    def test_week_run_persists_stats(self):
        service, enrollment = self.make_service()
        for client in enrollment.clients:
            client.observe_ad("http://shared.example/ad")
        snapshot = service.run_week(0)
        assert snapshot.users_threshold > 0
        stored = service.store.weekly_stats_record(0)
        assert stored.users_threshold == snapshot.users_threshold
        assert stored.num_reporting == 4

    def test_windows_reset_between_weeks(self):
        service, enrollment = self.make_service()
        for client in enrollment.clients:
            client.observe_ad("http://week0.example/ad")
        service.run_week(0)
        assert all(c.num_seen == 0 for c in enrollment.clients)

    def test_query_interface(self):
        service, enrollment = self.make_service()
        mapper = enrollment.clients[0].ad_mapper
        for client in enrollment.clients:
            client.observe_ad("http://q.example/ad")
        service.run_week(1)
        assert service.users_threshold(1) > 0
        ad_id = mapper.ad_id("http://q.example/ad")
        assert service.estimated_users(1, ad_id) >= 4
        assert service.weeks_run == [1]

    def test_unknown_week_rejected(self):
        service, _ = self.make_service()
        with pytest.raises(RoundStateError):
            service.snapshot(9)

    def test_enrollment_persisted(self):
        service, enrollment = self.make_service(3)
        assert service.store.active_users() == ["u0", "u1", "u2"]

    def test_multi_week_operation(self):
        service, enrollment = self.make_service()
        for week in range(3):
            for client in enrollment.clients:
                client.observe_ad(f"http://week{week}.example/ad")
            service.run_week(week)
        assert service.weeks_run == [0, 1, 2]
        assert service.store.recorded_weeks() == [0, 1, 2]

    def test_serve_root_answers_remote_summary_queries(self):
        from repro.protocol.net import ProcessEndpointProxy

        service, enrollment = self.make_service()
        for client in enrollment.clients:
            client.observe_ad("http://shared.example/ad")
        with service:
            snapshot = service.run_week(0)
            host, port = service.serve_root()
            assert service.root_address == (host, port)
            proxy = ProcessEndpointProxy.connect(
                host, port, service.session.root.endpoint_id,
                config=self.CONFIG)
            summary = proxy.round_summary()
            proxy.close()
        assert summary.users_threshold == snapshot.users_threshold
        assert summary.aggregate.cells == \
            snapshot.round_result.aggregate.cells
        assert summary.distribution.values == \
            snapshot.distribution.values

    def test_serve_root_tracks_epoch_advances(self):
        """Regression: the served root must be resolved live — an epoch
        advance rebinds session.root, and a server holding the old
        object would answer from the stale pre-epoch root forever."""
        from repro.protocol.net import ProcessEndpointProxy

        enrollment = enroll_users([f"u{i}" for i in range(6)], self.CONFIG,
                                  seed=5, use_oprf=False)
        with BackendService.from_enrollment(enrollment) as service:
            host, port = service.serve_root()
            for client in service.clients:
                client.observe_ad("http://week0.example/ad")
            service.run_week(0)
            service.advance_epoch(joins=["u-new"], leaves=["u0"])
            for client in service.clients:
                client.observe_ad("http://week1.example/ad")
                client.observe_ad("http://week1.example/other")
            snapshot = service.run_week(1)
            proxy = ProcessEndpointProxy.connect(
                host, port, service.session.root.endpoint_id,
                config=self.CONFIG)
            summary = proxy.round_summary()
            proxy.close()
        assert summary.round_id == 1
        assert summary.aggregate.cells == \
            snapshot.round_result.aggregate.cells
        assert "u-new" in summary.reported_users

    def test_serve_root_is_query_only(self):
        """A remote peer must not be able to mutate the live round
        state, swap the threshold rule, or stop the served port."""
        from repro.errors import ProtocolError
        from repro.protocol.net import ProcessEndpointProxy, frames

        service, enrollment = self.make_service()
        for client in enrollment.clients:
            client.observe_ad("http://shared.example/ad")
        with service:
            snapshot = service.run_week(0)
            host, port = service.serve_root()
            proxy = ProcessEndpointProxy.connect(
                host, port, service.session.root.endpoint_id,
                config=self.CONFIG)
            with pytest.raises(ProtocolError, match="not permitted"):
                proxy.on_round_start(5)
            with pytest.raises(ProtocolError, match="not permitted"):
                proxy.threshold_rule = ThresholdRule.MEDIAN.compute
            with pytest.raises(ProtocolError, match="not permitted"):
                proxy._call(frames.SHUTDOWN)
            # The port is still alive and still answers queries.
            summary = proxy.round_summary()
            assert summary.users_threshold == snapshot.users_threshold
            proxy.close()

    def test_serve_root_twice_is_refused(self):
        service, _ = self.make_service()
        with service:
            service.serve_root()
            with pytest.raises(RoundStateError, match="already"):
                service.serve_root()

    def test_service_with_subprocess_aggregators(self):
        enrollment = enroll_users([f"u{i}" for i in range(8)], self.CONFIG,
                                  seed=5, use_oprf=False, num_cliques=2)
        baseline = enroll_users([f"u{i}" for i in range(8)], self.CONFIG,
                                seed=5, use_oprf=False, num_cliques=2)
        for enr in (enrollment, baseline):
            for client in enr.clients:
                client.observe_ad("http://shared.example/ad")
        reference = BackendService.from_enrollment(baseline)
        expected = reference.run_week(0)
        with BackendService.from_enrollment(
                enrollment, settings=SessionConfig(
                    transport="socket", aggregator_procs=2)) as service:
            snapshot = service.run_week(0)
            assert service.session.aggregator_pool is not None
            assert len(service.session.aggregator_pool.pids) == 3
        assert snapshot.users_threshold == expected.users_threshold
        assert snapshot.round_result.aggregate.cells == \
            expected.round_result.aggregate.cells
