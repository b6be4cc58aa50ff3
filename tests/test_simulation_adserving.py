"""Unit tests for campaigns, the ad server and the full simulator."""

import pytest

from repro.errors import ConfigurationError
from repro.simulation.adserver import AdServer
from repro.simulation.browsing import Visit
from repro.simulation.campaigns import (
    BrowsingHistory,
    Campaign,
    CampaignGenerator,
)
from repro.simulation.config import SimulationConfig
from repro.simulation.metrics import evaluate_classifications
from repro.simulation.population import Population, UserProfile
from repro.simulation.simulator import Simulator
from repro.simulation.websites import WebsiteCatalog
from repro.types import Ad, AdKind, ClassifiedAd, Demographics, Label


@pytest.fixture(scope="module")
def small_run():
    config = SimulationConfig.small(seed=11)
    return Simulator(config).run()


def make_campaign(kind, audience="sports", placements=frozenset(), cap=6,
                  segment=frozenset(), advertiser=""):
    return Campaign(campaign_id="c1",
                    ad=Ad(url="http://shop.example/x", category=audience),
                    kind=kind, audience_category=audience,
                    product_category=audience,
                    audience_user_ids=segment,
                    advertiser_domain=advertiser,
                    placement_domains=placements, frequency_cap=cap)


NO_HISTORY = BrowsingHistory()


class TestCampaignEligibility:
    @pytest.fixture()
    def user(self):
        return UserProfile(user_id="u", interests=("sports", "tech"),
                           activity=1.0,
                           demographics=Demographics("female", "20-30",
                                                     "30k-60k"))

    @pytest.fixture()
    def site(self):
        catalog = WebsiteCatalog(5, seed=1)
        return catalog.sites[0]

    def test_targeted_matches_interest(self, user, site):
        campaign = make_campaign(AdKind.TARGETED, audience="sports")
        assert campaign.eligible(user, site, NO_HISTORY)
        other = make_campaign(AdKind.TARGETED, audience="fishing")
        assert not other.eligible(user, site, NO_HISTORY)

    def test_targeted_segment_narrows_audience(self, user, site):
        campaign = make_campaign(AdKind.TARGETED, audience="sports",
                                 segment=frozenset({"someone-else"}))
        assert not campaign.eligible(user, site, NO_HISTORY)
        mine = make_campaign(AdKind.TARGETED, audience="sports",
                             segment=frozenset({"u"}))
        assert mine.eligible(user, site, NO_HISTORY)

    def test_indirect_matches_interest(self, user, site):
        campaign = make_campaign(AdKind.INDIRECT, audience="tech")
        assert campaign.eligible(user, site, NO_HISTORY)

    def test_retargeted_needs_advertiser_visit(self, user, site):
        campaign = make_campaign(AdKind.RETARGETED,
                                 advertiser="shop.example")
        assert not campaign.eligible(user, site, NO_HISTORY)
        visited = BrowsingHistory(domains=frozenset({"shop.example"}))
        assert campaign.eligible(user, site, visited)

    def test_contextual_matches_site(self, user, site):
        campaign = make_campaign(AdKind.CONTEXTUAL,
                                 audience=site.category)
        assert campaign.eligible(user, site, NO_HISTORY)
        other = make_campaign(AdKind.CONTEXTUAL, audience="nonexistent")
        assert not other.eligible(user, site, NO_HISTORY)

    def test_static_matches_placement(self, user, site):
        campaign = make_campaign(AdKind.STATIC,
                                 placements=frozenset({site.domain}))
        assert campaign.eligible(user, site, NO_HISTORY)
        elsewhere = make_campaign(AdKind.STATIC,
                                  placements=frozenset({"other.example"}))
        assert not elsewhere.eligible(user, site, NO_HISTORY)

    def test_frequency_cap_validated(self):
        with pytest.raises(ConfigurationError):
            make_campaign(AdKind.TARGETED, cap=0)


class TestCampaignGenerator:
    def test_targeted_share_matches_config(self):
        """percentage_targeted percent of the site inventory is targeted."""
        config = SimulationConfig.small(percentage_targeted=2.0, seed=1)
        catalog = WebsiteCatalog(config.num_websites, seed=1)
        campaigns = CampaignGenerator(config, catalog, seed=2).generate()
        targeted = sum(1 for c in campaigns if c.is_targeted)
        inventory = config.num_websites * config.ads_per_website
        assert targeted == pytest.approx(inventory * 0.02, rel=0.35)

    def test_all_kinds_present(self):
        config = SimulationConfig.small(seed=1)
        catalog = WebsiteCatalog(config.num_websites, seed=1)
        campaigns = CampaignGenerator(config, catalog, seed=2).generate()
        kinds = {c.kind for c in campaigns}
        assert kinds == set(AdKind)

    def test_indirect_product_differs_from_audience(self):
        config = SimulationConfig.small(seed=1)
        catalog = WebsiteCatalog(config.num_websites, seed=1)
        campaigns = CampaignGenerator(config, catalog, seed=2).generate()
        for c in campaigns:
            if c.kind is AdKind.INDIRECT:
                assert c.product_category != c.audience_category

    def test_ads_unique(self):
        config = SimulationConfig.small(seed=1)
        catalog = WebsiteCatalog(config.num_websites, seed=1)
        campaigns = CampaignGenerator(config, catalog, seed=2).generate()
        identities = [c.ad.identity for c in campaigns]
        assert len(identities) == len(set(identities))

    def test_frequency_cap_propagates(self):
        config = SimulationConfig.small(frequency_cap=9, seed=1)
        catalog = WebsiteCatalog(config.num_websites, seed=1)
        campaigns = CampaignGenerator(config, catalog, seed=2).generate()
        for c in campaigns:
            if c.is_targeted:
                assert c.frequency_cap == 9


class TestAdServer:
    def make_server(self, **config_overrides):
        config = SimulationConfig.small(seed=5, **config_overrides)
        catalog = WebsiteCatalog(config.num_websites, seed=5)
        population = Population(config.num_users, seed=6)
        campaigns = CampaignGenerator(config, catalog, population=population,
                                      seed=7).generate()
        server = AdServer(campaigns, population, config, seed=8)
        return server, catalog, population, campaigns

    def test_serve_returns_impressions(self):
        server, catalog, population, _ = self.make_server()
        user = population.users[0]
        visit = Visit(user_id=user.user_id, website=catalog.sites[0], tick=0)
        impressions = server.serve(visit)
        assert all(i.user_id == user.user_id for i in impressions)
        assert all(i.domain == catalog.sites[0].domain for i in impressions)

    def test_slots_bounded(self):
        server, catalog, population, _ = self.make_server(slots_per_page=3)
        user = population.users[0]
        for site in catalog.sites[:20]:
            visit = Visit(user_id=user.user_id, website=site, tick=0)
            assert len(server.serve(visit)) <= 3

    def test_frequency_cap_respected(self):
        server, catalog, population, campaigns = self.make_server(
            frequency_cap=2, targeted_serve_probability=1.0)
        targeted_users = set()
        for c in campaigns:
            if c.kind is AdKind.TARGETED:
                targeted_users |= c.audience_user_ids
        user = population.by_id(sorted(targeted_users)[0])
        impressions = []
        for tick, site in enumerate(catalog.sites[:60]):
            visit = Visit(user_id=user.user_id, website=site, tick=tick)
            impressions.extend(server.serve(visit))
        targeted_ids = {c.ad.identity for c in campaigns
                        if c.kind is AdKind.TARGETED}
        from collections import Counter
        counts = Counter(i.ad.identity for i in impressions
                         if i.ad.identity in targeted_ids)
        assert counts and all(v <= 2 for v in counts.values())

    def test_retargeting_needs_prior_visit(self):
        server, catalog, population, campaigns = self.make_server(
            targeted_serve_probability=1.0,
            retarget_activation_probability=1.0)
        retarget = next(c for c in campaigns if c.kind is AdKind.RETARGETED)
        advertiser_site = catalog.by_domain(retarget.advertiser_domain)
        user = population.users[0]
        other_site = next(s for s in catalog.sites
                          if s.domain != retarget.advertiser_domain)
        first = server.serve(Visit(user.user_id, other_site, 0))
        assert retarget.ad.identity not in {i.ad.identity for i in first}
        # Visit the advertiser site, then browse elsewhere: the ad chases.
        server.serve(Visit(user.user_id, advertiser_site, 1))
        chased = server.serve(Visit(user.user_id, other_site, 2))
        assert retarget.ad.identity in {i.ad.identity for i in chased}

    def test_retarget_budget_bounds_audience(self):
        server, catalog, population, campaigns = self.make_server(
            retarget_activation_probability=1.0, retarget_audience_max=2)
        retarget = next(c for c in campaigns if c.kind is AdKind.RETARGETED)
        advertiser_site = catalog.by_domain(retarget.advertiser_domain)
        for i, user in enumerate(population.users[:5]):
            server.serve(Visit(user.user_id, advertiser_site, i))
        chased = sum(1 for u in population.users[:5]
                     if any(c.campaign_id == retarget.campaign_id
                            for c in server._chasing[u.user_id]))
        assert chased == 2
        server.reset_campaign_budget(retarget.campaign_id)
        extra = population.users[5]
        server.serve(Visit(extra.user_id, advertiser_site, 9))
        assert any(c.campaign_id == retarget.campaign_id
                   for c in server._chasing[extra.user_id])


class TestSimulator:
    def test_run_produces_impressions(self, small_run):
        assert len(small_run.impressions) > 100
        assert len(small_run.visits) > 100

    def test_ground_truth_covers_campaigns(self, small_run):
        for campaign in small_run.campaigns:
            assert campaign.ad.identity in small_run.ground_truth

    def test_served_ads_have_ground_truth(self, small_run):
        for identity in small_run.unique_ads:
            assert identity in small_run.ground_truth

    def test_weeks_partition_impressions(self):
        config = SimulationConfig.small(num_weeks=2, seed=3)
        result = Simulator(config).run()
        w0 = [imp for imp in result.impressions if imp.week == 0]
        w1 = [imp for imp in result.impressions if imp.week == 1]
        assert len(w0) + len(w1) == len(result.impressions)
        assert w0 and w1

    def test_deterministic(self):
        config = SimulationConfig.small(seed=9)
        a = Simulator(config).run()
        b = Simulator(config).run()
        assert len(a.impressions) == len(b.impressions)
        assert [i.ad.identity for i in a.impressions[:50]] == \
            [i.ad.identity for i in b.impressions[:50]]

    def test_targeted_ads_followed_users(self, small_run):
        """Sanity: targeted ads appear on multiple domains per user."""
        from collections import defaultdict
        domains = defaultdict(set)
        for imp in small_run.impressions:
            if small_run.is_targeted_truth(imp.ad.identity):
                domains[(imp.user_id, imp.ad.identity)].add(imp.domain)
        multi = [len(d) for d in domains.values() if len(d) > 1]
        assert multi, "no targeted ad followed any user across domains"


class TestMetrics:
    def _classified(self, identity, label):
        return ClassifiedAd(user_id="u", ad=Ad(url=identity), label=label,
                            domains_seen=1, users_seen=1,
                            domains_threshold=0, users_threshold=2, week=0)

    def test_confusion_counts(self):
        truth = {"t": AdKind.TARGETED, "s": AdKind.STATIC}
        classified = [
            self._classified("t", Label.TARGETED),      # TP
            self._classified("t", Label.NON_TARGETED),  # FN
            self._classified("s", Label.TARGETED),      # FP
            self._classified("s", Label.NON_TARGETED),  # TN
        ]
        counts = evaluate_classifications(classified, truth)
        assert (counts.tp, counts.fn, counts.fp, counts.tn) == (1, 1, 1, 1)
        assert counts.false_negative_rate == 0.5
        assert counts.false_positive_rate == 0.5

    def test_undecided_excluded(self):
        truth = {"t": AdKind.TARGETED}
        counts = evaluate_classifications(
            [self._classified("t", Label.UNDECIDED)], truth)
        assert counts.undecided == 1
        assert counts.total == 0

    def test_every_kind_scored_by_is_targeted(self):
        """Retargeted and indirect ads count as targeted; contextual,
        static and brand ads as untargeted (paper §2.1)."""
        classified = [self._classified(kind.value, Label.TARGETED)
                      for kind in AdKind]
        truth = {kind.value: kind for kind in AdKind}
        counts = evaluate_classifications(classified, truth)
        assert (counts.tp, counts.fp) == (3, 3)
        assert counts.fn == counts.tn == 0

    def test_unlabelled_ads_skipped(self):
        counts = evaluate_classifications(
            [self._classified("unknown", Label.TARGETED)], {})
        assert counts.total == 0
