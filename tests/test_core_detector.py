"""Unit tests for counters, thresholds and the detector."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.counters import GlobalUserCounter, UserDomainCounter
from repro.core.detector import CountBasedDetector, DetectorConfig
from repro.core.pipeline import DetectionPipeline
from repro.core.thresholds import ThresholdRule
from repro.errors import ConfigurationError
from repro.statsutil.distributions import EmpiricalDistribution
from repro.types import TICKS_PER_WEEK, Ad, Impression, Label


def imp(user, ad_url, domain, tick=0):
    return Impression(user_id=user, ad=Ad(url=ad_url), domain=domain,
                      tick=tick)


class TestUserDomainCounter:
    def test_counts_distinct_domains(self):
        counter = UserDomainCounter("u")
        counter.observe(imp("u", "ad1", "a.com"))
        counter.observe(imp("u", "ad1", "b.com"))
        counter.observe(imp("u", "ad1", "a.com"))  # repeat domain
        assert counter.domains_seen("ad1") == 2

    def test_ignores_other_users(self):
        counter = UserDomainCounter("u")
        counter.observe(imp("other", "ad1", "a.com"))
        assert counter.domains_seen("ad1") == 0

    def test_unseen_ad_zero(self):
        assert UserDomainCounter("u").domains_seen("ghost") == 0

    def test_ad_serving_domains(self):
        counter = UserDomainCounter("u")
        counter.observe_all([imp("u", "ad1", "a.com"),
                             imp("u", "ad2", "b.com"),
                             imp("u", "ad3", "b.com")])
        assert counter.num_ad_serving_domains == 2

    def test_distribution(self):
        counter = UserDomainCounter("u")
        counter.observe_all([imp("u", "ad1", "a.com"),
                             imp("u", "ad1", "b.com"),
                             imp("u", "ad2", "c.com")])
        dist = counter.distribution()
        assert sorted(dist.values) == [1.0, 2.0]

    def test_ads_kept_in_first_seen_order(self):
        counter = UserDomainCounter("u")
        counter.observe_all([imp("u", "b-ad", "a.com"),
                             imp("other", "c-ad", "a.com"),
                             imp("u", "a-ad", "a.com"),
                             imp("u", "b-ad", "b.com")])
        assert list(counter.ads) == ["b-ad", "a-ad"]
        assert counter.ads["a-ad"] == Ad(url="a-ad")

    def test_clear(self):
        counter = UserDomainCounter("u")
        counter.observe(imp("u", "ad1", "a.com"))
        counter.clear()
        assert counter.domains_seen("ad1") == 0
        assert counter.num_ad_serving_domains == 0


class TestGlobalUserCounter:
    def test_counts_distinct_users(self):
        counter = GlobalUserCounter()
        counter.observe_all([imp("u1", "ad", "a.com"),
                             imp("u2", "ad", "b.com"),
                             imp("u1", "ad", "c.com")])
        assert counter.users_seen("ad") == 2

    def test_ads_sorted(self):
        counter = GlobalUserCounter()
        counter.observe_all([imp("u1", "b-ad", "a.com"),
                             imp("u2", "a-ad", "a.com"),
                             imp("u2", "b-ad", "b.com")])
        assert counter.ads == ["a-ad", "b-ad"]

    def test_distribution(self):
        counter = GlobalUserCounter()
        counter.observe_all([imp("u1", "popular", "a.com"),
                             imp("u2", "popular", "a.com"),
                             imp("u1", "niche", "a.com")])
        dist = counter.distribution()
        assert sorted(dist.values) == [1.0, 2.0]

    def test_clear(self):
        counter = GlobalUserCounter()
        counter.observe(imp("u", "ad", "a.com"))
        counter.clear()
        assert counter.users_seen("ad") == 0


class TestThresholdRules:
    DIST = EmpiricalDistribution([1, 2, 3, 4, 10])

    def test_mean(self):
        assert ThresholdRule.MEAN.compute(self.DIST) == 4.0

    def test_median(self):
        assert ThresholdRule.MEDIAN.compute(self.DIST) == 3.0

    def test_mean_plus_median(self):
        assert ThresholdRule.MEAN_PLUS_MEDIAN.compute(self.DIST) == 7.0

    def test_mean_plus_std(self):
        rule = ThresholdRule.MEAN_PLUS_STD
        assert rule.compute(self.DIST) == pytest.approx(4.0 + self.DIST.std)

    def test_mean_plus_median_stricter_than_mean(self):
        """The ordering that explains Figure 3's two curves."""
        assert (ThresholdRule.MEAN_PLUS_MEDIAN.compute(self.DIST)
                > ThresholdRule.MEAN.compute(self.DIST))


class TestDetector:
    def make_detector(self, **config_kwargs):
        config = DetectorConfig(**config_kwargs)
        return CountBasedDetector("u", config)

    def feed_background(self, detector, n_ads=4):
        """Background ads each seen on one domain -> low Domains_th."""
        for i in range(n_ads):
            detector.observe(imp("u", f"bg-{i}", f"site-{i}.com"))

    def test_targeted_when_both_conditions_hold(self):
        detector = self.make_detector()
        self.feed_background(detector)
        # The suspicious ad follows the user across 5 domains.
        for d in range(5):
            detector.observe(imp("u", "chaser", f"chase-{d}.com"))
        result = detector.classify(Ad(url="chaser"), users_seen=1,
                                   users_threshold=10.0)
        assert result.label is Label.TARGETED
        assert result.domains_seen == 5

    def test_not_targeted_when_seen_by_many(self):
        detector = self.make_detector()
        self.feed_background(detector)
        for d in range(5):
            detector.observe(imp("u", "chaser", f"chase-{d}.com"))
        result = detector.classify(Ad(url="chaser"), users_seen=100,
                                   users_threshold=10.0)
        assert result.label is Label.NON_TARGETED

    def test_not_targeted_when_few_domains(self):
        detector = self.make_detector()
        self.feed_background(detector)
        detector.observe(imp("u", "once", "one-site.com"))
        result = detector.classify(Ad(url="once"), users_seen=1,
                                   users_threshold=10.0)
        assert result.label is Label.NON_TARGETED

    def test_activity_gate_undecided(self):
        detector = self.make_detector(min_ad_serving_domains=4)
        # Only 2 ad-serving domains seen.
        detector.observe(imp("u", "ad", "a.com"))
        detector.observe(imp("u", "ad", "b.com"))
        result = detector.classify(Ad(url="ad"), users_seen=1,
                                   users_threshold=10.0)
        assert result.label is Label.UNDECIDED

    def test_activity_gate_boundary(self):
        detector = self.make_detector(min_ad_serving_domains=2)
        detector.observe(imp("u", "ad", "a.com"))
        detector.observe(imp("u", "other", "b.com"))
        assert detector.meets_activity_gate

    def test_threshold_is_strictly_greater(self):
        """#Domains == threshold must NOT trigger (strict inequality)."""
        detector = self.make_detector(min_ad_serving_domains=1)
        # Two ads, both on 2 domains: mean = 2, neither exceeds it.
        for name in ("x", "y"):
            for d in ("a.com", "b.com"):
                detector.observe(imp("u", name, d))
        result = detector.classify(Ad(url="x"), users_seen=0,
                                   users_threshold=5.0)
        assert result.label is Label.NON_TARGETED

    def test_classify_all(self):
        detector = self.make_detector(min_ad_serving_domains=1)
        self.feed_background(detector)
        for d in range(6):
            detector.observe(imp("u", "chaser", f"c{d}.com"))
        ads = [Ad(url="chaser"), Ad(url="bg-0")]
        seen = {"chaser": 1.0, "bg-0": 50.0}
        results = detector.classify_all(ads, lambda a: seen[a], 10.0)
        assert results[0].label is Label.TARGETED
        assert results[1].label is Label.NON_TARGETED

    def test_classify_all_computes_domains_threshold_once(self, monkeypatch):
        """Domains_th(u) is one moment per user, not one per ad: a batch
        builds the #Domains distribution once and every verdict equals
        the single-call ``classify``."""
        detector = self.make_detector(min_ad_serving_domains=1)
        self.feed_background(detector)
        for d in range(6):
            detector.observe(imp("u", "chaser", f"c{d}.com"))
        ads = [Ad(url="chaser")] + [Ad(url=f"bg-{i}") for i in range(4)]
        one_by_one = [detector.classify(ad, 3.0, 10.0, week=2) for ad in ads]
        calls = []
        distribution = UserDomainCounter.distribution
        monkeypatch.setattr(
            UserDomainCounter, "distribution",
            lambda self: calls.append(self) or distribution(self))
        assert detector.classify_all(ads, lambda a: 3.0, 10.0, 2) \
            == one_by_one
        assert len(calls) == 1

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            DetectorConfig(min_ad_serving_domains=0)

    def test_mean_plus_median_requires_more_domains(self):
        """Stricter rule flips a borderline TARGETED to NON_TARGETED."""
        lenient = self.make_detector(min_ad_serving_domains=1)
        strict = CountBasedDetector(
            "u", DetectorConfig(domains_rule=ThresholdRule.MEAN_PLUS_MEDIAN,
                                min_ad_serving_domains=1))
        # Background ads seen on 2 domains each: distribution [2, 2, 2, 3]
        # -> mean 2.25 < 3 (lenient fires) but mean+median 4.25 > 3
        # (strict does not).
        for det in (lenient, strict):
            for i in range(3):
                det.observe(imp("u", f"bg-{i}", f"s{i}a.com"))
                det.observe(imp("u", f"bg-{i}", f"s{i}b.com"))
            for d in range(3):
                det.observe(imp("u", "chaser", f"c{d}.com"))
        ad = Ad(url="chaser")
        assert lenient.classify(ad, 1, 100.0).label is Label.TARGETED
        assert strict.classify(ad, 1, 100.0).label is Label.NON_TARGETED


#: Ads of the generated logs: content-hash identities (``url=""``), and
#: identities carried by two different ``Ad`` objects ("http://a/" by a
#: second category and by a content hash; "h1" by a second category).
ADS = [
    Ad(url="http://a/"),
    Ad(url="http://a/", category="shoes"),
    Ad(url="", content_hash="http://a/"),
    Ad(url="", content_hash="h1"),
    Ad(url="", content_hash="h1", category="cars"),
    Ad(url="http://b/", content_hash="h1"),
    Ad(url="http://c/"),
]


@st.composite
def windows(draw):
    """(impression log, detector config): four users over six domains,
    ticks in weeks 0 and 1 so the window filter drops some; the gate
    ranges up to 4 domains, so some users fall under it."""
    impressions = draw(st.lists(st.builds(
        Impression,
        user_id=st.sampled_from(["u0", "u1", "u2", "u3"]),
        ad=st.sampled_from(ADS),
        domain=st.sampled_from([f"d{i}.com" for i in range(6)]),
        tick=st.integers(0, 2 * TICKS_PER_WEEK - 1)), max_size=40))
    config = DetectorConfig(
        domains_rule=draw(st.sampled_from(list(ThresholdRule))),
        users_rule=draw(st.sampled_from(list(ThresholdRule))),
        min_ad_serving_domains=draw(st.integers(1, 4)))
    return impressions, config


def one_by_one(impressions, config):
    """The window's verdicts from per-impression counting and per-ad
    ``classify``, with #Users and the identities' last ``Ad`` objects
    taken straight from the log."""
    users_by_identity = {}
    ads_by_user = {}
    for imp in impressions:
        identity = imp.ad.identity
        users_by_identity.setdefault(identity, set()).add(imp.user_id)
        ads_by_user.setdefault(imp.user_id, {})[identity] = imp.ad
    users_threshold = config.users_rule.compute(EmpiricalDistribution(
        len(users) for users in users_by_identity.values()))
    verdicts = []
    for user_id in sorted(ads_by_user):
        detector = CountBasedDetector(user_id, config)
        for imp in impressions:  # other users' impressions included
            detector.observe(imp)
        for identity, ad in ads_by_user[user_id].items():
            verdicts.append(detector.classify(
                ad, len(users_by_identity[identity]), users_threshold))
    return verdicts


@settings(deadline=None)
@given(window=windows())
@example(window=([
    Impression("u0", ADS[0], "d0.com", 0),
    Impression("u1", ADS[3], "d1.com", 1),
    Impression("u0", ADS[1], "d1.com", 2),
    Impression("u0", ADS[4], "d2.com", 3),
    Impression("u0", ADS[2], "d3.com", 4),
    Impression("u1", ADS[0], "d1.com", 5),
    Impression("u2", ADS[6], "d4.com", TICKS_PER_WEEK),
], DetectorConfig(min_ad_serving_domains=2)))
def test_one_pass_window_matches_per_impression_detector(window):
    impressions, config = window
    week = [imp for imp in impressions if imp.week == 0]
    if not week:
        with pytest.raises(ConfigurationError):
            DetectionPipeline(config).run_week(impressions, week=0)
        return
    out = DetectionPipeline(config).run_week(impressions, week=0)
    assert out.classified == one_by_one(week, config)
