"""Full-system integration: DOM pages -> ad detection -> protocol -> verdict.

The unit suites test each layer in isolation; these tests close the loop
the deployed system runs: synthetic pages are rendered with ad slots in
various delivery styles, the ad detector finds the slots and
``ad_identity`` names them, impressions flow into per-user detectors, the
privacy protocol aggregates #Users, and the count-based rule issues the
verdicts.
"""

from collections import defaultdict

from repro.core.detector import CountBasedDetector, DetectorConfig
from repro.core.pipeline import DetectionPipeline
from repro.extension.addetection import AdDetector
from repro.extension.identity import ad_identity
from repro.extension.pages import make_ad_element, make_page
from repro.types import Impression, Label


def visit(log, user_id, page, tick):
    """Record one page visit: an impression per detected ad slot (paper
    §5, step 1), appended to the user's impression ``log``."""
    log.extend(Impression(user_id=user_id, ad=ad_identity(detected),
                          domain=page.domain, tick=tick)
               for detected in AdDetector().detect(page))


def build_browsing_world():
    """Six users; a stalker ad chases user-0 across five sites.

    Background: every user visits four sites, each carrying one
    site-specific ad (one-domain ads, the realistic background) plus one
    shared brand ad everywhere.
    """
    logs = defaultdict(list)
    tick = 0
    for user_id in (f"u{i}" for i in range(6)):
        for s in range(4):
            domain = f"site-{s}.example"
            ads = [
                make_ad_element(f"http://local-shop-{domain}/{s}",
                                f"http://cdn/{domain}-{s}.jpg"),
                make_ad_element("http://brand.example/everywhere",
                                "http://cdn/brand.jpg"),
            ]
            visit(logs[user_id], user_id,
                  make_page(domain, category="news", ads=ads), tick)
            tick += 1
    for d in range(5):
        domain = f"chase-{d}.example"
        ads = [make_ad_element("http://stalker.example/buy-now",
                               "http://cdn/stalker.jpg")]
        visit(logs["u0"], "u0",
              make_page(domain, category="news", ads=ads), tick)
        tick += 1
    return [imp for log in logs.values() for imp in log]


class TestDomToVerdict:
    def test_extension_feeds_pipeline(self):
        impressions = build_browsing_world()
        out = DetectionPipeline(private=True).run_week(impressions, week=0)
        flagged = {(c.user_id, c.ad.identity) for c in out.targeted}
        assert ("u0", "http://stalker.example/buy-now") in flagged

    def test_brand_ad_not_flagged_despite_many_domains(self):
        """The brand ad follows everyone — but everyone sees it."""
        impressions = build_browsing_world()
        out = DetectionPipeline().run_week(impressions, week=0)
        brand = [c for c in out.classified
                 if c.ad.identity == "http://brand.example/everywhere"]
        assert brand
        assert all(c.label is Label.NON_TARGETED for c in brand)
        # It does exceed the domain threshold for typical users...
        assert any(c.domains_seen > c.domains_threshold for c in brand)
        # ...and is saved only by the crowd-count condition.
        assert all(c.users_seen >= c.users_threshold for c in brand)

    def test_local_ads_not_flagged(self):
        impressions = build_browsing_world()
        out = DetectionPipeline().run_week(impressions, week=0)
        for c in out.classified:
            if c.ad.identity.startswith("http://local-shop"):
                assert c.label is Label.NON_TARGETED

    def test_randomized_landing_ad_tracked_by_content(self):
        """Randomized landing URLs collapse to one content identity."""
        impressions = []
        for i in range(4):
            slot = make_ad_element("http://shop.example/x",
                                   "http://cdn/same-creative.jpg",
                                   style="randomized",
                                   impression_nonce=f"n{i}")
            visit(impressions, "u0",
                  make_page(f"site-{i}.example", ads=[slot]), tick=i)
        identities = {imp.ad.identity for imp in impressions}
        assert len(identities) == 1
        detector = CountBasedDetector(
            "u0", DetectorConfig(min_ad_serving_domains=1))
        detector.observe_all(impressions)
        assert detector.counter.domains_seen(identities.pop()) == 4

    def test_activity_gate_produces_undecided(self):
        """A user with too few ad-serving domains gets no verdicts."""
        impressions = []
        ads = [make_ad_element("http://a.example/x", "http://cdn/a.jpg")]
        visit(impressions, "sparse",
              make_page("only-site.example", ads=ads), tick=0)
        out = DetectionPipeline().run_week(impressions, week=0)
        assert out.classified
        assert all(c.label is Label.UNDECIDED for c in out.classified)


class TestMultiWeekPipeline:
    def test_weeks_are_independent(self):
        """Week boundaries reset the counters: a stalker in week 0 is
        invisible to week 1's classification."""
        from repro.types import TICKS_PER_WEEK
        impressions = []
        # Week 0: stalker across 5 domains + background.
        for d in range(5):
            visit(impressions, "u0", make_page(
                f"w0-{d}.example",
                ads=[make_ad_element("http://stalker.example/w0",
                                     "http://cdn/s.jpg")]), tick=d)
        for s in range(4):
            visit(impressions, "u0", make_page(
                f"bg-{s}.example",
                ads=[make_ad_element(f"http://bg-{s}.example/x",
                                     "http://cdn/b.jpg")]), tick=5 + s)
        # Week 1: only background.
        for s in range(4):
            visit(impressions, "u0", make_page(
                f"w1-{s}.example",
                ads=[make_ad_element(f"http://w1-{s}.example/x",
                                     "http://cdn/c.jpg")]),
                tick=TICKS_PER_WEEK + s)
        w0 = DetectionPipeline().run_week(impressions, week=0)
        w1 = DetectionPipeline().run_week(impressions, week=1)
        w0_ads = {c.ad.identity for c in w0.classified}
        w1_ads = {c.ad.identity for c in w1.classified}
        assert "http://stalker.example/w0" in w0_ads
        assert "http://stalker.example/w0" not in w1_ads
