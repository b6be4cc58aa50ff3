"""Unit tests for ad detection, landing-page extraction and ad identity."""


from repro.extension.addetection import AdDetector, FilterRule
from repro.extension.adnetworks import AdNetworkRegistry
from repro.extension.identity import ad_identity, content_hash
from repro.extension.landing import extract_landing_url
from repro.extension.pages import Element, make_ad_element, make_page


class TestFilterRules:
    def test_element_rule_matches_class(self):
        rule = FilterRule(kind="element", pattern="ad-slot")
        el = Element("div", attrs={"class": "ad-slot wide"})
        assert rule.matches(el, AdNetworkRegistry())

    def test_element_rule_matches_id(self):
        rule = FilterRule(kind="element", pattern="sponsored")
        el = Element("div", attrs={"id": "sponsored-box"})
        assert rule.matches(el, AdNetworkRegistry())

    def test_element_rule_case_insensitive(self):
        rule = FilterRule(kind="element", pattern="AdBox")
        el = Element("div", attrs={"class": "adbox"})
        assert rule.matches(el, AdNetworkRegistry())

    def test_resource_rule_matches_network_src(self):
        rule = FilterRule(kind="resource")
        el = Element("div")
        el.append(Element("img",
                          attrs={"src": "http://cdn.doubleclick.net/c.jpg"}))
        assert rule.matches(el, AdNetworkRegistry())

    def test_resource_rule_ignores_first_party(self):
        rule = FilterRule(kind="resource")
        el = Element("div")
        el.append(Element("img", attrs={"src": "http://publisher.example/h.jpg"}))
        assert not rule.matches(el, AdNetworkRegistry())

    def test_unknown_kind_never_matches(self):
        rule = FilterRule(kind="cosmic", pattern="x")
        assert not rule.matches(Element("div"), AdNetworkRegistry())


class TestAdDetector:
    def test_detects_every_style(self):
        detector = AdDetector()
        for style in ("anchor", "onclick", "script", "redirect", "randomized"):
            page = make_page("pub.example",
                             ads=[make_ad_element("http://shop/x",
                                                  "http://cdn/c.jpg",
                                                  style=style)])
            assert len(detector.detect(page)) == 1, style

    def test_no_false_positive_on_content(self):
        page = make_page("pub.example", ads=[], content_paragraphs=5)
        assert AdDetector().detect(page) == []

    def test_one_detection_per_slot(self):
        """Nested matching elements collapse into one detection."""
        page = make_page("pub.example",
                         ads=[make_ad_element("http://a", "http://c")])
        assert len(AdDetector().detect(page)) == 1

    def test_multiple_slots(self):
        ads = [make_ad_element(f"http://shop/{i}", f"http://cdn/{i}.jpg")
               for i in range(3)]
        page = make_page("pub.example", ads=ads)
        assert len(AdDetector().detect(page)) == 3

    def test_resource_only_ad_detected(self):
        """An unmarked div loading from an ad network is still found."""
        slot = Element("div", attrs={"class": "innocuous"})
        slot.append(Element("iframe",
                            attrs={"src": "http://adnxs.com/frame"}))
        page = make_page("pub.example")
        page.root.children[0].append(slot)
        detector = AdDetector()
        found = detector.detect(page)
        assert len(found) == 1
        assert found[0].matched_rule.kind == "resource"

    def test_creative_url_exposed(self):
        page = make_page("pub.example",
                         ads=[make_ad_element("http://a", "http://cdn/pic.png")])
        detected = AdDetector().detect(page)[0]
        assert detected.creative_url == "http://cdn/pic.png"


class TestLandingExtraction:
    def test_anchor_href_preferred(self):
        slot = make_ad_element("http://shop.example/prod", "http://c",
                               style="anchor")
        assert extract_landing_url(slot) == "http://shop.example/prod"

    def test_onclick_extraction(self):
        slot = make_ad_element("http://shop.example/prod", "http://c",
                               style="onclick")
        assert extract_landing_url(slot) == "http://shop.example/prod"

    def test_script_regex_extraction(self):
        slot = make_ad_element("http://shop.example/prod", "http://c",
                               style="script")
        assert extract_landing_url(slot) == "http://shop.example/prod"

    def test_redirector_refused(self):
        """Click-fraud avoidance: ad-network URLs are never returned."""
        slot = make_ad_element("http://shop.example/prod", "http://c",
                               style="redirect")
        assert extract_landing_url(slot) is None

    def test_no_candidates(self):
        slot = Element("div", attrs={"class": "ad-slot"})
        assert extract_landing_url(slot) is None

    def test_quoted_url_trimmed(self):
        el = Element("div")
        el.append(Element("script", text="go('http://dest.example/x');"))
        assert extract_landing_url(el) == "http://dest.example/x"


class TestAdIdentity:
    def test_url_identity_for_plain_ads(self):
        page = make_page("pub.example",
                         ads=[make_ad_element("http://shop/x", "http://c.jpg")])
        detected = AdDetector().detect(page)[0]
        ad = ad_identity(detected)
        assert ad.url == "http://shop/x"
        assert ad.identity == "http://shop/x"

    def test_content_identity_for_randomized(self):
        registry = AdNetworkRegistry()
        pages = [make_page("pub.example",
                           ads=[make_ad_element("http://shop/x",
                                                "http://cdn/same.jpg",
                                                style="randomized",
                                                impression_nonce=f"n{i}")])
                 for i in range(2)]
        ads = [ad_identity(AdDetector().detect(p)[0], registry) for p in pages]
        # Randomized landing URLs differ, but identity must be stable.
        assert ads[0].url == ""
        assert ads[0].identity == ads[1].identity
        assert ads[0].identity.startswith("content:")

    def test_content_identity_for_redirectors(self):
        page = make_page("pub.example",
                         ads=[make_ad_element("http://shop/x", "http://c.jpg",
                                              style="redirect")])
        ad = ad_identity(AdDetector().detect(page)[0])
        assert ad.url == ""
        assert ad.identity.startswith("content:")

    def test_content_hash_depends_on_creative(self):
        pages = [make_page("pub.example",
                           ads=[make_ad_element("http://shop/x",
                                                f"http://cdn/{i}.jpg")])
                 for i in range(2)]
        hashes = [content_hash(AdDetector().detect(p)[0]) for p in pages]
        assert hashes[0] != hashes[1]

    def test_category_carried_from_page(self):
        page = make_page("pub.example", category="sports",
                         ads=[make_ad_element("http://shop/x", "http://c")])
        ad = ad_identity(AdDetector().detect(page)[0])
        assert ad.category == "sports"

