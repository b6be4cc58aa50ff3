"""Browser-extension substrate (paper §5, "Browser extension").

The real eyeWnder extension runs in Chrome and has three jobs: find display
ads inside pages, infer each ad's landing page *without clicking* (to avoid
click fraud), and identify creatives whose landing URLs are randomized.
This package reproduces that pipeline over a synthetic DOM model:

* :mod:`repro.extension.pages` — a small DOM (elements, attributes,
  children) plus builders that emit ads in every delivery style the paper's
  heuristics must handle;
* :mod:`repro.extension.addetection` — AdBlockPlus-style filter rules;
* :mod:`repro.extension.landing` — landing-URL extraction heuristics
  (<a href>, onclick, URL-regex over script text);
* :mod:`repro.extension.identity` — stable ad identity, falling back to
  creative content hashes for randomized landing pages.
"""

from repro.extension.adnetworks import AdNetworkRegistry
from repro.extension.pages import Element, WebPage, make_ad_element
from repro.extension.addetection import AdDetector, DetectedAd, FilterRule
from repro.extension.landing import extract_landing_url
from repro.extension.identity import ad_identity

__all__ = [
    "AdNetworkRegistry",
    "Element",
    "WebPage",
    "make_ad_element",
    "AdDetector",
    "DetectedAd",
    "FilterRule",
    "extract_landing_url",
    "ad_identity",
]
