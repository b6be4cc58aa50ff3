"""Clean-profile crawler (paper §5, "Crawler server").

The crawler visits audited pages with an empty browsing profile (fresh
cache, no cookies). Any ad it encounters was deliverable without user
data, so an ad the crowd flagged as targeted that the crawler *also* sees
is a false positive with high probability — the FP(CR) branch of the
Figure 4 evaluation tree. Each crawl session uses a fresh synthetic user
id, so no history accumulates between audits. The audit reads its
sightings from memory (:meth:`CleanProfileCrawler.saw_ad`); nothing
persists them.
"""

from __future__ import annotations

from typing import List, Sequence, Set

from repro.simulation.adserver import AdServer
from repro.simulation.browsing import Visit
from repro.simulation.population import UserProfile
from repro.simulation.websites import Website
from repro.types import Demographics, Impression


class CleanProfileCrawler:
    """Visits sites through the simulated ad ecosystem with no profile."""

    def __init__(self, adserver: AdServer, visits_per_site: int = 3) -> None:
        self.adserver = adserver
        self.visits_per_site = visits_per_site
        self._session_counter = 0
        self._seen: Set[str] = set()  # ad identities

    def _fresh_profile(self) -> UserProfile:
        self._session_counter += 1
        return UserProfile(
            user_id=f"crawler-{self._session_counter:06d}",
            interests=(),  # no interests: nothing to behaviourally target
            activity=0.0,
            demographics=Demographics(gender="", age_bracket="",
                                      income_bracket=""))

    def crawl_site(self, site: Website, tick: int) -> List[Impression]:
        """Audit one site: several clean visits, recording every ad."""
        impressions: List[Impression] = []
        for _ in range(self.visits_per_site):
            profile = self._fresh_profile()
            visit = Visit(user_id=profile.user_id, website=site, tick=tick)
            for impression in self.adserver.serve_for_profile(profile, visit):
                impressions.append(impression)
                self._seen.add(impression.ad.identity)
        return impressions

    def crawl_sites(self, sites: Sequence[Website],
                    tick: int) -> List[Impression]:
        impressions: List[Impression] = []
        for site in sites:
            impressions.extend(self.crawl_site(site, tick))
        return impressions

    def saw_ad(self, ad_identity: str) -> bool:
        """Did any crawl session encounter this ad?"""
        return ad_identity in self._seen
