"""The content-based (CB) heuristic — the prior art's detector.

Adapted from Carrascosa et al. (the paper's reference [16]) exactly as
§7.3.2's footnote describes: build each user's profile from the categories
of pages he visits, keeping categories that appear on at least ``T``
*different websites* (T=20 in the paper, seeking precision over recall).
An ad is CB-targeted if its landing page's main category is in the
profile.

CB can only see *direct* interest targeting: retargeting and indirect
campaigns share no semantic overlap with the profile, which is precisely
the gap eyeWnder's count-based approach closes.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, Iterable, Set

from repro.errors import ConfigurationError
from repro.simulation.browsing import Visit
from repro.types import Ad


@dataclass
class UserCategoryProfile:
    """Categories significant in one user's browsing."""

    user_id: str
    categories: Set[str]

    def overlaps(self, category: str) -> bool:
        return category in self.categories


class ContentBasedHeuristic:
    """Profile construction + semantic-overlap classification."""

    def __init__(self, min_websites_per_category: int = 20) -> None:
        if min_websites_per_category < 1:
            raise ConfigurationError(
                "min_websites_per_category must be >= 1")
        self.min_websites_per_category = min_websites_per_category
        self._profiles: Dict[str, UserCategoryProfile] = {}

    def build_profiles(self, visits: Iterable[Visit]
                       ) -> Dict[str, UserCategoryProfile]:
        """Profiles from a visit log: category -> distinct sites visited."""
        sites_per_user_category: Dict[str, Dict[str, Set[str]]] = \
            defaultdict(lambda: defaultdict(set))
        for visit in visits:
            sites_per_user_category[visit.user_id][
                visit.website.category].add(visit.website.domain)
        self._profiles = {}
        for user_id, per_category in sites_per_user_category.items():
            significant = {
                category for category, sites in per_category.items()
                if len(sites) >= self.min_websites_per_category
            }
            self._profiles[user_id] = UserCategoryProfile(
                user_id=user_id, categories=significant)
        return dict(self._profiles)

    def profile(self, user_id: str) -> UserCategoryProfile:
        """Profile for a user; empty if the user never built one."""
        return self._profiles.get(
            user_id, UserCategoryProfile(user_id=user_id, categories=set()))

    def has_semantic_overlap(self, user_id: str, ad: Ad) -> bool:
        """Does the ad's landing category overlap the user's profile?"""
        return bool(ad.category) and self.profile(user_id).overlaps(
            ad.category)
