"""Impression delivery: which ads fill a page's slots on each visit.

Per visit the server fills up to ``ads_per_website`` slots:

1. every eligible *user-targeting* campaign (OBA / retargeted / indirect)
   under its frequency cap serves with ``targeted_serve_probability`` —
   targeted ads bid in auctions, they do not win every slot;
2. remaining slots go to the site's placed campaigns (contextual, static,
   brand), each winning with ``placement_serve_probability`` — publishers
   rotate inventory, the same static ad is not on every page load.

The server maintains each user's browsing history (categories and
domains); retargeting campaigns chase users who visited the advertiser's
domain.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence, Set, Tuple

from repro.simulation.browsing import Visit
from repro.simulation.campaigns import BrowsingHistory, Campaign
from repro.simulation.config import SimulationConfig
from repro.simulation.population import Population
from repro.simulation.websites import Website
from repro.statsutil.sampling import make_rng
from repro.types import AdKind, Impression

#: Placed kinds whose eligibility reads only the site, never the visitor.
_SITE_ONLY_KINDS = (AdKind.CONTEXTUAL, AdKind.STATIC, AdKind.BRAND)


class AdServer:
    """Stateful ad delivery over a stream of visits."""

    def __init__(self, campaigns: Sequence[Campaign],
                 population: Population, config: SimulationConfig,
                 seed: int = 0) -> None:
        self.campaigns = list(campaigns)
        self.population = population
        self.config = config
        self._rng = make_rng(seed)
        # (campaign_id, user_id) -> impressions served so far.
        self._served: Dict[Tuple[str, str], int] = defaultdict(int)
        # (campaign_id, user_id) -> domains the ad already appeared on
        # (used by evasion-constrained campaigns, §7.3.4).
        self._served_domains: Dict[Tuple[str, str], Set[str]] = \
            defaultdict(set)
        # Per-user browsing history.
        self._visited_categories: Dict[str, Set[str]] = defaultdict(set)
        self._visited_domains: Dict[str, Set[str]] = defaultdict(set)
        # domain -> placed campaigns (contextual/static/brand).
        self._placements: Dict[str, List[Campaign]] = defaultdict(list)
        for campaign in self.campaigns:
            for domain in campaign.placement_domains:
                self._placements[domain].append(campaign)
        # site -> eligible placements, where every placement is site-only.
        self._site_placements: Dict[Website, List[Campaign]] = {}
        # Indexes for user-targeting campaigns.
        self._segment_campaigns: Dict[str, List[Campaign]] = defaultdict(list)
        self._retarget_by_domain: Dict[str, List[Campaign]] = defaultdict(list)
        for campaign in self.campaigns:
            if campaign.kind in (AdKind.TARGETED, AdKind.INDIRECT):
                for user_id in campaign.audience_user_ids:
                    self._segment_campaigns[user_id].append(campaign)
            elif campaign.kind is AdKind.RETARGETED:
                self._retarget_by_domain[
                    campaign.advertiser_domain].append(campaign)
        # user_id -> retarget campaigns currently chasing them.
        self._chasing: Dict[str, List[Campaign]] = defaultdict(list)
        # campaign_id -> users it has activated on (budget-bounded).
        self._activations: Dict[str, int] = defaultdict(int)

    def _under_cap(self, campaign: Campaign, user_id: str) -> bool:
        return self._served[(campaign.campaign_id, user_id)] < \
            campaign.frequency_cap

    def _record(self, campaign: Campaign, visit: Visit) -> Impression:
        key = (campaign.campaign_id, visit.user_id)
        self._served[key] += 1
        self._served_domains[key].add(visit.website.domain)
        return Impression(user_id=visit.user_id, ad=campaign.ad,
                          domain=visit.website.domain, tick=visit.tick)

    def _flight_intensity(self, campaign: Campaign, tick: int) -> float:
        """Serve-intensity multiplier from the campaign's flight dynamics.

        0 before launch; exponential fade-out with the configured
        half-life after it (1.0 when no fade is configured).
        """
        if tick < campaign.launch_tick:
            return 0.0
        if campaign.fade_halflife_ticks <= 0:
            return 1.0
        age = tick - campaign.launch_tick
        return 0.5 ** (age / campaign.fade_halflife_ticks)

    def _evasion_allows(self, campaign: Campaign, visit: Visit) -> bool:
        """Evasion-constrained campaigns refuse new domains past their
        limit (but keep serving on domains already used)."""
        if campaign.evasion_domain_limit <= 0:
            return True
        used = self._served_domains[(campaign.campaign_id, visit.user_id)]
        return (visit.website.domain in used
                or len(used) < campaign.evasion_domain_limit)

    def _history(self, user_id: str) -> BrowsingHistory:
        return BrowsingHistory(
            categories=frozenset(self._visited_categories[user_id]),
            domains=frozenset(self._visited_domains[user_id]))

    def _placements_for(self, user, site: Website,
                        history: BrowsingHistory) -> List[Campaign]:
        cached = self._site_placements.get(site)
        if cached is not None:
            return cached
        placed = self._placements.get(site.domain, [])
        eligible = [c for c in placed if c.eligible(user, site, history)]
        if all(c.kind in _SITE_ONLY_KINDS for c in placed):
            self._site_placements[site] = eligible
        return eligible

    def serve(self, visit: Visit) -> List[Impression]:
        """Fill the page's ad slots for one visit by a panel user."""
        return self.serve_for_profile(self.population.by_id(visit.user_id),
                                      visit)

    def serve_for_profile(self, user, visit: Visit) -> List[Impression]:
        """Fill the page's ad slots for an explicit profile.

        Lets non-panel visitors (the clean-profile crawler) receive ads:
        the profile does not need to exist in the population, it only
        needs interests and a user_id.
        """
        history = self._history(visit.user_id)
        slots = self.config.slots_per_page
        impressions: List[Impression] = []

        # Targeted campaigns bid first: segment buys + active retargeters.
        bidders = (self._segment_campaigns.get(visit.user_id, [])
                   + self._chasing.get(visit.user_id, []))
        for campaign in bidders:
            if len(impressions) >= slots:
                break
            if not campaign.eligible(user, visit.website, history):
                continue
            if not self._under_cap(campaign, visit.user_id):
                continue
            if not self._evasion_allows(campaign, visit):
                continue
            intensity = self._flight_intensity(campaign, visit.tick)
            if intensity <= 0.0:
                continue
            if self._rng.random() < \
                    self.config.targeted_serve_probability * intensity:
                impressions.append(self._record(campaign, visit))

        # Placed campaigns rotate through the remaining slots: the page
        # renders a random sample of the site's eligible inventory.
        remaining = slots - len(impressions)
        if remaining > 0:
            eligible = self._placements_for(user, visit.website, history)
            if len(eligible) > remaining:
                eligible = self._rng.sample(eligible, remaining)
            for campaign in eligible:
                impressions.append(self._record(campaign, visit))

        # History updates *after* serving: retargeting chases past visits.
        # Activation is probabilistic — campaigns segment on behaviour
        # (cart abandonment, product views), not on every page load.
        self._visited_categories[visit.user_id].add(visit.website.category)
        if visit.website.domain not in self._visited_domains[visit.user_id]:
            self._visited_domains[visit.user_id].add(visit.website.domain)
            for campaign in self._retarget_by_domain.get(
                    visit.website.domain, []):
                if (self._activations[campaign.campaign_id]
                        >= self.config.retarget_audience_max):
                    continue  # campaign budget exhausted
                if (self._rng.random()
                        < self.config.retarget_activation_probability):
                    self._chasing[visit.user_id].append(campaign)
                    self._activations[campaign.campaign_id] += 1
        return impressions

    def reset_campaign_budget(self, campaign_id: str) -> None:
        """Refresh one campaign's retargeting-audience budget.

        Campaigns refresh their audiences between flights; the §7.3.3
        retargeting probe runs in a later week than the panel's browsing
        and therefore sees a fresh budget.
        """
        self._activations[campaign_id] = 0

    def serve_all(self, visits: Sequence[Visit]) -> List[Impression]:
        impressions: List[Impression] = []
        for visit in visits:
            impressions.extend(self.serve(visit))
        return impressions
