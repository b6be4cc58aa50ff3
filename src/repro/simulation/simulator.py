"""The simulation loop: population + catalogue + campaigns -> impressions.

One :class:`Simulator` run produces the impression log the detector
consumes, plus the ground truth (ad identity -> :class:`AdKind`) the
evaluation scores against. Everything derives from ``config.seed``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

from repro.simulation.adserver import AdServer
from repro.simulation.browsing import BrowsingModel, Visit
from repro.simulation.campaigns import Campaign, CampaignGenerator
from repro.simulation.config import SimulationConfig
from repro.simulation.population import Population
from repro.simulation.websites import WebsiteCatalog
from repro.types import AdKind, Impression


@dataclass
class SimulationResult:
    """Everything one run produced."""

    config: SimulationConfig
    population: Population
    catalog: WebsiteCatalog
    campaigns: List[Campaign]
    visits: List[Visit]
    impressions: List[Impression]
    ground_truth: Dict[str, AdKind]  # ad identity -> kind

    def is_targeted_truth(self, ad_identity: str) -> bool:
        kind = self.ground_truth.get(ad_identity)
        return bool(kind and kind.is_targeted)

    @property
    def unique_ads(self) -> Set[str]:
        return {imp.ad.identity for imp in self.impressions}


class Simulator:
    """Builds all the moving parts from a config and runs them."""

    def __init__(self, config: SimulationConfig) -> None:
        self.config = config
        seed = config.seed
        self.catalog = WebsiteCatalog(config.num_websites,
                                      zipf_exponent=config.zipf_exponent,
                                      seed=seed)
        self.population = Population(config.num_users,
                                     config.interests_per_user,
                                     categories=self.catalog.categories,
                                     seed=seed + 1)
        self.campaigns = CampaignGenerator(config, self.catalog,
                                           population=self.population,
                                           seed=seed + 2).generate()
        self.browsing = BrowsingModel(
            self.population, self.catalog,
            average_user_visits=config.average_user_visits,
            interest_affinity=config.interest_affinity, seed=seed + 3)
        self.adserver = AdServer(self.campaigns, self.population, config,
                                 seed=seed + 4)

    def replace_campaigns(self, campaigns: List[Campaign]) -> None:
        """Swap the campaign mix before running (evasion/bias studies).

        Rebuilds the ad server so placement and targeting indexes match
        the new campaign list.
        """
        self.campaigns = list(campaigns)
        self.adserver = AdServer(self.campaigns, self.population,
                                 self.config, seed=self.config.seed + 4)

    def run(self) -> SimulationResult:
        """Execute every configured week and assemble the result."""
        visits: List[Visit] = []
        impressions: List[Impression] = []
        for week in range(self.config.num_weeks):
            week_visits = self.browsing.visits_for_week(week)
            visits.extend(week_visits)
            impressions.extend(self.adserver.serve_all(week_visits))
        ground_truth = {c.ad.identity: c.kind for c in self.campaigns}
        return SimulationResult(
            config=self.config, population=self.population,
            catalog=self.catalog, campaigns=self.campaigns, visits=visits,
            impressions=impressions, ground_truth=ground_truth)
