"""End-to-end live-validation study (paper §7.3).

Reproduces the paper's three-dataset methodology over the simulated
ecosystem:

* the "eyeWnder dataset" — impressions collected from the panel for N
  weeks, classified by the count-based pipeline;
* the "CR dataset" — the clean-profile crawler's sightings on every site
  where eyeWnder classified an ad;
* the "F8 dataset" — noisy crowd labels on a subset of the ads.

``run()`` executes classification, walks the Figure-4 tree, resolves
UNKNOWNs and reports the headline likely-TP / likely-TN rates the paper
quotes (78% / 87%).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.backend.crawler import CleanProfileCrawler
from repro.core.detector import DetectorConfig
from repro.core.pipeline import DetectionPipeline
from repro.simulation.config import SimulationConfig
from repro.simulation.simulator import Simulator
from repro.validation.content_based import ContentBasedHeuristic
from repro.validation.f8 import CrowdLabeler
from repro.validation.tree import EvaluationTree, TreeOutcome, TreeRates
from repro.validation.unknowns import ResolvedUnknowns, UnknownResolver
from repro.types import Label


@dataclass
class StudyReport:
    """Everything §7.3 reports, in one object."""

    tree: TreeRates
    resolved: ResolvedUnknowns
    likely_tp_rate: float
    likely_tn_rate: float
    total_ads: int
    classified_targeted: int
    classified_non_targeted: int


class LiveValidationStudy:
    """Wires simulator, pipeline, crawler, CB heuristic and crowd labels."""

    def __init__(self, config: Optional[SimulationConfig] = None,
                 detector_config: Optional[DetectorConfig] = None,
                 cb_min_websites: int = 20,
                 labeling_rate: float = 0.25,
                 labeler_accuracy: float = 0.85,
                 crawl_sites: int = 100,
                 seed: int = 0) -> None:
        self.config = config or SimulationConfig.table1(seed=seed)
        self.detector_config = detector_config or DetectorConfig()
        self.cb_min_websites = cb_min_websites
        self.labeling_rate = labeling_rate
        self.labeler_accuracy = labeler_accuracy
        self.crawl_sites = crawl_sites
        self.seed = seed

    def run(self, week: int = 0) -> StudyReport:
        """Execute the full study and derive the headline rates."""
        simulator = Simulator(self.config)
        result = simulator.run()

        # eyeWnder classification of the panel's impressions.
        pipeline = DetectionPipeline(self.detector_config)
        out = pipeline.run_week(result.impressions, week=week)
        decided = [c for c in out.classified
                   if c.label is not Label.UNDECIDED]

        # CR dataset: crawl the sites where classified ads appeared
        # (approximated by the most-visited sites, as the paper's crawler
        # visited "any website in which eyeWnder has classified an ad").
        crawler = CleanProfileCrawler(simulator.adserver)
        crawler.crawl_sites(result.catalog.sites[:self.crawl_sites],
                            tick=10 ** 6)

        # CB profiles from the panel's visit log.
        content_based = ContentBasedHeuristic(self.cb_min_websites)
        content_based.build_profiles(result.visits)

        # F8 dataset.
        crowd = CrowdLabeler(result.ground_truth,
                             labeling_rate=self.labeling_rate,
                             accuracy=self.labeler_accuracy,
                             seed=self.seed + 17)

        tree = EvaluationTree(crawler, content_based, crowd)
        rates = tree.evaluate(decided)

        # Resolve UNKNOWNs (§7.3.3).
        receivers_of: Dict[str, List[str]] = defaultdict(list)
        for imp in result.impressions:
            receivers_of[imp.ad.identity].append(imp.user_id)
        for identity in receivers_of:
            receivers_of[identity] = sorted(set(receivers_of[identity]))
        resolver = UnknownResolver(simulator.adserver, result.population,
                                   result.catalog, result.campaigns,
                                   seed=self.seed + 23)
        resolved = resolver.resolve(
            targeted_unknowns=rates.unknowns(targeted=True),
            non_targeted_unknowns=rates.unknowns(targeted=False),
            receivers_of=dict(receivers_of))

        # Headline aggregates, as derived at the end of §7.3.4.
        total_t = rates.total_targeted
        total_n = rates.total_non_targeted
        # Non-targeted UNKNOWNs beyond the inspected sample extrapolate at
        # the sample's TN share, exactly as the paper generalizes its 200.
        sampled = max(resolved.sampled_non_targeted, 1)
        tn_share = resolved.likely_tn / sampled
        unknown_n = rates.count(TreeOutcome.UNKNOWN_NON_TARGETED)
        likely_tp = (rates.count(TreeOutcome.TP_CB)
                     + rates.count(TreeOutcome.TP_F8)
                     + resolved.likely_tp)
        likely_tn = (rates.count(TreeOutcome.TN_CR)
                     + rates.count(TreeOutcome.TN_F8)
                     + tn_share * unknown_n)
        return StudyReport(
            tree=rates, resolved=resolved,
            likely_tp_rate=likely_tp / total_t if total_t else 0.0,
            likely_tn_rate=likely_tn / total_n if total_n else 0.0,
            total_ads=len(decided),
            classified_targeted=total_t,
            classified_non_targeted=total_n)
