"""The count-based classifier (paper §4.1).

``CountBasedDetector`` holds one user's local counters plus the global
inputs (a #Users lookup and the Users_th threshold) and classifies each ad
the user saw. The two global inputs are deliberately abstract — callers
pass either the exact :class:`~repro.core.counters.GlobalUserCounter`
(evaluation oracle) or the CMS estimate from the aggregation protocol; the
detector cannot tell the difference, which is the point of the design.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.core.counters import UserDomainCounter
from repro.core.thresholds import ThresholdRule
from repro.errors import ConfigurationError
from repro.types import Ad, ClassifiedAd, Impression, Label


@dataclass(frozen=True)
class DetectorConfig:
    """Tuning of the count-based rule.

    ``min_ad_serving_domains`` is the activity gate: the paper requires
    users to "have visited at least 4 domains that serve ads within the
    last 7 days" before any call is made.
    """

    domains_rule: ThresholdRule = ThresholdRule.MEAN
    users_rule: ThresholdRule = ThresholdRule.MEAN
    min_ad_serving_domains: int = 4

    def __post_init__(self) -> None:
        if self.min_ad_serving_domains < 1:
            raise ConfigurationError(
                "min_ad_serving_domains must be >= 1")


class CountBasedDetector:
    """Per-user detector for one weekly window."""

    def __init__(self, user_id: str,
                 config: Optional[DetectorConfig] = None) -> None:
        self.user_id = user_id
        self.config = config or DetectorConfig()
        self.counter = UserDomainCounter(user_id)

    # ------------------------------------------------------------------
    # Local state
    # ------------------------------------------------------------------
    def observe(self, impression: Impression) -> None:
        """Feed one impression into the local counters."""
        self.counter.observe(impression)

    def observe_all(self, impressions) -> None:
        """Feed a batch of impressions into the local counters."""
        self.counter.observe_all(impressions)

    def domains_threshold(self) -> float:
        """Domains_th(u): moment of this user's #Domains distribution."""
        return self.config.domains_rule.compute(self.counter.distribution())

    @property
    def meets_activity_gate(self) -> bool:
        """True once the user visited enough ad-serving domains (§4.2)."""
        return (self.counter.num_ad_serving_domains
                >= self.config.min_ad_serving_domains)

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def classify(self, ad: Ad, users_seen: float, users_threshold: float,
                 week: int = 0) -> ClassifiedAd:
        """Label one ad given the global inputs.

        ``users_seen`` may be an exact count or a CMS estimate. Returns
        UNDECIDED when the activity gate fails — the paper's "refrains
        from making a guess for lack of sufficient data".
        """
        return self._classify(ad, users_seen, users_threshold, week,
                              self.domains_threshold())

    def _classify(self, ad: Ad, users_seen: float, users_threshold: float,
                  week: int, domains_threshold: float) -> ClassifiedAd:
        domains_seen = self.counter.domains_seen(ad.identity)
        if not self.meets_activity_gate:
            label = Label.UNDECIDED
        else:
            follows_user = domains_seen > domains_threshold
            seen_by_few = users_seen < users_threshold
            label = (Label.TARGETED if follows_user and seen_by_few
                     else Label.NON_TARGETED)
        return ClassifiedAd(
            user_id=self.user_id, ad=ad, label=label,
            domains_seen=domains_seen, users_seen=users_seen,
            domains_threshold=domains_threshold,
            users_threshold=users_threshold, week=week)

    def classify_all(self, ads: List[Ad],
                     users_seen_of: Callable[[str], float],
                     users_threshold: float, week: int = 0
                     ) -> List[ClassifiedAd]:
        """Classify a batch of ads against one global snapshot (and one
        Domains_th(u): the local counters do not move during a batch)."""
        domains_threshold = self.domains_threshold()
        return [self._classify(ad, users_seen_of(ad.identity),
                               users_threshold, week, domains_threshold)
                for ad in ads]
