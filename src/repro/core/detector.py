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
from typing import Callable, Iterable, List, Optional

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
    """Per-user detector for one weekly window.

    ``counter`` is the user's local state when it was counted elsewhere
    (:func:`~repro.core.counters.count_window` counts a whole window's
    users in one pass); a fresh one is started otherwise.
    """

    def __init__(self, user_id: str,
                 config: Optional[DetectorConfig] = None,
                 counter: Optional[UserDomainCounter] = None) -> None:
        if counter is not None and counter.user_id != user_id:
            raise ConfigurationError(
                f"counter of {counter.user_id!r} handed to the detector "
                f"of {user_id!r}")
        self.user_id = user_id
        self.config = config or DetectorConfig()
        self.counter = counter if counter is not None \
            else UserDomainCounter(user_id)

    # ------------------------------------------------------------------
    # Local state
    # ------------------------------------------------------------------
    def observe(self, impression: Impression) -> None:
        """Feed one impression into the local counters."""
        self.counter.observe(impression)

    def observe_all(self, impressions: Iterable[Impression]) -> None:
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
        return self.classify_all([ad], lambda identity: users_seen,
                                 users_threshold, week)[0]

    def classify_all(self, ads: Iterable[Ad],
                     users_seen_of: Callable[[str], float],
                     users_threshold: float, week: int = 0
                     ) -> List[ClassifiedAd]:
        """Classify a batch of ads against one global snapshot.

        The activity gate and Domains_th(u) are read once: the local
        counters do not move during a batch. An ad is TARGETED when it
        follows the user (#Domains(u, a) > Domains_th(u)) and few users
        saw it (#Users(a) < Users_th).
        """
        ads = list(ads)
        # Ad.identity, read off the fields (see counters._count).
        identities = [ad.url or ad.content_hash for ad in ads]
        domains_threshold = self.domains_threshold()
        decided = self.meets_activity_gate
        user_id = self.user_id
        classified: List[ClassifiedAd] = []
        for ad, identity, domains_seen in zip(
                ads, identities, self.counter.domains_seen_all(identities)):
            users_seen = users_seen_of(identity)
            if not decided:
                label = Label.UNDECIDED
            elif (domains_seen > domains_threshold
                  and users_seen < users_threshold):
                label = Label.TARGETED
            else:
                label = Label.NON_TARGETED
            # Positional: a quarter cheaper than keywords per verdict.
            classified.append(ClassifiedAd(
                user_id, ad, label, domains_seen, users_seen,
                domains_threshold, users_threshold, week))
        return classified
