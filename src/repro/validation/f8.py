"""Simulated FigureEight (F8) crowdworkers.

The paper's 100 paid volunteers labeled a *subset* of the ads they saw as
targeted or not. Human labels are noisy — users "have limitations in
detecting bias or discrimination" (paper's reference [47]) — so the
labeler has both a coverage rate (most ads go unlabeled, feeding the
UNKNOWN branches of Figure 4) and an accuracy (labels flip with some
probability). Both are parameters, so Figure 4's sensitivity to
annotator quality can be explored.
"""

from __future__ import annotations

import enum
from typing import Dict, Mapping, Tuple

from repro.errors import ConfigurationError
from repro.statsutil.sampling import make_rng
from repro.types import AdKind


class CrowdLabel(enum.Enum):
    """One worker's verdict on one ad."""

    TARGETED = "targeted"
    NON_TARGETED = "non_targeted"
    NOT_LABELED = "not_labeled"


class CrowdLabeler:
    """Deterministic (seeded) noisy labeler over simulator ground truth."""

    def __init__(self, ground_truth: Mapping[str, AdKind],
                 labeling_rate: float = 0.25, accuracy: float = 0.85,
                 seed: int = 0) -> None:
        if not 0.0 <= labeling_rate <= 1.0:
            raise ConfigurationError("labeling_rate must be in [0, 1]")
        if not 0.0 <= accuracy <= 1.0:
            raise ConfigurationError("accuracy must be in [0, 1]")
        self.labeling_rate = labeling_rate
        self.accuracy = accuracy
        self._ground_truth = dict(ground_truth)
        self._rng = make_rng(seed)
        self._labels: Dict[Tuple[str, str], CrowdLabel] = {}

    def label(self, user_id: str, ad_identity: str) -> CrowdLabel:
        """The (memoized) label this user's worker gave the ad."""
        key = (user_id, ad_identity)
        if key in self._labels:
            return self._labels[key]
        kind = self._ground_truth.get(ad_identity)
        if kind is None or self._rng.random() >= self.labeling_rate:
            verdict = CrowdLabel.NOT_LABELED
        else:
            truth_targeted = kind.is_targeted
            correct = self._rng.random() < self.accuracy
            labeled_targeted = truth_targeted if correct else not truth_targeted
            verdict = (CrowdLabel.TARGETED if labeled_targeted
                       else CrowdLabel.NON_TARGETED)
        self._labels[key] = verdict
        return verdict
