"""Threshold rules: distribution moments the paper evaluated (§4.2).

The paper "empirically evaluated different options based on several
moments of the distributions (the mean, the median, the standard
deviation, and possible combinations thereof)" and settled on the mean;
Figure 3 additionally shows Mean+Median. All candidates live here.
"""

from __future__ import annotations

import enum

from repro.statsutil.distributions import EmpiricalDistribution


class ThresholdRule(enum.Enum):
    """Maps a count distribution to a scalar threshold."""

    MEAN = "mean"
    MEDIAN = "median"
    MEAN_PLUS_MEDIAN = "mean+median"
    MEAN_PLUS_STD = "mean+std"

    def compute(self, distribution: EmpiricalDistribution) -> float:
        """Apply this rule to a count distribution."""
        if self is ThresholdRule.MEAN:
            return distribution.mean
        if self is ThresholdRule.MEDIAN:
            return distribution.median
        if self is ThresholdRule.MEAN_PLUS_MEDIAN:
            return distribution.mean + distribution.median
        if self is ThresholdRule.MEAN_PLUS_STD:
            return distribution.mean + distribution.std
        raise AssertionError(f"unhandled rule {self!r}")  # pragma: no cover
