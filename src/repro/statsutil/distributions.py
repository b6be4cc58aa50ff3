"""Empirical distributions and the moment statistics the detector uses.

The count-based algorithm (paper §4.2) turns a multiset of counts — how many
users saw each ad, how many domains showed an ad to a user — into a scalar
threshold. The paper evaluates several moments (mean, median, mean+median,
mean+std) and settles on the mean. :class:`EmpiricalDistribution` is the one
place those statistics are computed so the detector and the protocol
evaluation (Figure 2) agree on definitions.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence, Tuple

from repro.errors import ConfigurationError


class EmpiricalDistribution:
    """A multiset of non-negative observations with cached moments.

    Observations are stored as floats; the CMS-estimated variant of the
    #Users distribution produces non-integer estimates after collision
    correction, so we do not restrict to ints.
    """

    def __init__(self, values: Iterable[float] = ()) -> None:
        self._values: List[float] = [float(v) for v in values]

    def add(self, value: float) -> None:
        self._values.append(float(value))

    def extend(self, values: Iterable[float]) -> None:
        self._values.extend(float(v) for v in values)

    @property
    def values(self) -> Tuple[float, ...]:
        return tuple(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __bool__(self) -> bool:
        return bool(self._values)

    @property
    def mean(self) -> float:
        if not self._values:
            return 0.0
        return sum(self._values) / len(self._values)

    @property
    def median(self) -> float:
        if not self._values:
            return 0.0
        ordered = sorted(self._values)
        n = len(ordered)
        mid = n // 2
        if n % 2 == 1:
            return ordered[mid]
        return (ordered[mid - 1] + ordered[mid]) / 2.0

    @property
    def std(self) -> float:
        """Population standard deviation (ddof=0)."""
        n = len(self._values)
        if n == 0:
            return 0.0
        mu = self.mean
        return math.sqrt(sum((v - mu) ** 2 for v in self._values) / n)

    @property
    def min(self) -> float:
        return min(self._values) if self._values else 0.0

    @property
    def max(self) -> float:
        return max(self._values) if self._values else 0.0

    def quantile(self, q: float) -> float:
        """Linear-interpolation quantile, ``q`` in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"quantile must be in [0, 1], got {q}")
        if not self._values:
            return 0.0
        ordered = sorted(self._values)
        if len(ordered) == 1:
            return ordered[0]
        pos = q * (len(ordered) - 1)
        lo = int(math.floor(pos))
        hi = int(math.ceil(pos))
        frac = pos - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    def total_variation_distance(self, other: "EmpiricalDistribution",
                                 bins: int = 20) -> float:
        """TV distance between two distributions on a shared binning.

        Used to quantify how close the CMS-estimated #Users distribution is
        to the cleartext one (Figure 2's visual claim, made numeric).
        """
        if not self._values and not other._values:
            return 0.0
        lo = min(self.min, other.min)
        hi = max(self.max, other.max)
        if hi <= lo:
            hi = lo + 1.0
        width = (hi - lo) / bins

        def bin_probs(values: Sequence[float]) -> List[float]:
            counts = [0] * bins
            for v in values:
                idx = min(int((v - lo) / width), bins - 1)
                counts[idx] += 1
            n = len(values) or 1
            return [c / n for c in counts]

        p = bin_probs(self._values)
        q = bin_probs(other._values)
        return 0.5 * sum(abs(a - b) for a, b in zip(p, q))


def histogram_density(values: Sequence[float], bins: int = 10) -> Dict[float, float]:
    """Normalized histogram: bin-center -> probability mass.

    Bin edges span [min, max]; degenerate (constant) inputs collapse to a
    single bin carrying all the mass.
    """
    if bins <= 0:
        raise ConfigurationError(f"bins must be positive, got {bins}")
    vals = [float(v) for v in values]
    if not vals:
        return {}
    lo, hi = min(vals), max(vals)
    if hi <= lo:
        return {lo: 1.0}
    width = (hi - lo) / bins
    counts = [0] * bins
    for v in vals:
        idx = min(int((v - lo) / width), bins - 1)
        counts[idx] += 1
    n = len(vals)
    return {lo + (i + 0.5) * width: counts[i] / n for i in range(bins)}
