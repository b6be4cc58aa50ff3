"""Seeded sampling helpers used by the browsing/ad simulator.

Website popularity on the web is famously heavy-tailed; the simulator uses a
Zipf law over the site catalogue (as in the user-centric browsing model of
Burklen et al., the paper's reference [14]). All sampling goes through a
``random.Random`` instance created by :func:`make_rng` so every experiment is
reproducible from a single integer seed.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, TypeVar

from repro.errors import ConfigurationError

T = TypeVar("T")


def make_rng(seed: Optional[int]) -> random.Random:
    """Create a deterministic RNG. ``None`` maps to a fixed default seed.

    Library code never consults the wall clock or global RNG state: every
    stochastic component takes a seed and derives its randomness from it.
    """
    return random.Random(0xE7E_BA5E if seed is None else seed)


class ZipfSampler:
    """Sample indices ``0..n-1`` with probability proportional to 1/(i+1)^s.

    Implemented by inverse-CDF lookup on the precomputed cumulative weights,
    O(log n) per sample, exact (no rejection).
    """

    def __init__(self, n: int, exponent: float = 1.0,
                 rng: Optional[random.Random] = None) -> None:
        if n <= 0:
            raise ConfigurationError(f"ZipfSampler needs n >= 1, got {n}")
        if exponent < 0:
            raise ConfigurationError(
                f"Zipf exponent must be non-negative, got {exponent}")
        self.n = n
        self.exponent = exponent
        self._rng = rng or make_rng(None)
        weights = [(i + 1) ** -exponent for i in range(n)]
        self._cum = list(accumulate(weights))
        self._total = self._cum[-1]

    def sample(self) -> int:
        u = self._rng.random() * self._total
        return bisect_right(self._cum, u)

    def probability(self, index: int) -> float:
        """Exact probability mass of ``index`` under this Zipf law."""
        if not 0 <= index < self.n:
            raise ConfigurationError(f"index {index} out of range [0, {self.n})")
        return ((index + 1) ** -self.exponent) / self._total


class CategoricalSampler:
    """Sample keys of a weight dict proportionally to their weights."""

    def __init__(self, weights: Dict[T, float],
                 rng: Optional[random.Random] = None) -> None:
        if not weights:
            raise ConfigurationError("CategoricalSampler needs at least one key")
        if any(w < 0 for w in weights.values()):
            raise ConfigurationError("weights must be non-negative")
        total = sum(weights.values())
        if total <= 0:
            raise ConfigurationError("at least one weight must be positive")
        self._keys: List[T] = list(weights.keys())
        self._cum = list(accumulate(weights[k] for k in self._keys))
        self._total = self._cum[-1]
        self._rng = rng or make_rng(None)

    def sample(self) -> T:
        u = self._rng.random() * self._total
        return self._keys[bisect_right(self._cum, u)]


def sample_without_replacement(rng: random.Random, population: Sequence[T],
                               k: int) -> List[T]:
    """Seeded sample of ``k`` distinct items (k clamped to len(population))."""
    k = min(k, len(population))
    return rng.sample(list(population), k)
