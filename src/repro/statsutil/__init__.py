"""Shared statistics helpers: empirical distributions and seeded sampling."""

from repro.statsutil.distributions import EmpiricalDistribution, histogram_density
from repro.statsutil.sampling import ZipfSampler, CategoricalSampler, make_rng

__all__ = [
    "EmpiricalDistribution",
    "histogram_density",
    "ZipfSampler",
    "CategoricalSampler",
    "make_rng",
]
