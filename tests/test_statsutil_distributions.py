"""Unit tests for repro.statsutil.distributions."""


import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.statsutil.distributions import EmpiricalDistribution, histogram_density


class TestEmpiricalDistributionBasics:
    def test_empty_distribution_has_zero_moments(self):
        dist = EmpiricalDistribution()
        assert len(dist) == 0
        assert not dist
        assert dist.mean == 0.0
        assert dist.median == 0.0
        assert dist.std == 0.0

    def test_mean_of_known_values(self):
        dist = EmpiricalDistribution([1, 2, 3, 4])
        assert dist.mean == 2.5

    def test_median_odd_count(self):
        dist = EmpiricalDistribution([5, 1, 3])
        assert dist.median == 3

    def test_median_even_count(self):
        dist = EmpiricalDistribution([1, 2, 3, 4])
        assert dist.median == 2.5

    def test_std_population_definition(self):
        dist = EmpiricalDistribution([2, 4, 4, 4, 5, 5, 7, 9])
        assert dist.std == pytest.approx(2.0)

    def test_add_and_extend(self):
        dist = EmpiricalDistribution()
        dist.add(1)
        dist.extend([2, 3])
        assert dist.values == (1.0, 2.0, 3.0)

    def test_min_max(self):
        dist = EmpiricalDistribution([3, 1, 4, 1, 5])
        assert dist.min == 1
        assert dist.max == 5

    def test_min_max_empty(self):
        dist = EmpiricalDistribution()
        assert dist.min == 0.0
        assert dist.max == 0.0


class TestQuantile:
    def test_quantile_endpoints(self):
        dist = EmpiricalDistribution([10, 20, 30])
        assert dist.quantile(0.0) == 10
        assert dist.quantile(1.0) == 30

    def test_quantile_interpolates(self):
        dist = EmpiricalDistribution([0, 10])
        assert dist.quantile(0.5) == pytest.approx(5.0)

    def test_quantile_single_value(self):
        dist = EmpiricalDistribution([7])
        assert dist.quantile(0.3) == 7

    def test_quantile_rejects_out_of_range(self):
        dist = EmpiricalDistribution([1])
        with pytest.raises(ConfigurationError):
            dist.quantile(1.5)

    def test_quantile_empty(self):
        assert EmpiricalDistribution().quantile(0.5) == 0.0


class TestHistogramDensity:
    def test_density_sums_to_one(self):
        density = histogram_density([1, 2, 2, 3, 9], bins=4)
        assert sum(density.values()) == pytest.approx(1.0)

    def test_constant_input_single_bin(self):
        density = histogram_density([4, 4, 4], bins=5)
        assert density == {4.0: 1.0}

    def test_empty_input(self):
        assert histogram_density([], bins=3) == {}

    def test_rejects_nonpositive_bins(self):
        with pytest.raises(ConfigurationError):
            histogram_density([1, 2], bins=0)

    def test_distribution_values_peak_at_their_mode(self):
        dist = EmpiricalDistribution([1, 1, 2, 3, 3, 3])
        density = histogram_density(dist.values, bins=3)
        assert sum(density.values()) == pytest.approx(1.0)
        # The 3-heavy bin carries the most mass.
        assert max(density, key=density.get) > 2.0

    def test_max_value_lands_in_last_bin(self):
        density = histogram_density([0.0, 1.0], bins=2)
        assert sum(density.values()) == pytest.approx(1.0)
        assert len(density) == 2


class TestTotalVariation:
    def test_identical_distributions(self):
        a = EmpiricalDistribution([1, 2, 3])
        b = EmpiricalDistribution([1, 2, 3])
        assert a.total_variation_distance(b) == pytest.approx(0.0)

    def test_disjoint_distributions(self):
        a = EmpiricalDistribution([0, 0, 0])
        b = EmpiricalDistribution([100, 100])
        assert a.total_variation_distance(b) == pytest.approx(1.0)

    def test_both_empty(self):
        assert (EmpiricalDistribution().total_variation_distance(
            EmpiricalDistribution()) == 0.0)

    def test_symmetry(self):
        a = EmpiricalDistribution([1, 2, 2, 5])
        b = EmpiricalDistribution([1, 3, 4])
        assert a.total_variation_distance(b) == pytest.approx(
            b.total_variation_distance(a))


class TestDistributionProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1))
    def test_mean_between_min_and_max(self, values):
        dist = EmpiricalDistribution(values)
        assert dist.min - 1e-9 <= dist.mean <= dist.max + 1e-9

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1))
    def test_median_between_min_and_max(self, values):
        dist = EmpiricalDistribution(values)
        assert dist.min <= dist.median <= dist.max

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1),
           st.floats(min_value=0, max_value=1))
    def test_quantile_monotone_bounds(self, values, q):
        dist = EmpiricalDistribution(values)
        assert dist.min - 1e-9 <= dist.quantile(q) <= dist.max + 1e-9

    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=1,
                    max_size=100))
    def test_tv_distance_in_unit_interval(self, values):
        a = EmpiricalDistribution(values)
        b = EmpiricalDistribution(values[::-1])
        d = a.total_variation_distance(b)
        assert 0.0 <= d <= 1.0 + 1e-9
