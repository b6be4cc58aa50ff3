"""Unit tests for repro.statsutil.sampling."""

import pytest

from repro.errors import ConfigurationError
from repro.statsutil.sampling import (
    CategoricalSampler,
    ZipfSampler,
    make_rng,
    sample_without_replacement,
)


class TestMakeRng:
    def test_same_seed_same_stream(self):
        a, b = make_rng(42), make_rng(42)
        assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]

    def test_none_seed_is_deterministic(self):
        a, b = make_rng(None), make_rng(None)
        assert a.random() == b.random()

    def test_different_seeds_differ(self):
        assert make_rng(1).random() != make_rng(2).random()


class TestZipfSampler:
    def test_rejects_bad_n(self):
        with pytest.raises(ConfigurationError):
            ZipfSampler(0)

    def test_rejects_negative_exponent(self):
        with pytest.raises(ConfigurationError):
            ZipfSampler(10, exponent=-1)

    def test_samples_in_range(self):
        sampler = ZipfSampler(10, rng=make_rng(1))
        for _ in range(200):
            assert 0 <= sampler.sample() < 10

    def test_head_heavier_than_tail(self):
        sampler = ZipfSampler(100, exponent=1.2, rng=make_rng(7))
        draws = [sampler.sample() for _ in range(5000)]
        head = sum(1 for d in draws if d == 0)
        tail = sum(1 for d in draws if d == 99)
        assert head > tail

    def test_probability_sums_to_one(self):
        sampler = ZipfSampler(20, exponent=0.8)
        assert sum(sampler.probability(i) for i in range(20)) == pytest.approx(1.0)

    def test_probability_monotone_decreasing(self):
        sampler = ZipfSampler(10, exponent=1.0)
        probs = [sampler.probability(i) for i in range(10)]
        assert probs == sorted(probs, reverse=True)

    def test_probability_out_of_range(self):
        with pytest.raises(ConfigurationError):
            ZipfSampler(5).probability(5)

    def test_uniform_when_exponent_zero(self):
        sampler = ZipfSampler(4, exponent=0.0)
        for i in range(4):
            assert sampler.probability(i) == pytest.approx(0.25)


class TestCategoricalSampler:
    def test_rejects_empty(self):
        with pytest.raises(ConfigurationError):
            CategoricalSampler({})

    def test_rejects_negative_weight(self):
        with pytest.raises(ConfigurationError):
            CategoricalSampler({"a": -1.0})

    def test_rejects_all_zero(self):
        with pytest.raises(ConfigurationError):
            CategoricalSampler({"a": 0.0})

    def test_zero_weight_key_never_sampled(self):
        sampler = CategoricalSampler({"a": 1.0, "b": 0.0}, rng=make_rng(3))
        assert {sampler.sample() for _ in range(300)} == {"a"}

    def test_weights_respected_approximately(self):
        sampler = CategoricalSampler({"x": 9.0, "y": 1.0}, rng=make_rng(11))
        draws = [sampler.sample() for _ in range(4000)]
        share_x = draws.count("x") / len(draws)
        assert 0.85 < share_x < 0.95


class TestSampleWithoutReplacement:
    def test_distinct_items(self):
        out = sample_without_replacement(make_rng(5), list(range(20)), 10)
        assert len(out) == len(set(out)) == 10

    def test_k_clamped(self):
        out = sample_without_replacement(make_rng(5), [1, 2, 3], 10)
        assert sorted(out) == [1, 2, 3]
