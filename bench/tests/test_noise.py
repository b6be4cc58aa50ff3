"""The normalised estimator must sit still while the machine does not."""

import random
import statistics

import pytest

from noise import (
    REF_NOMINAL_S,
    ReferenceKernel,
    Sample,
    Timer,
    estimate,
    lower_quartile,
)

TRUE_OP_S = 0.4


def synthetic_run(rng: random.Random, slow_share: float, samples: int = 60
                  ) -> list:
    """A run on a machine that spends ``slow_share`` of its time in
    x1.4 slow phases lasting ~10 samples, with 3 % jitter on every
    measurement and occasional spikes on the operation only."""
    series = []
    slow = False
    for n in range(samples):
        if n % 10 == 0:
            slow = rng.random() < slow_share
        speed = 1.4 if slow else 1.0

        def jitter() -> float:
            return 1.0 + abs(rng.gauss(0.0, 0.03))

        wall = TRUE_OP_S * speed * jitter()
        if rng.random() < 0.1:
            wall *= 1.3  # a preemption that hit the operation only
        series.append(Sample("op", wall, wall,
                             REF_NOMINAL_S * speed * jitter(),
                             REF_NOMINAL_S * speed * jitter()))
    return series


def test_estimate_ignores_slow_phases_the_raw_median_follows():
    quiet = synthetic_run(random.Random(1), slow_share=0.0)
    noisy = synthetic_run(random.Random(2), slow_share=0.9)
    raw_quiet = statistics.median(s.wall_s for s in quiet)
    raw_noisy = statistics.median(s.wall_s for s in noisy)
    assert raw_noisy / raw_quiet > 1.15
    assert abs(estimate(noisy) / estimate(quiet) - 1.0) < 0.03


@pytest.mark.parametrize("slow_share", [0.2, 0.5, 0.8])
def test_estimate_is_steady_across_noise_levels(slow_share):
    baseline = estimate(synthetic_run(random.Random(3), 0.0))
    for seed in range(5):
        run = synthetic_run(random.Random(100 + seed), slow_share)
        assert abs(estimate(run) / baseline - 1.0) < 0.03


def test_kinds_are_never_pooled():
    cheap = [Sample("week1", 0.1, 0.1, REF_NOMINAL_S, REF_NOMINAL_S)] * 4
    dear = [Sample("week2", 0.3, 0.3, REF_NOMINAL_S, REF_NOMINAL_S)] * 4
    assert estimate(cheap + dear) == pytest.approx(0.2)


def test_a_blip_on_one_reference_run_does_not_speed_the_sample_up():
    clean = Sample("op", TRUE_OP_S, TRUE_OP_S, REF_NOMINAL_S, REF_NOMINAL_S)
    blip = Sample("op", TRUE_OP_S, TRUE_OP_S, REF_NOMINAL_S,
                  1.5 * REF_NOMINAL_S)
    assert blip.normalised_s == clean.normalised_s == pytest.approx(TRUE_OP_S)


def test_lower_quartile_of_one_sample_is_that_sample():
    assert lower_quartile([0.5]) == 0.5


def test_timer_brackets_each_sample_and_shares_reference_runs():
    kernel = ReferenceKernel()
    timer = Timer(kernel)
    assert timer.time("op", lambda: 41 + 1) == 42
    timer.time("op", lambda: None)
    first, second = timer.samples
    assert second.ref_before_s == first.ref_after_s
    timer.fence()
    timer.time("op", lambda: None)
    assert timer.samples[2].ref_before_s != second.ref_after_s
    assert all(s.ref_before_s > 0 and s.ref_after_s > 0
               for s in timer.samples)


def test_reference_kernel_is_in_the_nominal_ballpark():
    kernel = ReferenceKernel()
    best = min(kernel.run() for _ in range(5))
    assert REF_NOMINAL_S / 4 < best < REF_NOMINAL_S * 4
