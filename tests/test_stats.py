import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.stats import norm

from lrqbench import (
    Regime,
    ResampleConfig,
    ValidationError,
    classify,
    generate_instance,
    kde_curve,
    mean_of_means,
    random_threshold,
    shot_ratios,
    solve_instance,
    uniform_sampler,
)
from lrqbench.problem import OptimalCut, cut_value
from lrqbench.stats import KDE_GRID_POINTS, _resample_bytes, silverman_bandwidth


def test_config_validation():
    with pytest.raises(ValidationError):
        ResampleConfig(subsample_size=0)
    with pytest.raises(ValidationError):
        ResampleConfig(subsample_size=5, repeats=0)


def test_mean_of_means_deterministic():
    pool = np.random.default_rng(0).normal(0.8, 0.05, size=500)
    cfg = ResampleConfig(subsample_size=10, repeats=50, rng_seed=4)
    a = mean_of_means(pool, cfg)
    b = mean_of_means(pool, cfg)
    assert a.grand_mean == b.grand_mean
    assert a.sigma == b.sigma
    np.testing.assert_array_equal(a.subsample_means, b.subsample_means)
    assert a.subsample_means.shape == (50,)


def test_mean_of_means_guards():
    with pytest.raises(ValidationError):
        mean_of_means([], ResampleConfig(subsample_size=1))
    with pytest.raises(ValidationError):
        mean_of_means([1.0, 2.0], ResampleConfig(subsample_size=5))
    # with replacement a small pool is fine
    mom = mean_of_means([1.0, 2.0], ResampleConfig(subsample_size=5, replacement=True))
    assert 1.0 <= mom.grand_mean <= 2.0


def test_constant_pool_pins_threshold_to_pool_value():
    pool = np.full(100, 0.7)
    cfg = ResampleConfig(subsample_size=10)
    mom = mean_of_means(pool, cfg)
    assert mom.grand_mean == pytest.approx(0.7, abs=1e-12)
    assert mom.sigma < 1e-12
    assert random_threshold(pool, cfg) == pytest.approx(0.7, abs=1e-12)


def test_single_repeat_sigma_zero():
    pool = np.random.default_rng(1).random(100)
    mom = mean_of_means(pool, ResampleConfig(subsample_size=10, repeats=1))
    assert mom.sigma == 0.0


def test_sigma_shrinks_like_sqrt_subsample_size():
    pool = np.random.default_rng(2).random(10_000)
    cfg = lambda n_s: ResampleConfig(subsample_size=n_s, repeats=200, rng_seed=7)
    sig10 = mean_of_means(pool, cfg(10)).sigma
    sig100 = mean_of_means(pool, cfg(100)).sigma
    assert 2.5 <= sig10 / sig100 <= 4.5
    # sigma * sqrt(n_s) stays flat across two decades
    scaled = [
        mean_of_means(pool, cfg(n_s)).sigma * np.sqrt(n_s) for n_s in (5, 10, 50, 100)
    ]
    assert max(scaled) / min(scaled) < 1.2


def test_random_threshold_is_grand_mean_plus_three_sigma():
    pool = np.random.default_rng(3).random(2000)
    cfg = ResampleConfig(subsample_size=10, repeats=100, rng_seed=5)
    mom = mean_of_means(pool, cfg)
    assert random_threshold(pool, cfg) == pytest.approx(mom.grand_mean + 3.0 * mom.sigma)


def _pools(seed=0):
    rng = np.random.default_rng(seed)
    random_pool = rng.normal(0.80, 0.02, size=5000)
    noiseless_pool = rng.normal(0.88, 0.02, size=5000)
    return random_pool, noiseless_pool


def test_classify_noise_tolerant():
    random_pool, noiseless_pool = _pools()
    cfg = ResampleConfig(subsample_size=10, repeats=100, rng_seed=1)
    report = classify(np.full(10, 0.87), random_pool, cfg, noiseless_pool)
    assert report.verdict is Regime.NOISE_TOLERANT
    assert not report.above_ideal
    assert not report.noiseless_unavailable
    assert report.qpu_mean_r == pytest.approx(0.87)
    assert report.noiseless_lower < 0.87 < report.noiseless_upper


def test_classify_transition():
    random_pool, _ = _pools()
    rng = np.random.default_rng(9)
    tight_noiseless = rng.normal(0.88, 0.005, size=5000)
    cfg = ResampleConfig(subsample_size=10, repeats=100, rng_seed=1)
    report = classify(np.full(10, 0.84), random_pool, cfg, tight_noiseless)
    assert report.verdict is Regime.TRANSITION
    assert report.qpu_mean_r > report.random_threshold
    assert report.qpu_mean_r < report.noiseless_lower


def test_classify_random():
    random_pool, noiseless_pool = _pools()
    cfg = ResampleConfig(subsample_size=10, repeats=100, rng_seed=1)
    report = classify(np.full(10, 0.80), random_pool, cfg, noiseless_pool)
    assert report.verdict is Regime.RANDOM


def test_classify_above_ideal_flag():
    random_pool, noiseless_pool = _pools()
    cfg = ResampleConfig(subsample_size=10, repeats=100, rng_seed=1)
    report = classify(np.full(10, 0.95), random_pool, cfg, noiseless_pool)
    assert report.verdict is Regime.NOISE_TOLERANT
    assert report.above_ideal


def test_classify_without_noiseless_pool():
    random_pool, _ = _pools()
    cfg = ResampleConfig(subsample_size=10, repeats=100, rng_seed=1)
    report = classify(np.full(10, 0.95), random_pool, cfg)
    # without the ideal reference the best attainable verdict is transition
    assert report.verdict is Regime.TRANSITION
    assert report.noiseless_unavailable
    assert report.noiseless_grand_mean is None


def test_classify_monotone_in_qpu_mean():
    random_pool, noiseless_pool = _pools()
    cfg = ResampleConfig(subsample_size=10, repeats=100, rng_seed=1)
    order = {Regime.RANDOM: 0, Regime.TRANSITION: 1, Regime.NOISE_TOLERANT: 2}
    levels = [
        order[classify(np.full(10, m), random_pool, cfg, noiseless_pool).verdict]
        for m in (0.76, 0.80, 0.83, 0.86, 0.90, 0.95)
    ]
    assert levels == sorted(levels)
    assert levels[0] == 0 and levels[-1] == 2


def test_classify_rejects_empty_measurement():
    random_pool, _ = _pools()
    with pytest.raises(ValidationError):
        classify([], random_pool, ResampleConfig(subsample_size=10))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_classify_refuses_ratios_that_are_not_finite(bad):
    # NaN compared below every threshold and read RANDOM, inf read TRANSITION
    random_pool, noiseless_pool = _pools()
    cfg = ResampleConfig(subsample_size=10, repeats=20, rng_seed=1)
    with pytest.raises(ValidationError, match="not finite"):
        classify([bad], random_pool, cfg)
    with pytest.raises(ValidationError, match="not finite"):
        classify(np.r_[np.full(9, 0.85), bad], random_pool, cfg, noiseless_pool)
    # a value in a pool used to make the threshold NaN
    with pytest.raises(ValidationError, match="not finite"):
        classify(np.full(10, 0.85), np.r_[random_pool, bad], cfg, noiseless_pool)
    with pytest.raises(ValidationError, match="not finite"):
        classify(np.full(10, 0.85), random_pool, cfg, np.r_[noiseless_pool, bad])
    with pytest.raises(ValidationError, match="not finite"):
        mean_of_means(np.r_[random_pool, bad], cfg)


@pytest.mark.parametrize("values", [[1.0, np.inf], [np.nan, 1.0, 2.0], [-np.inf, 0.5]])
def test_kde_curve_refuses_values_that_are_not_finite(values):
    with pytest.raises(ValidationError, match="not finite"):
        kde_curve(values)


@pytest.mark.parametrize("bandwidth", [np.nan, np.inf, 0.0, -1.0])
def test_kde_curve_refuses_a_bandwidth_that_is_not_positive_and_finite(bandwidth):
    with pytest.raises(ValidationError, match="bandwidth"):
        kde_curve([0.1, 0.2, 0.4], bandwidth)


def test_report_to_dict_is_json_friendly():
    random_pool, noiseless_pool = _pools()
    cfg = ResampleConfig(subsample_size=10, repeats=100, rng_seed=1)
    report = classify(np.full(10, 0.87), random_pool, cfg, noiseless_pool)
    data = report.to_dict()
    assert data["verdict"] == "noise_tolerant"
    assert data["subsample_size"] == 10
    assert isinstance(data["random_threshold"], float)


def test_silverman_formula():
    x = np.random.default_rng(4).normal(size=400)
    want = 0.9 * min(x.std(ddof=1), (np.percentile(x, 75) - np.percentile(x, 25)) / 1.34)
    want *= 400 ** (-0.2)
    assert silverman_bandwidth(x) == pytest.approx(want)


def test_silverman_degenerate_sample():
    h = silverman_bandwidth(np.full(50, 3.25))
    assert h > 0.0
    assert h < 1e-6


def test_kde_normalized_on_documented_grid():
    x = np.random.default_rng(5).normal(0.5, 0.1, size=300)
    grid, density = kde_curve(x)
    assert grid.shape == (KDE_GRID_POINTS,)
    h = silverman_bandwidth(x)
    assert grid[0] == pytest.approx(x.min() - 3.0 * h)
    assert grid[-1] == pytest.approx(x.max() + 3.0 * h)
    assert np.trapezoid(density, grid) == pytest.approx(1.0, abs=1e-3)


def test_kde_matches_gaussian_mixture():
    x = np.array([0.1, 0.4, 0.45, 0.9])
    h = 0.07
    grid, density = kde_curve(x, bandwidth=h)
    want = np.zeros_like(grid)
    for xi in x:
        want += norm.pdf(grid, loc=xi, scale=h)
    want /= x.size
    np.testing.assert_allclose(density, want, atol=1e-12)


@pytest.mark.parametrize("count", [2, 100, 129, 1000, 70_000])
def test_kde_blocks_of_grid_rows_keep_the_whole_matrix_bits(count):
    # one block (count <= 128), several, and one grid row per block
    x = np.random.default_rng(count).normal(0.7, 0.01, size=count)
    h = silverman_bandwidth(x)
    grid, density = kde_curve(x)
    z = (grid[:, None] - x[None, :]) / h
    want = np.exp(-0.5 * z * z).sum(axis=1) / (x.size * h * np.sqrt(2.0 * np.pi))
    assert density.tobytes() == want.tobytes()


@pytest.mark.parametrize("count", [1000, 100_000])
def test_kde_peak_stays_within_its_block_bound(count):
    x = np.random.default_rng(2).normal(0.7, 0.01, size=count)
    tracemalloc.start()
    try:
        kde_curve(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # within the bound for as many repeats, and far below the whole matrix
    assert peak <= _resample_bytes(6, 0, count, kde=True)
    assert peak < 8 * KDE_GRID_POINTS * count // 2


def test_kde_needs_two_points():
    with pytest.raises(ValidationError):
        kde_curve([0.5])
    with pytest.raises(ValidationError):
        kde_curve([0.1, 0.2], bandwidth=0.0)


def test_uniform_sampler_deterministic_and_in_range():
    inst = solve_instance(generate_instance(6, 3))
    a = uniform_sampler(inst, 100, rng_seed=2)
    b = uniform_sampler(inst, 100, rng_seed=2)
    np.testing.assert_array_equal(a.indices, b.indices)
    assert a.source == "uniform"
    assert np.all(a.indices < 64)
    with pytest.raises(ValidationError):
        uniform_sampler(inst, 0, rng_seed=2)


def test_uniform_sampler_mean_near_baseline():
    from lrqbench import random_baseline_expectation

    inst = solve_instance(generate_instance(6, 3))
    ratios = shot_ratios(inst, uniform_sampler(inst, 4000, rng_seed=11))
    sem = ratios.std(ddof=1) / np.sqrt(ratios.size)
    assert abs(ratios.mean() - random_baseline_expectation(inst)) < 5.0 * sem


@pytest.mark.parametrize(
    "n,pool,repeats",
    [(6, 40_000, 300), (20, 40_000, 300), (24, 20_000, 100), (40, 2_000, 100)],
)
def test_classify_peak_stays_within_the_resample_bound(n, pool, repeats):
    # one block (n <= 16), a few, and one per entry; above n = 24 the
    # optimum is any cut, consistent with its bitstring
    inst = generate_instance(n, n)
    bits = "01" * (n // 2)
    inst = solve_instance(inst) if n <= 24 else dataclasses.replace(
        inst, optimal_cut=OptimalCut(bits, cut_value(inst, bits))
    )
    qpu = shot_ratios(inst, uniform_sampler(inst, 50, 1))

    def classify_run():
        pool_r = shot_ratios(inst, uniform_sampler(inst, pool, 0))
        report = classify(qpu, pool_r, ResampleConfig(pool // 10, repeats), pool_r)
        kde_curve(report.random_subsample_means)

    tracemalloc.start()
    try:
        classify_run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    bound = _resample_bytes(n, pool, repeats, kde=True)
    assert 0.5 * bound < peak <= bound
