"""Resampling statistics and performance-regime classification.

Few-shot hardware runs are judged against two baselines built from large
pools of per-shot approximation ratios.  ``mean_of_means`` repeatedly
subsamples n_s values from a pool (without replacement by default) and
reports the grand mean and standard deviation of the subsample means,
i.e. the spread a fresh n_s-shot experiment would show.  The random
baseline plus three of its sigmas forms the threshold below which a run
is indistinguishable from uniform guessing; the noiseless grand mean
minus/plus three sigmas bounds where an ideal device would land.

The classifier compares the raw mean of the measured ratios against
those bounds: at or above the noiseless lower bound is noise-tolerant
(flagged when it even exceeds the upper bound), above the random
threshold is the transition regime, anything else is random.  Without a
noiseless pool only the last two verdicts are reachable and the report
says so.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, replace

import numpy as np

from .engine import ShotSet
from .errors import ValidationError
from .problem import _BLOCK_BITS, WmcInstance
from .rng import StreamFamily, derive_rng, derive_seed


@dataclass(frozen=True)
class ResampleConfig:
    subsample_size: int
    repeats: int = 100
    rng_seed: int = 0
    replacement: bool = False

    def __post_init__(self) -> None:
        if self.subsample_size < 1:
            raise ValidationError(f"subsample size must be positive, got {self.subsample_size}")
        if self.repeats < 1:
            raise ValidationError(f"repeat count must be positive, got {self.repeats}")


@dataclass(frozen=True)
class MeanOfMeans:
    grand_mean: float
    sigma: float
    subsample_means: np.ndarray


def mean_of_means(pool, cfg: ResampleConfig) -> MeanOfMeans:
    """Grand mean and sigma of repeated n_s-subsample means of the pool.

    Repeat i draws from stream i of the "resample" family
    (``StreamFamily``), so repeats could run in any order (or in parallel)
    without changing the outcome.  A pool with a value that is not finite
    is refused.
    """
    values = np.asarray(pool, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValidationError("empty pool")
    if not np.isfinite(values).all():
        raise ValidationError("pool holds a value that is not finite")
    if not cfg.replacement and values.size < cfg.subsample_size:
        raise ValidationError(
            f"pool of {values.size} too small for subsamples of "
            f"{cfg.subsample_size} without replacement"
        )
    means = np.empty(cfg.repeats)
    streams = StreamFamily(cfg.rng_seed, "resample")
    for i in range(cfg.repeats):
        idx = streams[i].choice(values.size, size=cfg.subsample_size, replace=cfg.replacement)
        means[i] = values[idx].mean()
    sigma = float(means.std(ddof=1)) if cfg.repeats > 1 else 0.0
    return MeanOfMeans(grand_mean=float(means.mean()), sigma=sigma, subsample_means=means)


def random_threshold(random_pool, cfg: ResampleConfig) -> float:
    """Upper edge of the random regime: grand mean plus three sigma."""
    mom = mean_of_means(random_pool, cfg)
    return mom.grand_mean + 3.0 * mom.sigma


class Regime(enum.Enum):
    NOISE_TOLERANT = "noise_tolerant"
    TRANSITION = "transition"
    RANDOM = "random"


@dataclass(frozen=True)
class RegimeReport:
    verdict: Regime
    qpu_mean_r: float
    qpu_shots: int
    random_grand_mean: float
    random_sigma: float
    random_threshold: float
    random_pool_size: int
    noiseless_grand_mean: float | None
    noiseless_sigma: float | None
    noiseless_lower: float | None
    noiseless_upper: float | None
    noiseless_pool_size: int | None
    above_ideal: bool
    noiseless_unavailable: bool
    subsample_size: int
    repeats: int
    rng_seed: int
    replacement: bool
    # the random pool's subsample means, for a density plot; not reported
    random_subsample_means: np.ndarray | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        out = {
            k: getattr(self, k) for k in self.__dataclass_fields__ if k != "random_subsample_means"
        }
        out["verdict"] = self.verdict.value
        return out


def classify(
    qpu_r_values,
    random_pool,
    cfg: ResampleConfig,
    noiseless_pool=None,
) -> RegimeReport:
    """Place the measured run in the noise-tolerant / transition / random regime.

    The measured side enters as its raw mean; only the baselines are
    resampled.  The two pools use sub-seeds derived from the config seed
    so their subsampling streams never collide.  A ratio that is not
    finite, measured or in a pool, is refused.
    """
    qpu = np.asarray(qpu_r_values, dtype=np.float64).ravel()
    if qpu.size == 0:
        raise ValidationError("no measured ratios to classify")
    if not np.isfinite(qpu).all():
        raise ValidationError("a measured ratio is not finite")
    qpu_mean = float(qpu.mean())

    rand_mom = mean_of_means(
        random_pool, replace(cfg, rng_seed=derive_seed(cfg.rng_seed, "classify", 0))
    )
    threshold = rand_mom.grand_mean + 3.0 * rand_mom.sigma

    nl_mom = None
    nl_lower = nl_upper = None
    if noiseless_pool is not None:
        nl_mom = mean_of_means(
            noiseless_pool, replace(cfg, rng_seed=derive_seed(cfg.rng_seed, "classify", 1))
        )
        nl_lower = nl_mom.grand_mean - 3.0 * nl_mom.sigma
        nl_upper = nl_mom.grand_mean + 3.0 * nl_mom.sigma

    above_ideal = False
    if nl_mom is not None and qpu_mean >= nl_lower:
        verdict = Regime.NOISE_TOLERANT
        above_ideal = qpu_mean > nl_upper
    elif qpu_mean > threshold:
        verdict = Regime.TRANSITION
    else:
        verdict = Regime.RANDOM

    return RegimeReport(
        verdict=verdict,
        qpu_mean_r=qpu_mean,
        qpu_shots=int(qpu.size),
        random_grand_mean=rand_mom.grand_mean,
        random_sigma=rand_mom.sigma,
        random_threshold=threshold,
        random_pool_size=int(np.asarray(random_pool).size),
        noiseless_grand_mean=None if nl_mom is None else nl_mom.grand_mean,
        noiseless_sigma=None if nl_mom is None else nl_mom.sigma,
        noiseless_lower=nl_lower,
        noiseless_upper=nl_upper,
        noiseless_pool_size=None if noiseless_pool is None else int(np.asarray(noiseless_pool).size),
        above_ideal=above_ideal,
        noiseless_unavailable=noiseless_pool is None,
        subsample_size=cfg.subsample_size,
        repeats=cfg.repeats,
        rng_seed=cfg.rng_seed,
        replacement=cfg.replacement,
        random_subsample_means=rand_mom.subsample_means,
    )


# ---------------------------------------------------------------------------
# presentation helpers


KDE_GRID_POINTS = 512
# ``kde_curve`` forms the kernel values of at most this many (grid point,
# value) pairs at a time, or of one grid row when a row alone holds more.
_KDE_BLOCK = 1 << 16


def _kde_rows(count: int) -> int:
    """Grid rows ``kde_curve`` takes at a time over ``count`` values."""
    return min(KDE_GRID_POINTS, max(1, _KDE_BLOCK // max(1, count)))


def silverman_bandwidth(values: np.ndarray) -> float:
    """Rule-of-thumb bandwidth 0.9 * min(std, IQR/1.34) * n^(-1/5)."""
    n = values.size
    std = float(values.std(ddof=1))
    q75, q25 = np.percentile(values, [75.0, 25.0])
    iqr = float(q75 - q25)
    scale = min(s for s in (std, iqr / 1.34) if s > 0.0) if max(std, iqr) > 0.0 else 0.0
    if scale <= 0.0:
        # degenerate sample (all values equal): any narrow kernel will do
        scale = max(1.0, abs(float(values[0]))) * 1e-9
    return 0.9 * scale * n ** (-0.2)


def kde_curve(
    values, bandwidth: float | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian kernel density on a 512-point grid spanning the data.

    Presentation-only: the grid runs from min - 3h to max + 3h.  Returns
    (grid, density).  The kernel values are formed for ``_kde_rows`` grid
    points at a time, and each point's sum is numpy's pairwise sum over its
    own row, so the bits do not depend on how many rows a block holds.
    Values or a bandwidth that are not finite are refused.
    """
    x = np.asarray(values, dtype=np.float64).ravel()
    if x.size < 2:
        raise ValidationError("density estimate needs at least two values")
    if not np.isfinite(x).all():
        raise ValidationError("density estimate of a value that is not finite")
    h = silverman_bandwidth(x) if bandwidth is None else float(bandwidth)
    if not 0.0 < h < np.inf:
        raise ValidationError(f"bandwidth must be positive and finite, got {h}")
    grid = np.linspace(x.min() - 3.0 * h, x.max() + 3.0 * h, KDE_GRID_POINTS)
    density = np.empty(KDE_GRID_POINTS)
    rows = _kde_rows(x.size)
    for lo in range(0, KDE_GRID_POINTS, rows):
        z = (grid[lo : lo + rows, None] - x[None, :]) / h
        density[lo : lo + rows] = np.exp(-0.5 * z * z).sum(axis=1)
        del z  # dropped before the next block is formed
    density /= x.size * h * np.sqrt(2.0 * np.pi)
    return grid, density


def _resample_bytes(num_vertices: int, pool_size: int, repeats: int, kde: bool) -> int:
    """Bytes ``classify`` holds at most for a uniform pool of ``pool_size``
    shots on ``num_vertices`` vertices, ``repeats`` subsamples of each
    pool, and with ``kde`` the density of the means.

    - A pool entry holds at most 64 bytes.  While its cut is evaluated
      that is its uint64 index, its float64 ratio and the temporaries of
      ``CutDiagonal.at`` (the blocks, ``np.unique``'s sort and inverse,
      the offsets and the running sum), 57 bytes traced at n = 6 to 24.
      Afterwards it is the ratio and the index range a subsample may draw
      from, 16 bytes.
    - Each distinct block the pool hits holds its ``block_terms`` rows and
      their temporaries in ``CutDiagonal.at``, 250 to 295 bytes traced at
      n = 30 to 64; 512 are counted for each of at most min(pool, 2^(n - 16)) blocks.
    - A repeat keeps a float64 mean for each of the two pools, and the
      density (``kde_curve``) holds three float64 arrays of a block of
      ``_kde_rows`` grid points per mean: at most 3 * 8 * 2^16 bytes, or
      24 per mean when a grid row alone is longer.
    """
    blocks = min(pool_size, 1 << max(0, num_vertices - _BLOCK_BITS))
    density = kde * 3 * 8 * _kde_rows(repeats) * repeats
    return 64 * pool_size + 512 * blocks + 16 * repeats + density


def uniform_sampler(inst: WmcInstance, n_shots: int, rng_seed: int) -> ShotSet:
    """Uniform random assignments, the model of a fully depolarized device."""
    if n_shots < 1:
        raise ValidationError(f"shot count must be positive, got {n_shots}")
    rng = derive_rng(rng_seed, "uniform", 0)
    indices = rng.integers(0, 1 << inst.num_vertices, size=n_shots, dtype=np.uint64)
    return ShotSet(
        num_qubits=inst.num_vertices,
        indices=indices,
        rng_seed=int(rng_seed),
        source="uniform",
    )
