"""Parameter priors: bounded uniform boxes and data-driven kernel densities.

Noninformative priors are proper uniform boxes whose bounds come from a
physical envelope on yield strength (mean 20..60 ksi, COV 0.01..0.35)
mapped through each family's moment relations.  Informative priors are
built in three stages: a flat pre-prior, an MCMC posterior on a historical
dataset, and a product-Gaussian kernel density estimate of that posterior
with AMISE-optimal bandwidths.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .distributions import (
    _blocks,
    _LOG_2PI,
    _matmul,
    _param_rows,
    Dataset,
    ModelFamily,
    PARAM_DIM,
    params_from_moments,
    sample as dist_sample,
)
from .mcmc import EnsembleConfig, sample_posterior
from .seeding import rng_for

__all__ = [
    "UniformBoxPrior",
    "KdePrior",
    "DegenerateDataError",
    "ENVELOPE_MEAN",
    "ENVELOPE_COV",
    "default_uniform_prior",
    "kde_bandwidths",
    "build_informative_prior",
    "HISTORICAL_SOURCES",
    "HISTORICAL_SEED",
    "historical_dataset",
]


# Yield-strength envelope (ksi) that the noninformative boxes must cover.
ENVELOPE_MEAN = (20.0, 60.0)
ENVELOPE_COV = (0.01, 0.35)


class DegenerateDataError(ValueError):
    """Sample set carries no spread in some dimension."""


@dataclass(frozen=True)
class UniformBoxPrior:
    """Proper uniform density over an axis-aligned box."""

    lo: np.ndarray
    hi: np.ndarray
    # -log volume: the density at every point inside the box
    _log_density: float = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", np.asarray(self.lo, dtype=float))
        object.__setattr__(self, "hi", np.asarray(self.hi, dtype=float))
        if self.lo.shape != (PARAM_DIM,) or self.hi.shape != (PARAM_DIM,):
            raise ValueError("bounds must be length-2 vectors")
        if not (np.all(np.isfinite(self.lo)) and np.all(np.isfinite(self.hi))):
            raise ValueError("bounds must be finite (prior must be proper)")
        if not np.all(self.lo < self.hi):
            raise ValueError("need lo < hi componentwise")
        object.__setattr__(self, "_log_density", -float(np.sum(np.log(self.hi - self.lo))))

    def log_density_batch(self, thetas: np.ndarray) -> np.ndarray:
        thetas = _param_rows(thetas)
        inside = ((thetas >= self.lo) & (thetas <= self.hi)).all(axis=1)
        return np.where(inside, self._log_density, -np.inf)

    def sample(self, rng: np.random.Generator, count: int = 1) -> np.ndarray:
        if count < 1:
            raise ValueError("count must be >= 1")
        return rng.uniform(self.lo, self.hi, size=(count, PARAM_DIM))


@dataclass(frozen=True)
class KdePrior:
    """Product-Gaussian kernel mixture over posterior support samples.

    Density is the mean over support samples of per-dimension Gaussian
    kernels; sampling picks a support sample uniformly and adds independent
    Gaussian noise with the bandwidth as standard deviation.  Tails are
    Gaussian, so the density is positive everywhere, including outside the
    physical parameter domain (such draws are killed downstream by a -inf
    likelihood).
    """

    support_samples: np.ndarray
    bandwidths: np.ndarray
    _log_norm: float = field(init=False, repr=False)
    # Mean of the bandwidth-scaled support, subtracted from support and
    # query points alike so the expanded square below cancels little.
    _centre: np.ndarray = field(init=False, repr=False)
    # (3, n) matrix [s0; s1; -|s|^2 / 2] of the centred, bandwidth-scaled
    # support s: [t0, t1, 1] times it is t.s - |s|^2 / 2 for every kernel.
    _kernel_terms: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        # a copy: a strided view of a chain would keep the whole chain alive
        samples = np.atleast_2d(np.array(self.support_samples, dtype=float))
        bw = np.asarray(self.bandwidths, dtype=float)
        if samples.ndim != 2 or samples.shape[1] != PARAM_DIM or bw.shape != (PARAM_DIM,):
            raise ValueError("need (n, 2) support samples and 2 bandwidths")
        if samples.shape[0] == 0:
            raise ValueError("support must hold at least one sample")
        if not np.all(np.isfinite(samples)):
            raise ValueError("support samples must be finite")
        if not np.all((bw > 0.0) & np.isfinite(bw)):
            raise ValueError("bandwidths must be finite and strictly positive")
        object.__setattr__(self, "support_samples", samples)
        object.__setattr__(self, "bandwidths", bw)
        ln = np.log(samples.shape[0]) + np.sum(np.log(bw)) + PARAM_DIM / 2.0 * _LOG_2PI
        object.__setattr__(self, "_log_norm", float(ln))
        scaled = samples / bw
        centre = scaled.mean(axis=0)
        scaled -= centre
        terms = np.empty((PARAM_DIM + 1, samples.shape[0]))
        terms[:PARAM_DIM] = scaled.T
        terms[PARAM_DIM] = -0.5 * np.sum(scaled * scaled, axis=1)
        object.__setattr__(self, "_centre", centre)
        object.__setattr__(self, "_kernel_terms", terms)

    @property
    def n_components(self) -> int:
        return int(self.support_samples.shape[0])

    def log_density_batch(self, thetas: np.ndarray) -> np.ndarray:
        """Log density at each row of ``thetas`` (shape (rows, 2)).

        An exact log-sum-exp over all kernels, shifted by each row's peak
        exponent so a point far from every kernel stays finite.  With t and
        s the centred, bandwidth-scaled point and support, each kernel's
        exponent -|t - s|^2 / 2 is expanded as t.s - |s|^2 / 2 - |t|^2 / 2:
        one GEMM [t0, t1, 1] . ``_kernel_terms`` per block of rows
        (``_matmul``), with the per-row |t|^2 / 2 subtracted after the sum.
        Cost is O(rows x kernels) ``exp`` calls.  Rows go through in blocks
        (``_blocks``), so memory is bounded by one (block x kernels) float64
        block, whatever the row count.  A row's value depends only on that
        row, never on the other rows of the call.

        The expansion rounds differently from the direct square, by at most
        eps (1 + |t|^2 / 2 + max |s|^2 / 2): 2e-14 absolute on n=1000 chain
        rows under the seven ABS-B priors, 6e-16 relative on rows far from
        every kernel.  On those priors (4800 kernels) a 16-row call, one
        half-move's, takes about 175 us (shared 2-core x86-64 host,
        OpenBLAS).
        """
        thetas = _param_rows(thetas)
        rows = thetas.shape[0]
        feats = np.ones((rows, PARAM_DIM + 1))
        t = feats[:, :PARAM_DIM]
        np.divide(thetas, self.bandwidths, out=t)
        t -= self._centre
        out = np.empty(rows)
        for block in _blocks(rows, self.n_components):
            expo = _matmul(feats[block], self._kernel_terms)
            peak = np.max(expo, axis=1)
            expo -= peak[:, None]
            np.exp(expo, out=expo)
            out[block] = peak + np.log(np.sum(expo, axis=1))
        out -= 0.5 * np.sum(t * t, axis=1) + self._log_norm
        return out

    def sample(self, rng: np.random.Generator, count: int = 1) -> np.ndarray:
        if count < 1:
            raise ValueError("count must be >= 1")
        idx = rng.integers(0, self.n_components, size=count)
        noise = rng.standard_normal((count, PARAM_DIM)) * self.bandwidths
        return self.support_samples[idx] + noise


def default_uniform_prior(family: ModelFamily) -> UniformBoxPrior:
    """Noninformative box for a family, spanning the parameter values of all
    distributions with mean in ENVELOPE_MEAN and COV in ENVELOPE_COV."""
    corners = np.array(
        [
            params_from_moments(family, mean, cov)
            for mean, cov in itertools.product(ENVELOPE_MEAN, ENVELOPE_COV)
        ]
    )
    return UniformBoxPrior(lo=corners.min(axis=0), hi=corners.max(axis=0))


def kde_bandwidths(samples: np.ndarray) -> np.ndarray:
    """AMISE-optimal per-dimension bandwidths for a Gaussian product kernel:
    w_i = [4 / (K + 2)]^{1/(K+4)} n^{-1/(K+4)} sigma_i."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    n, k = samples.shape
    if n < 2:
        raise ValueError("need at least 2 samples for a bandwidth")
    sigma = np.std(samples, axis=0, ddof=1)
    if np.any(sigma <= 0.0):
        raise DegenerateDataError("zero-variance dimension; prior would be degenerate")
    return (4.0 / (k + 2.0)) ** (1.0 / (k + 4.0)) * n ** (-1.0 / (k + 4.0)) * sigma


def build_informative_prior(
    family: ModelFamily,
    historical: Dataset,
    cfg: EnsembleConfig,
    rng: np.random.Generator,
    max_components: int,
) -> KdePrior:
    """Data-driven prior: flat pre-prior -> posterior on historical data ->
    KDE of the posterior chain with AMISE bandwidths.

    ``max_components`` (at least 2) caps the kernel count by deterministic
    striding of the chain; density cost per posterior evaluation is linear
    in the kernel count.
    """
    if max_components < 2:
        raise ValueError(f"max_components must be >= 2, got {max_components}")
    if np.std(historical.values) == 0.0:
        raise DegenerateDataError(
            f"historical dataset {historical.label!r} has zero variance"
        )
    chain = sample_posterior(family, historical, default_uniform_prior(family), cfg, rng)
    support = chain.samples
    if support.shape[0] > max_components:
        stride = int(np.ceil(support.shape[0] / max_components))
        support = support[::stride]
    # the bandwidths come from the strided view; KdePrior keeps a copy
    return KdePrior(support_samples=support, bandwidths=kde_bandwidths(support))


# ---------------------------------------------------------------------------
# historical material data (regenerated synthetically from published
# summary statistics; raw test values were never published)


@dataclass(frozen=True)
class HistoricalSource:
    mean: float
    cov: float
    family: ModelFamily
    n_tests: int


HISTORICAL_SOURCES: dict[str, HistoricalSource] = {
    "ABS-A": HistoricalSource(36.091, 0.059, ModelFamily.LOGNORMAL, 33),
    "ABS-B": HistoricalSource(34.782, 0.116, ModelFamily.LOGNORMAL, 79),
    "ABS-C": HistoricalSource(33.831, 0.081, ModelFamily.LOGNORMAL, 13),
    "ASTM-A7": HistoricalSource(38.197, 0.108, ModelFamily.NORMAL, 58),
}

# Fixed so the regenerated reference datasets are stable across runs and
# machines (the source test programs date to 1948).
HISTORICAL_SEED = 1948


def historical_dataset(name: str) -> Dataset:
    """Regenerate the named historical yield-strength dataset.

    Draws from the published distribution shape, then standardizes the
    sample affinely so its mean and coefficient of variation equal the
    published summary statistics exactly; only those summaries (not the raw
    1948-1962 test values) were ever published, so they are the contract
    the regenerated set must honor.
    """
    try:
        src = HISTORICAL_SOURCES[name]
    except KeyError:
        raise KeyError(
            f"unknown historical dataset {name!r}; "
            f"choose from {sorted(HISTORICAL_SOURCES)}"
        ) from None
    theta = params_from_moments(src.family, src.mean, src.cov)
    rng = rng_for(HISTORICAL_SEED, "historical", name)
    values = dist_sample(src.family, theta, rng, src.n_tests)
    values = src.mean + (values - values.mean()) * (
        src.mean * src.cov / values.std(ddof=1)
    )
    return Dataset(values, label=name)
