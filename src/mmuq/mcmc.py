"""Affine-invariant ensemble sampler (stretch move, two half-ensembles).

Produces posterior parameter samples for one model family, one dataset and
one parameter prior.  The walker ensemble is split in halves; each half is
updated in one vectorized move conditioned on the other half, which keeps
the per-step cost at two batched posterior evaluations.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import Dataset, ModelFamily, log_likelihood_batch

__all__ = [
    "EnsembleConfig",
    "PosteriorChain",
    "STRETCH_A",
    "InitializationError",
    "DegenerateChainError",
    "draw_stretch_factors",
    "run_ensemble_sampler",
    "sample_posterior",
    "effective_sample_size",
]

logger = logging.getLogger(__name__)

_INIT_RETRIES = 100

# Stretch-factor range [1/a, a]: the value Goodman & Weare (2010) recommend.
STRETCH_A = 2.0


class InitializationError(RuntimeError):
    """No finite-posterior starting point could be found."""


class DegenerateChainError(RuntimeError):
    """The chain never accepted a proposal."""


@dataclass(frozen=True)
class EnsembleConfig:
    """Tuning for one ensemble run.

    Walkers must number at least twice the parameter dimension and be even
    so the ensemble splits into two halves.
    """

    n_walkers: int = 32
    n_steps: int = 2000
    burn_in: int = 500

    def __post_init__(self) -> None:
        if self.n_walkers < 4 or self.n_walkers % 2:
            raise ValueError("n_walkers must be even and >= 4")
        if not 0 < self.burn_in < self.n_steps:
            raise ValueError("need 0 < burn_in < n_steps")


@dataclass
class PosteriorChain:
    """Post burn-in samples for one model, flattened across walkers."""

    samples: np.ndarray  # (n_samples, ndim)
    acceptance_rate: float

    def __post_init__(self) -> None:
        if self.samples.ndim != 2 or self.samples.shape[0] == 0:
            raise ValueError("chain must hold at least one sample row")


def draw_stretch_factors(rng: np.random.Generator, size: int) -> np.ndarray:
    """Stretch factors z with density proportional to 1/sqrt(z) on [1/a, a],
    a = ``STRETCH_A``, drawn by inverse CDF: z = ((a - 1) u + 1)^2 / a."""
    u = rng.random(size)
    return ((STRETCH_A - 1.0) * u + 1.0) ** 2 / STRETCH_A


def run_ensemble_sampler(
    log_prob: Callable[[np.ndarray], np.ndarray],
    initial: np.ndarray,
    cfg: EnsembleConfig,
    rng: np.random.Generator,
) -> tuple[np.ndarray, float]:
    """Advance the walker ensemble ``cfg.n_steps`` times.

    ``log_prob`` maps a (m, ndim) batch to (m,) log densities (-inf allowed).
    Returns the full chain (n_steps, n_walkers, ndim) and the acceptance rate.
    """
    walkers = np.array(initial, dtype=float)
    n_walkers, ndim = walkers.shape
    if n_walkers != cfg.n_walkers:
        raise ValueError("initial ensemble size disagrees with cfg.n_walkers")
    if n_walkers < 2 * ndim:
        raise ValueError("need n_walkers >= 2 * ndim")
    logp = log_prob(walkers)
    if not np.all(np.isfinite(logp)):
        raise InitializationError("initial ensemble contains non-finite posteriors")

    half = n_walkers // 2
    # (active walkers, their log densities, offset of the other half): the
    # halves are views, so accepted proposals land in ``walkers`` directly
    halves = (
        (walkers[:half], logp[:half], half),
        (walkers[half:], logp[half:], 0),
    )
    chain = np.empty((cfg.n_steps, n_walkers, ndim))
    accepted = 0

    for step in range(cfg.n_steps):
        for active, active_logp, offset in halves:
            partners = walkers[rng.integers(0, half, size=half) + offset]
            z = draw_stretch_factors(rng, half)
            proposal = active - partners
            proposal *= z[:, None]
            proposal += partners
            logp_prop = log_prob(proposal)
            log_accept = (ndim - 1.0) * np.log(z) + logp_prop - active_logp
            take = np.log(rng.random(half)) < log_accept
            active[take] = proposal[take]
            active_logp[take] = logp_prop[take]
            accepted += int(np.count_nonzero(take))
        chain[step] = walkers

    return chain, accepted / (cfg.n_steps * n_walkers)


def sample_posterior(
    family: ModelFamily,
    data: Dataset,
    prior,
    cfg: EnsembleConfig,
    rng: np.random.Generator,
) -> PosteriorChain:
    """Sample p(theta | data, family) proportional to likelihood times prior.

    Walkers start from prior draws with finite posterior (up to 100 retries
    per walker).  Raises :class:`InitializationError` if the prior and data
    are incompatible and :class:`DegenerateChainError` if nothing is ever
    accepted.
    """

    def log_post(thetas: np.ndarray) -> np.ndarray:
        lp = prior.log_density_batch(thetas)
        live = lp > -np.inf
        if live.all():
            return lp + log_likelihood_batch(family, thetas, data)
        out = np.full(thetas.shape[0], -np.inf)
        if live.any():
            out[live] = lp[live] + log_likelihood_batch(family, thetas[live], data)
        return out

    initial = np.empty((cfg.n_walkers, 2))
    filled = 0
    for _ in range(_INIT_RETRIES):
        draw = prior.sample(rng, cfg.n_walkers - filled)
        good = draw[np.isfinite(log_post(draw))]
        take = min(good.shape[0], cfg.n_walkers - filled)
        initial[filled : filled + take] = good[:take]
        filled += take
        if filled == cfg.n_walkers:
            break
    if filled < cfg.n_walkers:
        raise InitializationError(
            f"could not initialize walkers for {family} under prior {prior!r}: "
            f"no finite posterior found in {_INIT_RETRIES} rounds of prior draws"
        )

    chain, rate = run_ensemble_sampler(log_post, initial, cfg, rng)
    if rate == 0.0:
        raise DegenerateChainError(
            f"ensemble for {family} rejected every proposal; "
            "posterior is likely degenerate"
        )
    if not 0.05 < rate < 0.95:
        logger.warning("acceptance rate %.3f outside (0.05, 0.95) for %s", rate, family)
    flat = chain[cfg.burn_in :].reshape(-1, 2)
    return PosteriorChain(samples=flat, acceptance_rate=rate)


def effective_sample_size(x: np.ndarray) -> float:
    """ESS of a 1-D series from its integrated autocorrelation time
    (initial positive sequence estimator, lags up to min(n - 2, 1000))."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 4:
        return float(n)
    xc = x - x.mean()
    var = np.dot(xc, xc) / n
    if var == 0.0:
        return float(n)
    tau = 1.0
    for lag in range(1, min(n - 2, 1000) + 1):
        rho = np.dot(xc[:-lag], xc[lag:]) / ((n - lag) * var)
        if rho <= 0.0:
            break
        tau += 2.0 * rho
    return float(n / tau)
