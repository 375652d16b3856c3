"""Plate buckling strength: the buckling response psi(sigma0), synthetic
data, and quadrature and semi-analytic oracles for its statistics.

The response of interest is the normalized buckling strength of a simply
supported rectangular plate under uniaxial compression.  Only the yield
strength is treated as random; the remaining plate variables are held at
their mean values.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import (
    Dataset,
    ModelFamily,
    cdf as dist_cdf,
    log_pdf as dist_log_pdf,
    moments as dist_moments,
    params_from_moments,
    sample as dist_sample,
)
from .seeding import rng_for

__all__ = [
    "PlateConfig",
    "TrueModelSpec",
    "NOMINAL_PLATE",
    "MEAN_PLATE",
    "TRUE_MODEL",
    "FAILURE_THRESHOLD",
    "buckling_response",
    "generate_data",
    "response_moments",
    "pf_semianalytic",
]

FAILURE_THRESHOLD = 0.6


@dataclass(frozen=True)
class PlateConfig:
    """Plate geometry, material and imperfection variables.

    b: width (in), t: thickness (in), sigma0: yield strength (ksi),
    E: elastic modulus (ksi), delta0: non-dimensional initial deflection,
    eta: residual-stress zone parameter.
    """

    b: float = 36.0
    t: float = 0.75
    sigma0: float = 34.0
    E: float = 29_000.0
    delta0: float = 0.35
    eta: float = 5.25

    def __post_init__(self) -> None:
        for name in ("b", "t", "sigma0", "E", "delta0", "eta"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        if self.b <= self.t:
            raise ValueError("plate width must exceed thickness")


NOMINAL_PLATE = PlateConfig()

# Variable means: measured bias factors applied to the nominal values.
MEAN_PLATE = PlateConfig(
    b=0.992 * 36.0,
    t=1.05 * 0.75,
    sigma0=1.023 * 34.0,
    E=0.987 * 29_000.0,
    delta0=0.35,
    eta=5.25,
)


@dataclass(frozen=True)
class TrueModelSpec:
    """Generator of the synthetic yield-strength data (ABS-B material):
    ``family`` with the parameters that match ``mean`` and ``cov``."""

    family: ModelFamily = ModelFamily.LOGNORMAL
    mean: float = 34.782
    cov: float = 0.116

    @property
    def theta(self) -> np.ndarray:
        return params_from_moments(self.family, self.mean, self.cov)


TRUE_MODEL = TrueModelSpec()


def buckling_response(base: PlateConfig = MEAN_PLATE) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized normalized buckling strength with residual stress and
    initial deflection, (2.1/lam - 0.9/lam^2)(1 - 0.75 delta0/lam)(1 - 2 eta t/b)
    with slenderness lam = (b/t) sqrt(sigma0 / E), as a function of sigma0
    with the other plate variables frozen at ``base``'s values.

    May go negative for extreme inputs; values flow through statistics
    unchanged.
    """
    ratio = base.b / base.t
    fixed3 = 1.0 - 2.0 * base.eta * base.t / base.b

    def g(sigma0: np.ndarray) -> np.ndarray:
        lam = ratio * np.sqrt(np.asarray(sigma0, dtype=float) / base.E)
        return (2.1 / lam - 0.9 / lam**2) * (1.0 - 0.75 * base.delta0 / lam) * fixed3

    return g


def generate_data(spec: TrueModelSpec, n: int, seed: int) -> Dataset:
    """Draw ``n`` synthetic yield strengths from the true model.

    For a fixed seed the draws form one stream, so the size-n dataset is a
    prefix of any larger dataset (mirrors data arriving over time).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    values = dist_sample(spec.family, spec.theta, rng_for(seed, "yield-data"), n)
    return Dataset(values, label=f"synthetic-n{n}")


def response_moments(
    family: ModelFamily, theta, base: PlateConfig = MEAN_PLATE
) -> tuple[float, float]:
    """Quadrature mean and variance of psi(sigma0) under one yield-strength
    model (trapezoid rule on 200,001 points over +-12 sd); independent of
    the sampling-based propagation path."""
    mean_s, sd_s = dist_moments(family, theta)
    lo = max(mean_s - 12.0 * sd_s, 1e-6)
    hi = mean_s + 12.0 * sd_s
    grid = np.linspace(lo, hi, 200_001)
    density = np.exp(dist_log_pdf(family, theta, grid))
    gv = buckling_response(base)(grid)
    m1 = float(np.trapezoid(gv * density, grid))
    m2 = float(np.trapezoid(gv * gv * density, grid))
    return m1, m2 - m1 * m1


def pf_semianalytic(
    family: ModelFamily, theta, threshold: float, base: PlateConfig = MEAN_PLATE
) -> float:
    """Failure probability P(psi < threshold) for one yield-strength model,
    by root finding on psi(sigma0) (bisection to 1e-10 ksi) and one CDF
    evaluation.

    psi must cross the threshold exactly once, downward, on the yield range
    (psi has a shallow turnover just above sigma0 = 15 ksi, so strictness is
    required at the crossing, not globally).  Serves as the independent
    oracle for importance-sampling results.  ``base.sigma0`` is ignored;
    sigma0 is the random input.
    """
    g = buckling_response(base)
    lo, hi = 15.0, 65.0
    for _ in range(60):
        if g(hi) < threshold:
            break
        hi *= 2.0
    else:
        return 0.0  # threshold below the attainable response: nothing fails
    if g(lo) <= threshold:
        raise ValueError(
            f"threshold {threshold} is not bracketed from above at sigma0={lo}; "
            "configuration outside the study envelope"
        )
    grid = np.linspace(lo, hi, 500)
    s = g(grid) - threshold
    down = np.flatnonzero((s[:-1] >= 0.0) & (s[1:] < 0.0))
    up = np.flatnonzero((s[:-1] < 0.0) & (s[1:] >= 0.0))
    if down.size != 1 or up.size != 0:
        raise ValueError(
            "response does not cross the threshold exactly once (non-monotone "
            f"on [{lo}, {hi}]); configuration outside the study envelope"
        )
    lo, hi = grid[down[0]], grid[down[0] + 1]
    while hi - lo > 1e-10:
        mid = 0.5 * (lo + hi)
        if g(mid) > threshold:
            lo = mid
        else:
            hi = mid
    sigma_star = 0.5 * (lo + hi)
    return float(1.0 - dist_cdf(family, theta, sigma_star))
