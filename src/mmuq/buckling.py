"""Plate buckling strength: the buckling response psi(sigma0), synthetic
data, and quadrature and semi-analytic oracles for its statistics.

The response of interest is the normalized buckling strength of a simply
supported rectangular plate under uniaxial compression.  Only the yield
strength is treated as random; the remaining plate variables are held at
their mean values.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import (
    _blocks,
    _brentq,
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
    "MEAN_PLATE",
    "TRUE_MODEL",
    "FAILURE_THRESHOLD",
    "buckling_response",
    "generate_data",
    "response_moments",
    "pf_semianalytic",
]

FAILURE_THRESHOLD = 0.6

# Cells per point counted by ``response_moments``'s ``_blocks``: the log
# density's features and result, psi and its temporaries, and the two
# integrands.
_QUADRATURE_CELLS_PER_POINT = 16


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
        for name, value in vars(self).items():
            if type(value) is bool or not isinstance(value, numbers.Real) or not 0 < value < np.inf:
                raise ValueError(f"plate {name} must be a finite positive number, got {value!r}")
        if self.b <= self.t:
            raise ValueError("plate width must exceed thickness")


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
    the sampling-based propagation path.  A member without a finite yield sd
    (a Loglogistic with scale parameter 0.5 or more) raises ``ValueError``.

    The rule runs over blocks of points (``_blocks``), each evaluating the
    density and psi once per point and closing the interval to the previous
    block's last point, so memory stays at the grid plus one block."""
    mean_s, sd_s = dist_moments(family, theta)
    if not np.isfinite(sd_s):
        raise ValueError(
            f"{family.value} member {tuple(map(float, theta))} has no finite yield sd, "
            "so no +-12 sd quadrature window"
        )
    lo = max(mean_s - 12.0 * sd_s, 1e-6)
    hi = mean_s + 12.0 * sd_s
    grid = np.linspace(lo, hi, 200_001)
    g = buckling_response(base)
    m1 = m2 = 0.0
    edge = np.empty((2, 0))  # [g p, g^2 p] at the point before the block
    for block in _blocks(grid.size, _QUADRATURE_CELLS_PER_POINT):
        x = grid[block]
        density = np.exp(dist_log_pdf(family, theta, x))
        gv = g(x)
        f = np.concatenate((edge, [gv * density, gv * gv * density]), axis=1)
        points = grid[max(block.start - 1, 0) : block.stop]
        m1 += float(np.trapezoid(f[0], points))
        m2 += float(np.trapezoid(f[1], points))
        edge = f[:, -1:]
    return m1, m2 - m1 * m1


def _least_point(g, a: float, b: float) -> float:
    """The point of [a, b] where g, unimodal there, is least: golden-section
    search (Kiefer 1953) until the bracket is 1.5e-8 of b wide, about where
    g's rise from its minimum falls under its rounding."""
    shrink = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = b - shrink * (b - a), a + shrink * (b - a)
    gc, gd = g(c), g(d)
    while b - a > 1.5e-8 * b:
        if gc < gd:
            b, d, gd = d, c, gc
            c = b - shrink * (b - a)
            gc = g(c)
        else:
            a, c, gc = c, d, gd
            d = a + shrink * (b - a)
            gd = g(d)
    return c if gc < gd else d


def _crossings(g, threshold: float, grid: np.ndarray):
    """Brackets [grid[i], grid[i + 1]] of psi's downward and of its upward
    crossings of the threshold."""
    s = g(grid) - threshold
    down = np.flatnonzero((s[:-1] >= 0.0) & (s[1:] < 0.0))
    up = np.flatnonzero((s[:-1] < 0.0) & (s[1:] >= 0.0))
    return [grid[i : i + 2] for i in down], [grid[i : i + 2] for i in up]


def pf_semianalytic(
    family: ModelFamily, theta, threshold: float, base: PlateConfig = MEAN_PLATE
) -> float:
    """Failure probability P(psi < threshold) for one yield-strength model,
    from one CDF call at the crossings of psi(sigma0) = threshold, each
    solved to a few ulps by Brent's method (``_brentq``).

    psi rises to +inf as sigma0 -> 0+, dips below zero (to -0.308 near 1.4
    ksi at the mean plate), turns over just above 15 ksi and falls towards
    0+.  So pf = (1 - F(sigma*)) + (F(sigma_b) - F(sigma_a)): sigma* is the
    one downward crossing above 15 ksi (inf for a threshold at or below 0),
    and (sigma_a, sigma_b) the part of the dip under the threshold, empty
    when the threshold is at or below the dip's minimum.  500 geometric
    points on (0, 15] bracket the crossings; when none of them falls under
    the threshold, a golden-section search between the lowest point's
    neighbours finds the minimum, so a threshold just above it still counts
    its narrow interval.  Any other pattern of crossings is outside
    the study envelope and raises.  Serves as the independent oracle for
    importance-sampling results.  ``base.sigma0`` is ignored; sigma0 is the
    random input.
    """
    g = buckling_response(base)
    lo = 15.0
    if g(lo) <= threshold:
        raise ValueError(
            f"threshold {threshold} is not bracketed from above at sigma0={lo}; "
            "configuration outside the study envelope"
        )

    def root(bracket):
        return _brentq(lambda s: g(s) - threshold, *bracket, xtol=0.0, rtol=1e-15)

    sigma_a = sigma_b = lo
    scan = np.geomspace(lo * 1e-4, lo, 500)
    down, up = _crossings(g, threshold, scan)
    i = int(np.argmin(g(scan)))
    if not (down or up) and 0 < i < scan.size - 1:
        least = _least_point(g, scan[i - 1], scan[i + 1])
        if g(least) < threshold:
            down, up = [np.array([scan[i - 1], least])], [np.array([least, scan[i + 1]])]
    if down or up:
        if len(down) != 1 or len(up) != 1:
            raise ValueError(
                f"response does not dip under the threshold once on (0, {lo}]; "
                "configuration outside the study envelope"
            )
        sigma_a, sigma_b = root(down[0]), root(up[0])
    # sigma* lies below the first of 65, 130, 260, ... ksi where psi is
    # under the threshold
    sigma_star = np.inf
    his = 65.0 * 2.0 ** np.arange(60)
    under = his[g(his) < threshold]
    if under.size:
        down, up = _crossings(g, threshold, np.linspace(lo, under[0], 500))
        if len(down) != 1 or up:
            raise ValueError(
                "response does not cross the threshold exactly once (non-monotone "
                f"on [{lo}, {under[0]}]); configuration outside the study envelope"
            )
        sigma_star = root(down[0])
    f = dist_cdf(family, theta, np.array([sigma_a, sigma_b, sigma_star]))
    return float((1.0 - f[2]) + (f[1] - f[0]))
