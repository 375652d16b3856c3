"""Plate buckling strength: the response psi(sigma0), synthetic data, and
oracles for its statistics (Clenshaw-Curtis moments, the cubic's pf).

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
    _CHEB_NODES,
    _chebyshev_rule,
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
    "failure_set",
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
        for name, value in vars(self).items():
            if type(value) is bool or not isinstance(value, numbers.Real) or not 0 < value < np.inf:
                raise ValueError(f"plate {name} must be a finite positive number, got {value!r}")
        if self.b <= self.t:
            raise ValueError("plate width must exceed thickness")
        if 2.0 * self.eta * self.t >= self.b:
            raise ValueError(
                f"plate residual-stress zones 2*eta*t = 2*{self.eta!r}*{self.t!r} must be "
                f"narrower than its width b = {self.b!r}"
            )


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
    """Mean and variance of psi(sigma0) under one yield-strength model by
    Clenshaw-Curtis quadrature, independent of the sampling-based path:
    ``_chebyshev_rule`` on the moments of d sigma0 ((hi - lo) / (1 - k^2),
    k even) at ``_CHEB_NODES`` nodes over +-12 sd, clipped at 1e-6 ksi.
    Weights times density are renormalized to sum to 1, so the mass outside
    the window does not inflate the variance, a mean square about the mean.
    A member without a finite yield sd (Loglogistic scale >= 0.5) raises."""
    mean_s, sd_s = dist_moments(family, theta)
    if not np.isfinite(sd_s):
        raise ValueError(
            f"{family.value} member {tuple(map(float, theta))} has no finite yield sd, "
            "so no +-12 sd quadrature window"
        )
    lo = max(mean_s - 12.0 * sd_s, 1e-6)
    hi = mean_s + 12.0 * sd_s
    lebesgue = np.zeros(_CHEB_NODES)
    lebesgue[::2] = (hi - lo) / (1.0 - np.arange(0, _CHEB_NODES, 2) ** 2)
    nodes, weights, _ = _chebyshev_rule(lo, hi, lebesgue)
    weights *= np.exp(dist_log_pdf(family, theta, nodes))
    weights /= weights.sum()
    psi = buckling_response(base)(nodes)
    mean = float((weights * psi).sum())
    return mean, float((weights * (psi - mean) ** 2).sum())


def _cubic(base: PlateConfig) -> list[Decimal]:
    """psi as a cubic in u = (t/b) sqrt(E/sigma0), which falls as sigma0
    rises: the coefficients of u^3, u^2 and u (the constant is 0) of
    k (2.1 u - 0.9 u^2)(1 - 0.75 delta0 u), k = 1 - 2 eta t/b."""
    from decimal import Decimal
    eta, t, b, delta0 = (Decimal(float(v)) for v in (base.eta, base.t, base.b, base.delta0))
    k, c1, c2, d = 1 - 2 * eta * t / b, Decimal("2.1"), Decimal("0.9"), Decimal("0.75") * delta0
    return [k * c2 * d, -k * (c2 + c1 * d), k * c1]


def failure_set(threshold: float, base: PlateConfig = MEAN_PLATE) -> tuple[float, float, float]:
    """(sigma_a, sigma_b, sigma*): psi(sigma0) < threshold above sigma* (inf if
    never) and on (sigma_a, sigma_b) in psi's dip ((0, 0) if nowhere).  Each is
    the double nearest a positive real root u of the cubic psi - threshold
    (``np.roots``, then two Newton steps in 40-digit decimals) mapped back by
    sigma0 = E (t/(b u))^2; the cubic's sign at the midpoints of 0 and the
    roots tells which intervals fail.  ``base.sigma0`` is ignored.  decimal is
    imported here, so a process that never runs the oracle never loads it."""
    from decimal import Decimal, localcontext
    with localcontext() as ctx:
        ctx.prec = 40
        cubic = np.array([*_cubic(base), -Decimal(float(threshold))])
        roots = np.roots(cubic.astype(float))
        u = np.array([Decimal(r) for r in roots.real[(roots.imag == 0) & (roots.real > 0)]], object)
        for _ in range(2):
            u -= np.polyval(cubic, u) / np.polyval(np.polyder(cubic), u)
        edges = np.concatenate(([Decimal(0)], np.sort(u)))
        under = np.polyval(cubic, (edges[:-1] + edges[1:]) / 2) < 0
        scale = Decimal(float(base.E)) * (Decimal(float(base.t)) / Decimal(float(base.b))) ** 2
        sigma = (scale / edges[1:] ** 2).astype(float)
    dip = np.flatnonzero(under[1:])  # psi < threshold on (edges[i + 1], edges[i + 2])
    sigma_a, sigma_b = (sigma[dip[-1] + 1], sigma[dip[0]]) if dip.size else (0.0, 0.0)
    return float(sigma_a), float(sigma_b), float(sigma[0]) if under[:1].any() else np.inf


def pf_semianalytic(
    family: ModelFamily, theta, threshold: float, base: PlateConfig = MEAN_PLATE
) -> float:
    """Failure probability P(psi < threshold) for one yield-strength model,
    (1 - F(sigma*)) + (F(sigma_b) - F(sigma_a)) from one CDF call at the
    crossings of ``failure_set``: psi rises to +inf as sigma0 -> 0+, dips
    below zero (to -0.308 near 1.4 ksi at the mean plate), turns over just
    above 15 ksi and falls towards 0+.  The independent oracle for
    importance-sampling results; sigma0 is the random input."""
    f = dist_cdf(family, theta, np.array(failure_set(threshold, base)))
    return float((1.0 - f[2]) + (f[1] - f[0]))
