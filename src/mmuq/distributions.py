"""The seven candidate probability families and their core numerics.

All families are two-parameter and use conventional parameterizations:

====================  =======================================================
Gamma                 (shape k, scale s)
InverseGaussian       (mean mu, shape lam)
Logistic              (location, scale)
Loglogistic           ln X ~ Logistic(location, scale)
Lognormal             (lam = mean of ln X, zeta = std of ln X)
Normal                (mu, sigma)
Weibull               (shape k, scale s)
====================  =======================================================

Each family has one formula per quantity: one log density
(``log_pdf_grid``), one CDF (``cdf``), one sampler expression (behind
``sample`` and ``sample_one_per``) and one likelihood
(``log_likelihood_batch``, from sufficient statistics where the family has
them).  The scalar entry points (``log_pdf``, ``cdf``, ``sample``,
``log_likelihood``) validate parameters, raise on caller bugs and then run
that formula on one parameter row.  The batch entry points are the hot path
for MCMC / evidence / propagation loops: ``log_likelihood_batch`` maps
invalid parameter rows to -inf, so proposals outside the physical domain are
rejected rather than crashing the pipeline, while ``log_pdf_grid`` and
``sample_one_per`` take rows already drawn from a valid chain and raise on an
invalid one.

For Normal and Lognormal the log density is a quadratic in u = t(x) - c0,
with t(x) = x or ln x and c0 a fixed centre, so ``log_pdf_grid`` evaluates
it as one (rows x 3) . (3 x points) product of per-row coefficients and
per-point features [u^2, u, 1].  It rounds differently from the direct
formula: within a few ulps of the largest term, ((p1 - c0) / p2)^2 / 2
(about 1.5e-12 * (1 + |log p|) at worst over the noninformative boxes).  A
cell's value depends only on its own parameter row and point, never on the
other rows or points of the call.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
from scipy import special
from scipy.optimize import brentq

__all__ = [
    "ModelFamily",
    "FAMILIES",
    "PARAM_DIM",
    "Dataset",
    "InvalidParameterError",
    "theta_is_valid",
    "require_valid_theta",
    "log_pdf",
    "pdf",
    "cdf",
    "sample",
    "sample_one_per",
    "log_likelihood",
    "log_likelihood_batch",
    "log_pdf_grid",
    "moments",
    "params_from_moments",
    "POSITIVE_PARAMS",
]

_LOG_2PI = np.log(2.0 * np.pi)
_NEG_INF = -np.inf

# Parameter rows per (rows x data points) block of the likelihood families
# without sufficient statistics.  Blocks of 2^17 cells measured slower
# (page faults on every fresh block), so keep this small.
_LIKELIHOOD_CHUNK = 256
# Cells per density block (rows x columns) of the KDE prior and the
# propagation loops: about 1 MB of float64, so the passes over a block stay
# in cache.
_BLOCK_CELLS = 1 << 17


class ModelFamily(Enum):
    """Candidate two-parameter probability model families."""

    GAMMA = "Gamma"
    INVERSE_GAUSSIAN = "InverseGaussian"
    LOGISTIC = "Logistic"
    LOGLOGISTIC = "Loglogistic"
    LOGNORMAL = "Lognormal"
    NORMAL = "Normal"
    WEIBULL = "Weibull"

    def __str__(self) -> str:
        return self.value


FAMILIES: tuple[ModelFamily, ...] = tuple(ModelFamily)

PARAM_DIM = 2

PARAM_NAMES: dict[ModelFamily, tuple[str, str]] = {
    ModelFamily.GAMMA: ("shape", "scale"),
    ModelFamily.INVERSE_GAUSSIAN: ("mean", "shape"),
    ModelFamily.LOGISTIC: ("location", "scale"),
    ModelFamily.LOGLOGISTIC: ("location", "scale"),
    ModelFamily.LOGNORMAL: ("log_location", "log_scale"),
    ModelFamily.NORMAL: ("mean", "std"),
    ModelFamily.WEIBULL: ("shape", "scale"),
}

# Which parameter components must be strictly positive.
POSITIVE_PARAMS: dict[ModelFamily, tuple[bool, bool]] = {
    ModelFamily.GAMMA: (True, True),
    ModelFamily.INVERSE_GAUSSIAN: (True, True),
    ModelFamily.LOGISTIC: (False, True),
    ModelFamily.LOGLOGISTIC: (False, True),
    ModelFamily.LOGNORMAL: (False, True),
    ModelFamily.NORMAL: (False, True),
    ModelFamily.WEIBULL: (True, True),
}

# Families whose support is the positive half-line.
POSITIVE_SUPPORT = frozenset(
    {
        ModelFamily.GAMMA,
        ModelFamily.INVERSE_GAUSSIAN,
        ModelFamily.LOGLOGISTIC,
        ModelFamily.LOGNORMAL,
        ModelFamily.WEIBULL,
    }
)

# Centre c0 of the Normal and Lognormal quadratic log densities: the middle
# of the 20-60 ksi envelope of yield-strength means, and its log.  A fixed
# centre keeps each cell a function of its own (theta, x) only.  The three
# terms grow as ((p1 - c0) / p2)^2 and cancel near the mode, so a centre in
# the middle of the parameter boxes keeps the rounding smallest.
_QUADRATIC_CENTRE = {ModelFamily.NORMAL: 40.0, ModelFamily.LOGNORMAL: float(np.log(40.0))}


class InvalidParameterError(ValueError):
    """A parameter vector violates its family's constraints."""


@dataclass(eq=False)
class Dataset:
    """An ordered set of real observations with cached sufficient statistics."""

    values: np.ndarray
    label: str = ""

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 1 or self.values.size < 1:
            raise ValueError("Dataset needs a nonempty 1-D value array")
        if not np.all(np.isfinite(self.values)):
            raise ValueError(f"Dataset {self.label!r} contains non-finite values")

    @property
    def n(self) -> int:
        return int(self.values.size)

    @cached_property
    def all_positive(self) -> bool:
        return bool(np.all(self.values > 0.0))

    @cached_property
    def sum_x(self) -> float:
        return float(np.sum(self.values))

    @cached_property
    def sum_x2(self) -> float:
        return float(np.sum(self.values**2))

    @cached_property
    def log_values(self) -> np.ndarray:
        if not self.all_positive:
            raise ValueError(f"Dataset {self.label!r} has non-positive values")
        return np.log(self.values)

    @cached_property
    def sum_log(self) -> float:
        return float(np.sum(self.log_values))

    @cached_property
    def sum_log2(self) -> float:
        return float(np.sum(self.log_values**2))

    @cached_property
    def sum_inv(self) -> float:
        return float(np.sum(1.0 / self.values))


# ---------------------------------------------------------------------------
# parameter validation


def theta_is_valid(family: ModelFamily, theta) -> bool:
    th = np.asarray(theta, dtype=float)
    return th.shape == (PARAM_DIM,) and bool(_valid_rows(family, th[None, :])[0])


def require_valid_theta(family: ModelFamily, theta) -> np.ndarray:
    th = np.asarray(theta, dtype=float)
    if not theta_is_valid(family, th):
        raise InvalidParameterError(
            f"invalid parameters {th!r} for {family} "
            f"(expects ({PARAM_NAMES[family][0]}, {PARAM_NAMES[family][1]}))"
        )
    return th


def _valid_rows(family: ModelFamily, thetas: np.ndarray) -> np.ndarray:
    ok = np.all(np.isfinite(thetas), axis=1)
    pos = POSITIVE_PARAMS[family]
    for i in range(PARAM_DIM):
        if pos[i]:
            ok &= thetas[:, i] > 0.0
    return ok


def _outside(family: ModelFamily, x: np.ndarray) -> np.ndarray:
    """Mask of the points outside the open support: x <= 0 for the
    positive-support families, x = -inf for Normal and Logistic, and
    x = +inf for every family.  NaN is never outside, so the formulas
    carry it through."""
    lower = 0.0 if family in POSITIVE_SUPPORT else -np.inf
    return (x <= lower) | (x == np.inf)


# ---------------------------------------------------------------------------
# densities and sampling


def _logistic_logpdf_std(z: np.ndarray) -> np.ndarray:
    """Standard logistic log density, computed in place in ``z`` (callers
    pass a fresh temporary) and returned."""
    # symmetric in z, so evaluate on -|z| to avoid overflow in exp
    a = np.abs(z, out=z)
    np.negative(a, out=a)
    t = np.exp(a)
    np.log1p(t, out=t)
    t *= 2.0
    a -= t
    return a


def _quadratic_log_pdf(family: ModelFamily, thetas: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Normal or Lognormal log densities as one (rows x 3) . (3 x points)
    product.

    With t(x) = x (Normal) or ln x (Lognormal), u = t(x) - c0 about the
    fixed centre c0 = ``_QUADRATIC_CENTRE`` and d = p1 - c0, the log
    density is the quadratic

        a u^2 + b u + k,  a = -1 / (2 p2^2),  b = d / p2^2 [- 1],
                          k = -ln p2 - ln(2 pi) / 2 - d^2 / (2 p2^2) [- c0],

    where the bracketed terms are the Lognormal's -ln x.  Points where u^2
    overflows get -inf.
    """
    lognormal = family is ModelFamily.LOGNORMAL
    c0 = _QUADRATIC_CENTRE[family]
    n = x.size
    # Features [u^2, u, 1], one column per point.  np.einsum sums the three
    # terms of every cell in the same order only while the point axis is
    # its inner loop; a single point would make the term axis the inner
    # loop (a dot kernel that adds in another order), so it is padded to two.
    feats = np.zeros((3, max(n, 2)))
    u = feats[1, :n]
    if lognormal:
        np.log(x, out=u)
    else:
        u[:] = x
    u -= c0
    np.multiply(u, u, out=feats[0, :n])
    feats[2] = 1.0

    p1, p2 = thetas[:, 0], thetas[:, 1]
    d = p1 - c0
    inv_var = 1.0 / (p2 * p2)
    coef = np.empty((thetas.shape[0], 3))
    coef[:, 0] = -0.5 * inv_var
    coef[:, 1] = d * inv_var
    coef[:, 2] = -np.log(p2) - 0.5 * _LOG_2PI - 0.5 * d * d * inv_var
    if lognormal:
        coef[:, 1] -= 1.0
        coef[:, 2] -= c0

    out = np.einsum("ik,kj->ij", coef, feats, optimize=False)[:, :n]
    overflow = np.isinf(feats[0, :n])
    if np.any(overflow):
        out[:, overflow] = _NEG_INF
    return out


def log_pdf(family: ModelFamily, theta, x):
    """Log density at ``x``; -inf outside the support.

    Invalid ``theta`` raises :class:`InvalidParameterError`.
    """
    th = require_valid_theta(family, theta)
    xa = np.asarray(x, dtype=float)
    out = log_pdf_grid(family, th[None, :], xa.ravel())[0]
    return float(out[0]) if xa.ndim == 0 else out.reshape(xa.shape)


def pdf(family: ModelFamily, theta, x):
    return np.exp(log_pdf(family, theta, x))


def cdf(family: ModelFamily, theta, x):
    """Cumulative distribution function; 0/1 beyond the support endpoints."""
    th = require_valid_theta(family, theta)
    xa = np.asarray(x, dtype=float)
    x = xa.ravel()
    p1, p2 = float(th[0]), float(th[1])

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if family is ModelFamily.NORMAL:
            out = special.ndtr((x - p1) / p2)
        elif family is ModelFamily.LOGNORMAL:
            out = special.ndtr((np.log(x) - p1) / p2)
        elif family is ModelFamily.GAMMA:
            out = special.gammainc(p1, x / p2)
        elif family is ModelFamily.INVERSE_GAUSSIAN:
            rt = np.sqrt(p2 / x)
            # second term computed in log space; it underflows harmlessly to 0
            t1 = special.ndtr(rt * (x / p1 - 1.0))
            t2 = np.exp(2.0 * p2 / p1 + special.log_ndtr(-rt * (x / p1 + 1.0)))
            out = np.clip(t1 + t2, 0.0, 1.0)
        elif family is ModelFamily.LOGISTIC:
            out = special.expit((x - p1) / p2)
        elif family is ModelFamily.LOGLOGISTIC:
            out = special.expit((np.log(x) - p1) / p2)
        elif family is ModelFamily.WEIBULL:
            out = -np.expm1(-((x / p2) ** p1))
        else:  # pragma: no cover
            raise KeyError(family)
    out[_outside(family, x)] = 0.0
    out[x == np.inf] = 1.0
    return float(out[0]) if xa.ndim == 0 else out.reshape(xa.shape)


def _draw(family: ModelFamily, p1, p2, rng: np.random.Generator, size: int) -> np.ndarray:
    """``size`` variates at parameters ``p1``, ``p2``: scalars for iid
    draws, or length-``size`` arrays for one draw per parameter row."""
    if family is ModelFamily.NORMAL:
        return rng.normal(p1, p2, size)
    if family is ModelFamily.LOGNORMAL:
        return np.exp(rng.normal(p1, p2, size))
    if family is ModelFamily.GAMMA:
        return rng.gamma(p1, p2, size)
    if family is ModelFamily.INVERSE_GAUSSIAN:
        return rng.wald(p1, p2, size)
    if family is ModelFamily.LOGISTIC:
        return rng.logistic(p1, p2, size)
    if family is ModelFamily.LOGLOGISTIC:
        return np.exp(rng.logistic(p1, p2, size))
    if family is ModelFamily.WEIBULL:
        return p2 * rng.weibull(p1, size)
    raise KeyError(family)  # pragma: no cover


def sample(family: ModelFamily, theta, rng: np.random.Generator, count: int) -> np.ndarray:
    """Draw ``count`` iid variates; deterministic given the generator state."""
    th = require_valid_theta(family, theta)
    if count < 1:
        raise ValueError("count must be >= 1")
    return _draw(family, float(th[0]), float(th[1]), rng, count)


def sample_one_per(family: ModelFamily, thetas: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """One variate per row of ``thetas`` (m, 2); rows must all be valid."""
    thetas = np.asarray(thetas, dtype=float)
    if not np.all(_valid_rows(family, thetas)):
        raise InvalidParameterError(f"invalid parameter rows for {family}")
    return _draw(family, thetas[:, 0], thetas[:, 1], rng, thetas.shape[0])


# ---------------------------------------------------------------------------
# likelihoods


def log_likelihood(family: ModelFamily, theta, data: Dataset) -> float:
    """Sum of log densities over the dataset; -inf if any point lies outside
    the support."""
    th = require_valid_theta(family, theta)
    return float(log_likelihood_batch(family, th[None, :], data)[0])


def log_likelihood_batch(family: ModelFamily, thetas: np.ndarray, data: Dataset) -> np.ndarray:
    """Log likelihood for each parameter row; invalid rows give -inf.

    Uses closed-form sufficient statistics where the family admits them
    (Normal, Lognormal, Gamma, InverseGaussian) and chunked matrix
    evaluation otherwise, so cost stays flat in dataset size for the hot
    families.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    m, n = thetas.shape[0], data.n
    out = np.full(m, _NEG_INF)
    ok = _valid_rows(family, thetas)
    if not np.any(ok):
        return out
    if family in POSITIVE_SUPPORT and not data.all_positive:
        return out
    p1, p2 = thetas[ok, 0], thetas[ok, 1]

    if family is ModelFamily.NORMAL:
        ss = data.sum_x2 - 2.0 * p1 * data.sum_x + n * p1**2
        out[ok] = -n * np.log(p2) - 0.5 * n * _LOG_2PI - ss / (2.0 * p2**2)
    elif family is ModelFamily.LOGNORMAL:
        ss = data.sum_log2 - 2.0 * p1 * data.sum_log + n * p1**2
        out[ok] = (
            -data.sum_log - n * np.log(p2) - 0.5 * n * _LOG_2PI - ss / (2.0 * p2**2)
        )
    elif family is ModelFamily.GAMMA:
        out[ok] = (
            (p1 - 1.0) * data.sum_log
            - data.sum_x / p2
            - n * (p1 * np.log(p2) + special.gammaln(p1))
        )
    elif family is ModelFamily.INVERSE_GAUSSIAN:
        quad = data.sum_x - 2.0 * n * p1 + p1**2 * data.sum_inv
        out[ok] = (
            0.5 * n * (np.log(p2) - _LOG_2PI)
            - 1.5 * data.sum_log
            - p2 * quad / (2.0 * p1**2)
        )
    else:
        # no compact sufficient statistics: chunked (rows x data) evaluation
        if family is ModelFamily.LOGLOGISTIC:
            xs, extra = data.log_values, -data.sum_log
        elif family is ModelFamily.LOGISTIC:
            xs, extra = data.values, 0.0
        else:  # Weibull
            xs, extra = data.log_values, 0.0
        vals = np.empty(p1.size)
        for start in range(0, p1.size, _LIKELIHOOD_CHUNK):
            stop = min(start + _LIKELIHOOD_CHUNK, p1.size)
            a = p1[start:stop, None]
            b = p2[start:stop, None]
            if family is ModelFamily.WEIBULL:
                # sum (x/s)^k = s^-k * sum exp(k ln x)
                with np.errstate(over="ignore"):
                    pows = np.exp(a * (xs[None, :] - np.log(b)))
                ak, bk = a.ravel(), b.ravel()
                ll = (
                    n * (np.log(ak) - ak * np.log(bk))
                    + (ak - 1.0) * data.sum_log
                    - np.sum(pows, axis=1)
                )
            else:
                z = (xs[None, :] - a) / b
                ll = np.sum(_logistic_logpdf_std(z), axis=1) - n * np.log(b).ravel()
            vals[start:stop] = ll
        out[ok] = vals + extra
    # overflow in extreme corners of the prior box can yield nan; treat it
    # (and +inf) as impossible rather than propagating
    out[~(out < np.inf)] = _NEG_INF
    return out


def log_pdf_grid(family: ModelFamily, thetas: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Matrix of log densities: rows are parameter vectors, columns grid
    points.  Rows must be valid.

    The formula runs on every column, in place where that saves a
    temporary; columns outside the support are then set to -inf.
    ``log_pdf`` returns one row of it.
    """
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    x = np.asarray(x, dtype=float)
    if not np.all(_valid_rows(family, thetas)):
        raise InvalidParameterError(f"invalid parameter rows for {family}")
    p1 = thetas[:, 0][:, None]
    p2 = thetas[:, 1][:, None]
    xr = x[None, :]

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if family is ModelFamily.NORMAL or family is ModelFamily.LOGNORMAL:
            out = _quadratic_log_pdf(family, thetas, x)
        elif family is ModelFamily.GAMMA:
            out = np.multiply(p1 - 1.0, np.log(xr))
            out -= xr / p2
            out -= p1 * np.log(p2)
            out -= special.gammaln(p1)
        elif family is ModelFamily.INVERSE_GAUSSIAN:
            t = xr - p1
            t *= t
            t *= p2
            out = np.multiply(2.0 * p1**2, xr)
            t /= out
            # inf / inf where both terms overflow (x or mu near the float
            # limit): the density is 0 there.  A NaN point stays NaN
            # through the log term below.
            t[np.isnan(t)] = np.inf
            np.subtract(np.log(p2) - _LOG_2PI, 3.0 * np.log(xr), out=out)
            out *= 0.5
            out -= t
        elif family is ModelFamily.LOGISTIC:
            out = xr - p1
            out /= p2
            _logistic_logpdf_std(out)
            out -= np.log(p2)
        elif family is ModelFamily.LOGLOGISTIC:
            lx = np.log(xr)
            out = lx - p1
            out /= p2
            _logistic_logpdf_std(out)
            out -= np.log(p2)
            out -= lx
        elif family is ModelFamily.WEIBULL:
            r = xr / p2
            out = np.log(r)
            out *= p1 - 1.0
            out += np.log(p1) - np.log(p2)
            np.power(r, p1, out=r)
            out -= r
            # (x / s)^k overflowed, so the density is 0; the cell may hold
            # inf - inf or 0 * inf
            out[r == np.inf] = _NEG_INF
        else:  # pragma: no cover
            raise KeyError(family)
    outside = _outside(family, x)
    if np.any(outside):
        out[:, outside] = _NEG_INF
    return out


# ---------------------------------------------------------------------------
# moment maps


def moments(family: ModelFamily, theta) -> tuple[float, float]:
    """(mean, std) of the distribution; inf where a moment does not exist
    (Loglogistic with large scale)."""
    th = require_valid_theta(family, theta)
    p1, p2 = float(th[0]), float(th[1])
    if family is ModelFamily.NORMAL:
        return p1, p2
    if family is ModelFamily.LOGNORMAL:
        mean = np.exp(p1 + p2**2 / 2.0)
        var = (np.exp(p2**2) - 1.0) * np.exp(2.0 * p1 + p2**2)
        return float(mean), float(np.sqrt(var))
    if family is ModelFamily.GAMMA:
        return p1 * p2, float(np.sqrt(p1) * p2)
    if family is ModelFamily.INVERSE_GAUSSIAN:
        return p1, float(np.sqrt(p1**3 / p2))
    if family is ModelFamily.LOGISTIC:
        return p1, float(p2 * np.pi / np.sqrt(3.0))
    if family is ModelFamily.LOGLOGISTIC:
        if p2 >= 1.0:
            return np.inf, np.inf
        y = np.pi * p2
        mean = np.exp(p1) * y / np.sin(y)
        if p2 >= 0.5:
            return float(mean), np.inf
        m2 = np.exp(2.0 * p1) * 2.0 * y / np.sin(2.0 * y)
        return float(mean), float(np.sqrt(m2 - mean**2))
    if family is ModelFamily.WEIBULL:
        g1 = special.gamma(1.0 + 1.0 / p1)
        g2 = special.gamma(1.0 + 2.0 / p1)
        return float(p2 * g1), float(p2 * np.sqrt(g2 - g1**2))
    raise KeyError(family)  # pragma: no cover


def _weibull_shape_from_cov(cov: float) -> float:
    target = 1.0 + cov**2

    def f(k):
        return np.exp(special.gammaln(1 + 2.0 / k) - 2 * special.gammaln(1 + 1.0 / k)) - target

    return brentq(f, 0.05, 1e4, xtol=1e-12, rtol=1e-14)


def _loglogistic_scale_from_cov(cov: float) -> float:
    target = 1.0 + cov**2

    def f(s):
        y = np.pi * s
        return np.tan(y) / y - target

    return brentq(f, 1e-9, 0.5 - 1e-9, xtol=1e-15, rtol=1e-14)


def params_from_moments(family: ModelFamily, mean: float, cov: float) -> np.ndarray:
    """Invert each family's (mean, cov) moment relations.

    Used to derive prior boxes from the mean/COV envelope and to seed MLE
    searches from sample moments.
    """
    if mean <= 0.0 or cov <= 0.0:
        raise ValueError("mean and cov must be positive")
    if family is ModelFamily.NORMAL:
        return np.array([mean, mean * cov])
    if family is ModelFamily.LOGNORMAL:
        # zeta^2 = ln(1 + cov^2), lam = ln(mean) - zeta^2 / 2
        z2 = np.log1p(cov**2)
        return np.array([np.log(mean) - z2 / 2.0, np.sqrt(z2)])
    if family is ModelFamily.GAMMA:
        return np.array([1.0 / cov**2, mean * cov**2])
    if family is ModelFamily.INVERSE_GAUSSIAN:
        return np.array([mean, mean / cov**2])
    if family is ModelFamily.LOGISTIC:
        return np.array([mean, mean * cov * np.sqrt(3.0) / np.pi])
    if family is ModelFamily.LOGLOGISTIC:
        s = _loglogistic_scale_from_cov(cov)
        y = np.pi * s
        return np.array([np.log(mean) - np.log(y / np.sin(y)), s])
    if family is ModelFamily.WEIBULL:
        k = _weibull_shape_from_cov(cov)
        return np.array([k, mean / special.gamma(1.0 + 1.0 / k)])
    raise KeyError(family)  # pragma: no cover
