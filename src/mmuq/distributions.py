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

Each family has one formula per quantity: one log density, one CDF
(``cdf``) and one sampler expression (behind ``sample`` and
``sample_one_per``).  The scalar entry points (``log_pdf``, ``cdf``,
``sample``, ``log_likelihood``) validate parameters, raise on caller bugs and
then run that formula on one parameter row.  The batch entry points are the
hot path for MCMC / evidence / propagation loops: ``log_likelihood_batch``
maps invalid parameter rows to -inf, so proposals outside the physical domain
are rejected rather than crashing the pipeline, while ``log_pdf_grid`` and
``sample_one_per`` take rows already drawn from a valid chain and raise on an
invalid one.  Each batch call has one path: its formula on every row and
point (numpy's divide, invalid and overflow warnings off), then one -inf mask.

Every family's log density is written once as

    log p(x | theta) = c(theta) . T(x) + h(theta, t(x)),

per-row coefficients (``_coefficients``) times a few per-point features
(``_features``), plus a per-cell term (``_cell_term``) of the parameters and
t(x) = x or ln x.  h is 0 for the exponential families Normal, Lognormal,
Gamma and InverseGaussian; Logistic and Loglogistic put the standard logistic
log density of (t - p1) / p2 into it, and Weibull -exp(k (ln x - ln s)).
The density grid (``log_pdf_grid``) is one (rows x K) . (K x points) GEMM
(``_matmul``) plus h on the block.  The likelihood (``log_likelihood_batch``)
is c(theta) . sum_i T(x_i), the same product on feature sums cached on the
:class:`Dataset`, plus the data term sum_i h(theta, t(x_i)) (``_data_term``)
in row blocks that reuse one scratch allocation, so the exponential families
cost the same at any dataset size and the others need about 1 MB at any
size.  On more than 258 points the data term is a sum over 129 Chebyshev
nodes on the data's range with weights cached on the dataset
(``Dataset.quadrature``), for every row whose interpolant's tail passes a
test; the others take the direct sum over the data.  On a (1000 x 131)
block of noninformative-box rows the grid takes 1.8, 2.3, 5.5 and 2.1 ns per
cell for Normal, Lognormal, Gamma and InverseGaussian, and 20.3, 19.0 and
10.8 ns for Logistic, Loglogistic and Weibull; the likelihood's direct h
takes 5.4, 5.4 and 2.3 ns per cell on 1000 rows at 10^4 points, so a
16-row Logistic call at n = 10^4 took 641 us with it and 55 us on the nodes
(shared 2-core x86-64 host, OpenBLAS 0.3.31).  The linear form rounds
differently from a direct formula, within a few ulps of its largest term
sum_k |c_k T_k(x)|.  A cell's value depends only on its own parameter row
and point, and a likelihood only on its own row, never on the other rows or
points of the call, so the rows a mask later sets to -inf change no other
row's bits.

Two layout rules serve the likelihood, the grid, the KDE prior density and
propagation's density blocks, each from one function: ``_matmul`` is the
only code that pads an operand, so that np.matmul cannot switch BLAS routine
on a one-row or one-column shape, and ``_blocks`` is the only code that
sizes blocks from ``_BLOCK_CELLS``.  ``_matmul`` and ``log_pdf_grid`` write
to a caller's buffer through ``out=`` (propagation reuses one per call); it
must be C-contiguous, as np.matmul runs no BLAS into a strided ``out``.

``params_from_moments`` inverts the Weibull and Loglogistic moment relations
(behind the noninformative boxes and the MLE starts) with ``_brentq``, a
step-for-step port of scipy's C ``brentq`` that returns the same bits; it
also solves ``buckling.pf_semianalytic``'s failure yields.  The
special functions (log Gamma in the Gamma coefficients and the Weibull
moments, Gamma, the normal CDF, the regularized incomplete gamma and the
logistic function in ``cdf``) come from :mod:`mmuq.special`, ports of the
Cephes routines scipy.special runs; log Gamma, the normal CDF and the
logistic function return scipy's bits on scalars and arrays alike, and
every element of a ``cdf`` call is the one a call on that point alone
returns.  With them, ``_brentq``
and ``evidence._nelder_mead`` mmuq imports no scipy, which saves every
process about 0.2 s and 20 MB of resident memory at import.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np

from . import special

__all__ = [
    "ModelFamily",
    "FAMILIES",
    "PARAM_DIM",
    "Dataset",
    "InvalidParameterError",
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

# Cells per block (``_blocks``) of the KDE prior and propagation densities
# and of the likelihood's term h: about 1 MB of float64, so the passes over a
# block stay in cache.
_BLOCK_CELLS = 1 << 17

# The likelihood's Chebyshev data quadrature (``_chebyshev_quadrature``):
# its node count N, used only on datasets of more than 2 N points, and the
# relative tolerance of a row's tail test (``_data_term``).  At 1e-13 the
# rows it accepted erred by up to 17 eps sum_i |h| (Logistic chain rows) and
# 153 (Weibull evidence rows) against an exact sum; at 1e-14 by at most 3.2,
# and the accepted share of the n = 10^4 chain rows fell only from 99.8,
# 99.9 and 91.7% to 99.7, 99.9 and 86.6% (Logistic, Loglogistic, Weibull).
_CHEB_NODES = 129
_CHEB_TAIL_RTOL = 1e-14


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

# Feature count K of each family's linear form (``_features``).
_LINEAR_FEATURES = {
    ModelFamily.NORMAL: 3,
    ModelFamily.LOGNORMAL: 3,
    ModelFamily.GAMMA: 3,
    ModelFamily.INVERSE_GAUSSIAN: 4,
    ModelFamily.LOGISTIC: 1,
    ModelFamily.LOGLOGISTIC: 2,
    ModelFamily.WEIBULL: 2,
}

# The families with a per-cell term h(theta, t(x)) (``_cell_term``), and
# whether its argument t(x) is ln x (else x).
_CELL_TERM_OF_LOG_X = {
    ModelFamily.LOGISTIC: False,
    ModelFamily.LOGLOGISTIC: True,
    ModelFamily.WEIBULL: True,
}

# Centre c0 of the Normal and Lognormal quadratic log densities: the middle
# of the 20-60 ksi envelope of yield-strength means, and its log.  A fixed
# centre keeps each cell a function of its own (theta, x) only.  The three
# terms grow as ((p1 - c0) / p2)^2 and cancel near the mode, so a centre in
# the middle of the parameter boxes keeps the rounding smallest.
_QUADRATIC_CENTRE = {ModelFamily.NORMAL: 40.0, ModelFamily.LOGNORMAL: float(np.log(40.0))}

# Bound on the cancelling term s of a valid row: the linear-form terms grow
# as s and cancel near the mode, so the rounding error is a few ulps of s
# (2e-7 nats at 1e8).  s = ((p1 - c0) / p2)^2 for Normal and Lognormal, lam /
# mu for InverseGaussian; the noninformative boxes reach 1e4, 5.6e3 and 3e4.
_MAX_CANCELLING = 1e8


class InvalidParameterError(ValueError):
    """A parameter vector violates its family's constraints."""


@dataclass(eq=False)
class Dataset:
    """An ordered set of real observations with cached sufficient statistics."""

    values: np.ndarray
    label: str = ""
    _feature_sums: dict = field(default_factory=dict, init=False, repr=False)
    _quadratures: dict = field(default_factory=dict, init=False, repr=False)

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
    def log_values(self) -> np.ndarray:
        if not self.all_positive:
            raise ValueError(f"Dataset {self.label!r} has non-positive values")
        return np.log(self.values)

    def feature_sums(self, family: ModelFamily) -> np.ndarray:
        """sum_i T(x_i) of a family's features (``_features``) as a (K x 1)
        column, cached per family."""
        if family not in self._feature_sums:
            self._feature_sums[family] = _features(family, self.values).sum(axis=1, keepdims=True)
        return self._feature_sums[family]

    def cell_term_points(self, family: ModelFamily) -> np.ndarray:
        """The points t(x_i) at which a family in ``_CELL_TERM_OF_LOG_X``
        takes its term h: ln x_i or x_i."""
        return self.log_values if _CELL_TERM_OF_LOG_X[family] else self.values

    def quadrature(self, family: ModelFamily):
        """The Chebyshev quadrature of the data's t(x) (``_chebyshev_quadrature``)
        for a family in ``_CELL_TERM_OF_LOG_X``, cached per argument t; None
        on 2 ``_CHEB_NODES`` points or fewer, where it would cost more than
        the sum it replaces, and on a single distinct t."""
        key = _CELL_TERM_OF_LOG_X[family]
        if key not in self._quadratures:
            t = self.cell_term_points(family)
            if self.n <= 2 * _CHEB_NODES or t.min() == t.max():
                self._quadratures[key] = None
            else:
                self._quadratures[key] = _chebyshev_quadrature(t)
        return self._quadratures[key]


def _chebyshev_quadrature(t: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(nodes, weights, tail) of a quadrature of the points ``t``' empirical
    measure: sum_j weights_j f(nodes_j) = sum_i p(t_i) for the degree-(N - 1)
    Chebyshev interpolant p of f at the N = ``_CHEB_NODES`` Chebyshev points
    of the second kind on [min t, max t] (Trefethen 2013, *Approximation
    Theory and Approximation Practice*, ch. 2-3).

    With u the map of t onto [-1, 1], x_j = cos(pi j / (N - 1)) and C the
    matrix taking node values to Chebyshev coefficients (c = C f, a cosine
    transform), the weights are C^T M for the data's moments M_k = sum_i
    T_k(u_i), which the three-term recurrence gives in N passes over the
    data.  ``tail`` holds rows N - 2 and N - 1 of C: the last two
    coefficients of the interpolant, which size its truncation error.  The
    products are elementwise and their sums run down one axis, so the
    weights do not depend on BLAS."""
    n = _CHEB_NODES
    lo, hi = float(t.min()), float(t.max())
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    # cos(pi m / (N - 1)) for m = k j reduced mod 2 (N - 1): exact arguments
    kj = np.outer(np.arange(n), np.arange(n)) % (2 * (n - 1))
    cheb = np.cos(np.pi / (n - 1) * kj)  # T_k(x_j)
    end = np.ones(n)
    end[[0, -1]] = 0.5
    transform = cheb * (2.0 / (n - 1)) * end[:, None] * end[None, :]
    u = np.clip((t - mid) / half, -1.0, 1.0)
    moments = np.empty(n)
    prev, cur = np.ones_like(u), u.copy()
    moments[0], moments[1] = u.size, cur.sum()
    for k in range(2, n):
        prev *= -1.0
        prev += 2.0 * u * cur
        prev, cur = cur, prev
        moments[k] = cur.sum()
    weights = (transform * moments[:, None]).sum(axis=0)
    return mid + half * cheb[1], weights, transform[-2:].copy()


# ---------------------------------------------------------------------------
# parameter validation


def require_valid_theta(family: ModelFamily, theta) -> np.ndarray:
    th = np.asarray(theta, dtype=float)
    if th.shape != (PARAM_DIM,) or not _valid_rows(family, th[None, :])[0]:
        raise InvalidParameterError(
            f"invalid parameters {th!r} for {family} "
            f"(expects ({PARAM_NAMES[family][0]}, {PARAM_NAMES[family][1]}))"
        )
    return th


def _param_rows(thetas: np.ndarray) -> np.ndarray:
    """``thetas`` as float (rows, 2) rows, a single pair as one row."""
    thetas = np.atleast_2d(np.asarray(thetas, dtype=float))
    if thetas.ndim != 2 or thetas.shape[1] != PARAM_DIM:
        raise ValueError("thetas must have shape (rows, 2)")
    return thetas


def _valid_rows(family: ModelFamily, thetas: np.ndarray) -> np.ndarray:
    """Finite rows with positive parameters > 0 and cancelling term s below
    ``_MAX_CANCELLING``; each bound scales the parameter-free side down, so
    no row overflows.  For Normal and Lognormal one bound on the scale,
    p2 > (|p1 - c0| + 1e-150) / 1e4, gives p2 > 0, s < max and a finite
    1 / p2^2 (also at p1 = c0)."""
    # two column tests: np.isfinite(thetas).all(axis=1) reduces over a
    # length-2 axis, 16 us against 2 us on 1000 rows
    ok = np.isfinite(thetas[:, 0]) & np.isfinite(thetas[:, 1])
    if family in _QUADRATIC_CENTRE:
        d = np.abs(thetas[:, 0] - _QUADRATIC_CENTRE[family]) + 1e-150
        return ok & (thetas[:, 1] > d * _MAX_CANCELLING**-0.5)
    pos = POSITIVE_PARAMS[family]
    for i in range(PARAM_DIM):
        if pos[i]:
            ok &= thetas[:, i] > 0.0
    if family is ModelFamily.INVERSE_GAUSSIAN:
        ok &= thetas[:, 0] > thetas[:, 1] * (1.0 / _MAX_CANCELLING)
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


def _matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``a @ b`` on a BLAS routine that no degenerate shape changes, written
    to ``out`` if given (C-contiguous: np.matmul does not run BLAS into a
    strided ``out``).

    np.matmul sends a one-row ``a`` or a one-column ``b`` to GEMV instead of
    GEMM, and a one-column ``b`` after a vector ``a`` to dot instead of GEMV;
    each adds in its own order, and a long dot splits its sum across
    threads.  So a one-column ``b``, and then a one-row ``a``, is padded to
    two by repeating it and the spare dropped; a vector ``a`` (q in
    propagation) stays a GEMV.  At the inner dimensions of the linear forms
    and the KDE prior (K <= 4) a cell then depends only on its own row of
    ``a`` and column of ``b``.  An inner dimension of 1 has nothing to sum,
    and np.matmul's own loop for it is slower than the outer product.  This
    is the only code that pads an operand."""
    if a.ndim == 2 and a.shape[1] == 1:
        return np.multiply(a, b, out=out)
    if b.shape[1] == 1:
        product = _matmul(a, np.concatenate((b, b), axis=1))[..., :1]
    elif a.ndim == 2 and a.shape[0] == 1:
        product = (np.concatenate((a, a)) @ b)[:1]
    else:
        return np.matmul(a, b, out=out)
    if out is None:
        return product
    out[...] = product
    return out


def _blocks(count: int, cells_per_item: int) -> list[slice]:
    """Consecutive slices of ``range(count)``, each of as many items as fit
    ``_BLOCK_CELLS`` cells at ``cells_per_item`` cells an item, and at least
    one; none for ``count`` = 0."""
    step = max(1, _BLOCK_CELLS // cells_per_item)
    return [slice(start, min(start + step, count)) for start in range(0, count, step)]


def _features(family: ModelFamily, x: np.ndarray) -> np.ndarray:
    """The (K x points) features T(x): [u^2, u, 1] with u = t(x) - c0
    (t(x) = x or ln x) for Normal and Lognormal, [ln x, x, 1] for Gamma,
    [ln x, x, 1/x, 1] for InverseGaussian, [ln x, 1] for Loglogistic and
    Weibull and [1] for Logistic."""
    feats = np.empty((_LINEAR_FEATURES[family], x.size))
    if family in _QUADRATIC_CENTRE:
        u = feats[1]
        u[:] = np.log(x) if family is ModelFamily.LOGNORMAL else x
        u -= _QUADRATIC_CENTRE[family]
        np.multiply(u, u, out=feats[0])
    elif family is not ModelFamily.LOGISTIC:
        np.log(x, out=feats[0])
        if family in (ModelFamily.GAMMA, ModelFamily.INVERSE_GAUSSIAN):
            feats[1] = x
        if family is ModelFamily.INVERSE_GAUSSIAN:
            np.divide(1.0, x, out=feats[2])
    feats[-1] = 1.0
    return feats


def _coefficients(family: ModelFamily, thetas: np.ndarray) -> np.ndarray:
    """The (rows x K) coefficients c(theta) of the features ``_features``.

    Normal, with d = p1 - c0: [-1 / (2 p2^2), d / p2^2, -ln p2 - ln(2 pi) / 2
    - d^2 / (2 p2^2)]; the Lognormal's -ln x = -(u + c0) adds -1 and -c0 to
    the last two.  Gamma: [k - 1, -1 / s, -k ln s - ln Gamma(k)].
    InverseGaussian, from lam (x - mu)^2 / (2 mu^2 x) = lam x / (2 mu^2) -
    lam / mu + lam / (2 x): [-3/2, -lam / (2 mu^2), -lam / 2, (ln lam -
    ln(2 pi)) / 2 + lam / mu].  Logistic: [-ln s]; Loglogistic: [-1, -ln s];
    Weibull: [k - 1, ln k - k ln s]."""
    p1, p2 = thetas[:, 0], thetas[:, 1]
    coef = np.empty((thetas.shape[0], _LINEAR_FEATURES[family]))
    # in place: on the likelihood's few rows the count of numpy calls is the cost
    a, k = coef[:, 0], coef[:, -1]
    if family in _QUADRATIC_CENTRE:
        c0 = _QUADRATIC_CENTRE[family]
        d = p1 - c0
        inv_var = 1.0 / (p2 * p2)
        np.multiply(-0.5, inv_var, out=a)
        np.multiply(d, inv_var, out=coef[:, 1])
        np.subtract(-0.5 * _LOG_2PI, np.log(p2), out=k)
        k -= 0.5 * d * d * inv_var
        if family is ModelFamily.LOGNORMAL:
            coef[:, 1] -= 1.0
            k -= c0
    elif family is ModelFamily.GAMMA:
        np.subtract(p1, 1.0, out=a)
        np.divide(-1.0, p2, out=coef[:, 1])
        np.multiply(-p1, np.log(p2), out=k)
        k -= special.gammaln(p1)
    elif family is ModelFamily.INVERSE_GAUSSIAN:
        a[:] = -1.5
        np.multiply(-0.5, p2, out=coef[:, 2])
        np.divide(coef[:, 2], p1 * p1, out=coef[:, 1])
        np.divide(p2, p1, out=k)
        k += 0.5 * (np.log(p2) - _LOG_2PI)
    elif family is ModelFamily.WEIBULL:
        np.subtract(p1, 1.0, out=a)
        np.multiply(p1, np.log(p2), out=k)
        np.subtract(np.log(p1), k, out=k)
    else:  # Logistic, Loglogistic
        np.negative(np.log(p2), out=k)
        if family is ModelFamily.LOGLOGISTIC:
            a[:] = -1.0
    return coef


def _cell_term(
    family: ModelFamily,
    thetas: np.ndarray,
    t: np.ndarray,
    out: np.ndarray | None = None,
    spare: np.ndarray | None = None,
) -> np.ndarray:
    """The (rows x points) term h(theta, t) of a family in
    ``_CELL_TERM_OF_LOG_X``, at t = t(x), written to ``out`` (a fresh array
    if None): the standard logistic log density of z = (t - p1) / p2 for
    Logistic (t = x) and Loglogistic (t = ln x), whose second term takes
    ``spare`` (likewise), and -exp(k (t - ln s)) for Weibull (t = ln x),
    which overflows to -inf where the density underflows to 0."""
    if family is ModelFamily.WEIBULL:
        h = np.subtract(t, np.log(thetas[:, 1])[:, None], out=out)
        with np.errstate(over="ignore"):
            h *= thetas[:, 0][:, None]
            np.exp(h, out=h)
        return np.negative(h, out=h)
    # symmetric in z, so evaluate on -|z| = |t - p1| / (-p2) (bit for bit)
    # to avoid overflow in exp
    a = np.subtract(t, thetas[:, 0][:, None], out=out)
    np.abs(a, out=a)
    a /= (-thetas[:, 1])[:, None]
    e = np.exp(a, out=spare)
    np.log1p(e, out=e)
    e *= 2.0
    a -= e
    return a


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
    """Cumulative distribution function; 0/1 beyond the support endpoints.
    Each element of an array x gets the bits that x alone gets."""
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
    thetas = _param_rows(thetas)
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

    The grid's formula summed over the data: c(theta) . sum_i T(x_i) on the
    dataset's cached feature sums, whose cost stays flat in dataset size,
    plus sum_i h(theta, t(x_i)), evaluated in row blocks, on every row; then
    a row that is invalid (some give a finite but wrong sum) or sums to nan
    or +inf (overflow in an extreme corner of a prior box) is set to -inf.
    """
    thetas = _param_rows(thetas)
    if family in POSITIVE_SUPPORT and not data.all_positive:
        return np.full(thetas.shape[0], _NEG_INF)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ll = _matmul(_coefficients(family, thetas), data.feature_sums(family))[:, 0]
        if family in _CELL_TERM_OF_LOG_X:
            ll += _data_term(family, thetas, data)
    ll[~(_valid_rows(family, thetas) & (ll < np.inf))] = _NEG_INF
    return ll


def _data_term(family: ModelFamily, thetas: np.ndarray, data: Dataset) -> np.ndarray:
    """sum_i h(theta, t(x_i)) for each row of ``thetas``.

    On a dataset with a ``Dataset.quadrature`` a row takes the node sum
    sum_j w_j h(theta, tau_j) when its tail test passes: n (|c_{N-2}| +
    |c_{N-1}|) <= ``_CHEB_TAIL_RTOL`` (1 + |sum|), with c the interpolant's
    coefficients, and the sum is finite.  Every other row (a small scale
    against the data's range, a steep Weibull shape, a non-finite node
    value) and every row on a small dataset takes the direct sum over the
    data, with the bits it has without the quadrature.  Both passes run on
    ``_scratch_blocks``; the node sum and the tail test are elementwise
    products and row sums, so a row's bits do not depend on its block."""
    term = np.empty(thetas.shape[0])
    rows = np.arange(thetas.shape[0])
    quadrature = data.quadrature(family)
    if quadrature is not None:
        nodes, weights, tail = quadrature
        passed = np.zeros(rows.size, dtype=bool)
        for block, h, spare in _scratch_blocks(rows.size, nodes.size):
            _cell_term(family, thetas[block], nodes, h, spare)
            total = np.multiply(h, weights, out=spare).sum(axis=1)
            err = np.abs(np.multiply(h, tail[0], out=spare).sum(axis=1))
            err += np.abs(np.multiply(h, tail[1], out=spare).sum(axis=1))
            passed[block] = np.isfinite(total) & (
                data.n * err <= _CHEB_TAIL_RTOL * (1.0 + np.abs(total))
            )
            term[block] = total
        rows = rows[~passed]
    t = data.cell_term_points(family)
    for block, h, spare in _scratch_blocks(rows.size, data.n):
        some = rows[block]
        term[some] = _cell_term(family, thetas[some], t, h, spare).sum(axis=1)
    return term


def _scratch_blocks(count: int, width: int):
    """(block, h, spare) for each row block (``_blocks``) of ``count`` rows
    of the likelihood's term h at ``width`` points: h and its spare are
    (rows x width) views into one scratch allocation, reused through out=
    so memory stays bounded and each pass stays in cache, and released
    when the last block is done."""
    blocks = _blocks(count, 2 * width)
    scratch = np.empty((2, blocks[0].stop if blocks else 0, width))
    for block in blocks:
        h, spare = scratch[:, : block.stop - block.start]
        yield block, h, spare


def _grid_coefficients(family: ModelFamily, thetas: np.ndarray) -> np.ndarray:
    """The ``_coefficients`` of ``log_pdf_grid``'s (rows, 2) ``thetas``,
    which must all be valid (else :class:`InvalidParameterError`)."""
    if not np.all(_valid_rows(family, thetas)):
        raise InvalidParameterError(f"invalid parameter rows for {family}")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return _coefficients(family, thetas)


def log_pdf_grid(
    family: ModelFamily,
    thetas: np.ndarray,
    x: np.ndarray,
    out: np.ndarray | None = None,
    scratch: tuple[np.ndarray, np.ndarray] | None = None,
    coef: np.ndarray | None = None,
) -> np.ndarray:
    """Matrix of log densities: rows are parameter vectors, columns grid
    points.  Rows must be valid.

    The formula runs on every column; columns outside the support, or with
    an infinite feature (u^2 overflowed, ln x at x = 0, 1/x at a subnormal
    x; the cell may hold inf - inf), are then set to -inf.  ``log_pdf``
    returns one row of it.

    The matrix is written to ``out`` and returned, a fresh array if None.
    ``scratch`` is two arrays of the same shape for the term h and its spare
    (``_cell_term``), fresh ones if None; only Logistic, Loglogistic and
    Weibull touch them.  Both must be C-contiguous (``_matmul``); they give
    the same bits as fresh arrays.

    ``coef`` is for private use: the rows' ``_grid_coefficients``, which a
    caller evaluating the same rows on many blocks of points computes (and
    so validates) once.  It is trusted, and the rows are not checked again.
    """
    thetas = _param_rows(thetas)
    x = np.asarray(x, dtype=float)
    if coef is None:
        coef = _grid_coefficients(family, thetas)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        feats = _features(family, x)
        out = _matmul(coef, feats, out=out)
        if family in _CELL_TERM_OF_LOG_X:
            # feature 0 of Loglogistic and Weibull is ln x
            t = feats[0] if _CELL_TERM_OF_LOG_X[family] else x
            out += _cell_term(family, thetas, t, *(scratch or (None, None)))
    out[:, _outside(family, x) | np.isinf(feats).any(axis=0)] = _NEG_INF
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


def _brentq(f, a: float, b: float, xtol: float, rtol: float) -> float:
    """Root of ``f`` in the bracket [a, b] by Brent's method (Brent 1973,
    *Algorithms for Minimization without Derivatives*, ch. 4).

    A step-for-step port of scipy's C ``brentq``, so it returns the same
    bits.  The bracket [cur, blk] always holds a sign change; ``pre`` is the
    previous iterate.  A secant or inverse-quadratic step is taken when it
    is short enough, else a bisection; the loop stops when half the bracket
    is below delta = (xtol + rtol |cur|) / 2, and raises after 100
    iterations.
    """
    xpre, xcur = float(a), float(b)
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if (fpre < 0.0) == (fcur < 0.0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    maxiter = 100
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
    raise RuntimeError(f"brentq failed to converge after {maxiter} iterations, value is {xcur}")


def _weibull_shape_from_cov(cov: float) -> float:
    target = 1.0 + cov**2

    def f(k):
        return np.exp(special.gammaln(1 + 2.0 / k) - 2 * special.gammaln(1 + 1.0 / k)) - target

    return _brentq(f, 0.05, 1e4, xtol=1e-12, rtol=1e-14)


def _loglogistic_scale_from_cov(cov: float) -> float:
    target = 1.0 + cov**2

    def f(s):
        y = np.pi * s
        return np.tan(y) / y - target

    return _brentq(f, 1e-9, 0.5 - 1e-9, xtol=1e-15, rtol=1e-14)


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
