"""The seven special functions mmuq needs, as plain numpy array functions.

``gammaln``, ``gamma`` and ``ndtr`` are step-for-step ports of the Cephes
routines ``lgam``, ``Gamma`` and ``ndtr`` (S. L. Moshier, *Methods and
Programs for Mathematical Functions*, 1989) with their coefficient tables,
as ``scipy.special`` runs them; ``expit`` is 1 / (1 + exp(-x)) and
``logsumexp`` follows scipy's ``_logsumexp`` on a 1-D array.  Each does the
same floating-point operations in the same order, with the logs and
exponentials of C's libm (``math``), so it returns scipy's bits.
``gammaln``, ``ndtr`` and ``expit`` are functions of one Python float,
mapped element by element over an array (``_mapped``), so they return
scipy's bits on arrays too and no element depends on its neighbours.
``gammainc`` (power series or Lentz continued fraction, each element
stopping on its own) and ``log_ndtr`` (the log of ``ndtr``, with an
asymptotic series far in the lower tail) are not ports but hold a stated
accuracy; only the Gamma and InverseGaussian ``cdf`` call them.

``gammaln`` reaches every Gamma parameter row of the likelihood, the grid
and propagation's density passes.  Most calls are a few rows (an MCMC
half-move, a Nelder-Mead step), where mapping the scalar port costs less
than a vectorized copy of it would; the large ones (a Gamma prior-draw
evidence, a density pass) come once per stage, at about 0.7 us an element.
The pipeline reaches ``ndtr`` (1 us) and ``expit`` (0.2 us) only through
the truth pf's ``cdf``.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["gammaln", "gamma", "ndtr", "log_ndtr", "gammainc", "expit", "logsumexp"]

_INF = math.inf
_MAXLOG = 7.09782712893383996843e2  # ln of the largest double
_SQRT1_2 = 7.07106781186547524401e-1
_LOG_SQRT_2PI = 9.18938533204672741780e-1

# lgam: Stirling series A (13 <= x < 1000), its three leading terms (1000 <=
# x <= 1e8), and the rational B / C of log Gamma on [2, 3).
_LGAM_A = (
    8.11614167470508450300e-4,
    -5.95061904284301438324e-4,
    7.93650340457716943945e-4,
    -2.77777777730099687205e-3,
    8.33333333333331927722e-2,
)
_LGAM_A3 = (7.9365079365079365079365e-4, -2.7777777777777777777778e-3, 0.0833333333333333333333)
_LGAM_B = (
    -1.37825152569120859100e3,
    -3.88016315134637840924e4,
    -3.31612992738871184744e5,
    -1.16237097492762307383e6,
    -1.72173700820839662146e6,
    -8.53555664245765465627e5,
)
_LGAM_C = (  # leading coefficient 1
    -3.51815701436523470549e2,
    -1.70642106651881159223e4,
    -2.20528590553854454839e5,
    -1.13933444367982507207e6,
    -2.53252307177582951285e6,
    -2.01889141433532773231e6,
)
_MAXLGM = 2.556348e305

# Gamma: the rational P / Q on [2, 3) and Stirling's formula (stirf) above 33.
_GAMMA_P = (
    1.60119522476751861407e-4,
    1.19135147006586384913e-3,
    1.04213797561761569935e-2,
    4.76367800457137231464e-2,
    2.07448227648435975150e-1,
    4.94214826801497100753e-1,
    9.99999999999999996796e-1,
)
_GAMMA_Q = (
    -2.31581873324120129819e-5,
    5.39605580493303397842e-4,
    -4.45641913851797240494e-3,
    1.18139785222060435552e-2,
    3.58236398605498653373e-2,
    -2.34591795718243348568e-1,
    7.14304917030273074085e-2,
    1.00000000000000000320e0,
)
_STIR = (
    7.87311395793093628397e-4,
    -2.29549961613378126380e-4,
    -2.68132617805781232825e-3,
    3.47222221605458667310e-3,
    8.33333333333482257126e-2,
)
_MAXGAM = 171.624376956302725
_MAXSTIR = 143.01608
_SQTPI = 2.50662827463100050242e0

# erf / erfc: T / U for |x| < 1, P / Q for 1 <= x < 8, R / S from 8 up.
_ERF_T = (
    9.60497373987051638749e0,
    9.00260197203842689217e1,
    2.23200534594684319226e3,
    7.00332514112805075473e3,
    5.55923013010394962768e4,
)
_ERF_U = (  # leading coefficient 1
    3.35617141647503099647e1,
    5.21357949780152679795e2,
    4.59432382970980127987e3,
    2.26290000613890934246e4,
    4.92673942608635921086e4,
)
_ERFC_P = (
    2.46196981473530512524e-10,
    5.64189564831068821977e-1,
    7.46321056442269912687e0,
    4.86371970985681366614e1,
    1.96520832956077098242e2,
    5.26445194995477358631e2,
    9.34528527171957607540e2,
    1.02755188689515710272e3,
    5.57535335369399327526e2,
)
_ERFC_Q = (  # leading coefficient 1
    1.32281951154744992508e1,
    8.67072140885989742329e1,
    3.54937778887819891062e2,
    9.75708501743205489753e2,
    1.82390916687909736289e3,
    2.24633760818710981792e3,
    1.65666309194161350182e3,
    5.57535340817727675546e2,
)
_ERFC_R = (
    5.64189583547755073984e-1,
    1.27536670759978104416e0,
    5.01905042251180477414e0,
    6.16021097993053585195e0,
    7.40974269950448939160e0,
    2.97886665372100240670e0,
)
_ERFC_S = (  # leading coefficient 1
    2.26052863220117276590e0,
    9.39603524938001434673e0,
    1.20489539808096656605e1,
    1.70814450747565897222e1,
    9.60896809063285878198e0,
    3.36907645100081516050e0,
)


def _polevl(x, coefs):
    """Cephes ``polevl``: Horner's rule, highest degree first."""
    ans = coefs[0]
    for c in coefs[1:]:
        ans = ans * x + c
    return ans


def _p1evl(x, coefs):
    """Cephes ``p1evl``: ``polevl`` with an implied leading coefficient 1."""
    ans = x + coefs[0]
    for c in coefs[1:]:
        ans = ans * x + c
    return ans


def _mapped(port, x):
    """``port``, a function of one float, on a scalar x (a float) or element
    by element on an array of x (an array of its shape)."""
    if np.ndim(x) == 0:
        return port(float(x))
    x = np.asarray(x, dtype=float)
    return np.fromiter(map(port, x.ravel().tolist()), float, count=x.size).reshape(x.shape)


# ---------------------------------------------------------------------------
# log Gamma


def _lgam(x: float) -> float:
    """Cephes ``lgam`` on one float, with libm's log: scipy's bits."""
    if not x > 0.0:
        return x if x != x else _INF
    if x < 13.0:
        z = 1.0
        p = 0.0
        u = x
        while u >= 3.0:
            p -= 1.0
            u = x + p
            z *= u
        while u < 2.0:
            z /= u
            p += 1.0
            u = x + p
        if u == 2.0:
            return math.log(z)
        p -= 2.0
        x = x + p
        return math.log(z) + x * _polevl(x, _LGAM_B) / _p1evl(x, _LGAM_C)
    if x > _MAXLGM:
        return _INF
    q = (x - 0.5) * math.log(x) - x + _LOG_SQRT_2PI
    if x > 1e8:
        return q
    p = 1.0 / (x * x)
    return q + _polevl(p, _LGAM_A3 if x >= 1000.0 else _LGAM_A) / x


def gammaln(x):
    """log Gamma(x) (Cephes ``lgam``) for x > 0, on a scalar or, element by
    element, an array: scipy's bits either way.

    Below 13 the argument recurs into [2, 3), where a rational function
    applies; from 13 up Stirling's formula with the series A, from 1000 up
    its three leading terms, and above 1e8 none.  Non-positive x, -inf
    included, gives +inf (scipy gives log |Gamma(x)|, +inf only at the
    poles, and -inf at -inf); x above 2.556348e305 gives +inf and NaN NaN,
    as in scipy.
    """
    return _mapped(_lgam, x)


def gamma(x: float) -> float:
    """Gamma(x) for a scalar x > 0 (Cephes ``Gamma``): downward or upward
    recurrence into [2, 3) and a rational function there, 1 / (x (1 + gamma
    x)) below 1e-9, and Stirling's formula (``stirf``) above 33."""
    x = float(x)
    if not x > 0.0:
        raise ValueError(f"gamma needs x > 0, got {x!r}")
    if x > 33.0:
        if x >= _MAXGAM:
            return _INF
        w = 1.0 / x
        w = 1.0 + w * _polevl(w, _STIR)
        y = math.exp(x)
        if x > _MAXSTIR:  # pow(x, x - 0.5) would overflow
            v = math.pow(x, 0.5 * x - 0.25)
            y = v * (v / y)
        else:
            y = math.pow(x, x - 0.5) / y
        return _SQTPI * y * w
    z = 1.0
    while x >= 3.0:
        x -= 1.0
        z *= x
    while x < 2.0:
        if x < 1e-9:
            return z / ((1.0 + 0.5772156649015329 * x) * x)
        z /= x
        x += 1.0
    if x == 2.0:
        return z
    x -= 2.0
    return z * _polevl(x, _GAMMA_P) / _polevl(x, _GAMMA_Q)


# ---------------------------------------------------------------------------
# normal CDF and the logistic function


def _ndtr1(a: float) -> float:
    """Cephes ``ndtr`` on one float: with x = a / sqrt 2, 0.5 + erf(x) / 2
    below |x| = 1 / sqrt 2, else erfc(|x|) / 2 or 1 minus it; erfc(z) is 1 -
    erf(z) below 1, exp(-z^2) P(z) / Q(z) below 8, exp(-z^2) R(z) / S(z)
    above, 0 once exp(-z^2) underflows."""
    x = a * _SQRT1_2
    z = abs(x)
    if z < 1.0:
        erf = x * _polevl(x * x, _ERF_T) / _p1evl(x * x, _ERF_U)
        if z < _SQRT1_2:
            return 0.5 + 0.5 * erf
        erfc = 1.0 - abs(erf)
    elif -z * z < -_MAXLOG:
        erfc = 0.0
    else:
        p, q = (_ERFC_P, _ERFC_Q) if z < 8.0 else (_ERFC_R, _ERFC_S)
        erfc = math.exp(-z * z) * _polevl(z, p) / _p1evl(z, q)
    y = 0.5 * erfc
    return 1.0 - y if x > 0.0 else y


def ndtr(x):
    """Standard normal CDF (Cephes ``ndtr``) on a scalar or, element by
    element, an array: scipy's bits either way."""
    return _mapped(_ndtr1, x)


def _expit1(x: float) -> float:
    try:
        return 1.0 / (1.0 + math.exp(-x))
    except OverflowError:  # exp(-x) is inf
        return 0.0


def expit(x):
    """The logistic function 1 / (1 + exp(-x)) on a scalar or, element by
    element, an array: scipy's bits either way."""
    return _mapped(_expit1, x)


# log Phi(x) = -x^2 / 2 - ln(-x) - ln(2 pi) / 2 + ln(1 + sum_k (-1)^k
# (2k - 1)!! / x^2k) below _LOG_NDTR_ASYMPTOTIC, where Phi underflows
_LOG_NDTR_ASYMPTOTIC = -37.0
_LOG_NDTR_SERIES = tuple((-1.0) ** k * math.prod(range(1, 2 * k, 2)) for k in range(9, 0, -1))


def log_ndtr(x):
    """log of the standard normal CDF, to about 1e-15 relative: log1p(-ndtr(-x))
    above 0, log(ndtr(x)) down to -37, an asymptotic series below.  Each
    element runs only its own branch (NaN takes the middle one)."""
    x = np.asarray(x, dtype=float)
    out = np.empty(x.shape)
    upper = x > 0.0
    far = x < _LOG_NDTR_ASYMPTOTIC
    lower = ~(upper | far)
    with np.errstate(all="ignore"):
        out[upper] = np.log1p(-ndtr(-x[upper]))
        out[lower] = np.log(ndtr(x[lower]))
        xf = x[far]
        w = 1.0 / (xf * xf)
        series = np.log1p(w * _polevl(w, _LOG_NDTR_SERIES))
        out[far] = -0.5 * xf * xf - np.log(-xf) - _LOG_SQRT_2PI + series
    return out[()]


# ---------------------------------------------------------------------------
# regularized lower incomplete gamma


# Stirling's series for log Gamma(a) - ((a - 1/2) ln a - a + ln(2 pi) / 2),
# in 1 / a^2 and divided by a; seven terms hold it to 1e-16 from a = 10 up.
_STIRLING_CORRECTION = (
    1.0 / 156.0,
    -691.0 / 360360.0,
    1.0 / 1188.0,
    -1.0 / 1680.0,
    1.0 / 1260.0,
    -1.0 / 360.0,
    1.0 / 12.0,
)


def _log_gamma_density_factor(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """ln(x^a e^-x / Gamma(a)).  From a = 10 up it is written as a (ln(1 + t)
    - t) + ln(a / 2 pi) / 2 - (Stirling correction), t = (x - a) / a, which
    avoids the cancellation of a ln x - x - ln Gamma(a) at large a."""
    direct = a * np.log(x) - x - gammaln(a)
    t = (x - a) / a
    w = 1.0 / (a * a)
    correction = _polevl(w, _STIRLING_CORRECTION) / a
    stirling = a * (np.log1p(t) - t) + 0.5 * np.log(a) - _LOG_SQRT_2PI - correction
    return np.where(a >= 10.0, stirling, direct)


def gammainc(a, x):
    """Regularized lower incomplete gamma P(a, x) for a > 0: its power
    series below x = a + 1, else 1 - Q(a, x) by the Lentz continued fraction
    (Numerical Recipes, section 6.2).  Within 1e-14 of scipy's, and Q = 1 - P
    within about 1e-12 relative up to a = 1e4.  P is 0 at x = 0 and 1 at x
    = inf; NaN for a <= 0, x < 0 or a NaN."""
    a, x = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(x, dtype=float))
    out = np.full(x.shape, np.nan)
    out[(a > 0.0) & (a < _INF) & (x == 0.0)] = 0.0
    out[(a > 0.0) & (a < _INF) & (x == _INF)] = 1.0
    ok = (a > 0.0) & (a < _INF) & (x > 0.0) & (x < _INF)
    eps = np.finfo(float).eps
    with np.errstate(all="ignore"):
        series = ok & (x < a + 1.0)
        if series.any():
            sa, sx = a[series], x[series]
            term = 1.0 / sa
            total = term.copy()
            n = sa.copy()
            done = np.zeros(total.shape, dtype=bool)
            while not done.all():
                n += 1.0
                term *= sx / n
                # a converged element stops summing, as it would alone
                total += np.where(done, 0.0, term)
                done |= term <= total * eps
            out[series] = total * np.exp(_log_gamma_density_factor(sa, sx))
        fraction = ok & ~series
        if fraction.any():
            fa, fx = a[fraction], x[fraction]
            tiny = np.finfo(float).tiny / eps
            b = fx + 1.0 - fa
            c = np.full(b.shape, 1.0 / tiny)
            d = 1.0 / b
            h = d.copy()
            done = np.zeros(h.shape, dtype=bool)
            i = 0
            while not done.all():
                i += 1
                an = -i * (i - fa)
                b += 2.0
                d = an * d + b
                d[np.abs(d) < tiny] = tiny
                c = b + an / c
                c[np.abs(c) < tiny] = tiny
                d = 1.0 / d
                delta = d * c
                # a converged element stays put: rounding keeps delta
                # wandering an ulp or two around 1
                h *= np.where(done, 1.0, delta)
                done |= np.abs(delta - 1.0) <= eps
            out[fraction] = 1.0 - h * np.exp(_log_gamma_density_factor(fa, fx))
    return out[()]


# ---------------------------------------------------------------------------
# log-sum-exp


def logsumexp(a) -> float:
    """log(sum(exp(a))) of a 1-D array, as scipy 1.17's ``_logsumexp``
    computes it: the maximal elements, m of them, are split out of the sum s
    of exp(a - max) over the others, and the result is log1p(s / m) + log m
    + max; where that is not finite, log(sum(exp(a))) directly."""
    a = np.asarray(a, dtype=float)
    with np.errstate(all="ignore"):
        a_max = np.max(a)
        is_max = a == a_max
        m = np.sum(is_max, dtype=float)
        s = np.sum(np.exp(np.where(is_max, -_INF, a) - a_max))
        if s != 0.0:
            s = s / m
        out = np.log1p(s) + np.log(m) + a_max
        if not np.isfinite(out):
            out = np.log(np.sum(np.exp(a)))
    return float(out)
