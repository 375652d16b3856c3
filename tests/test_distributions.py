"""Density, CDF, sampling and likelihood checks for the candidate families.

Quadrature and moment oracles are computed in-test; they never reuse the
closed-form implementations they check.
"""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.special
from scipy.optimize import brentq
from scipy.special import gammaln, ndtr

from mmuq import distributions, special
from mmuq.distributions import (
    _QUADRATIC_CENTRE,
    _brentq,
    _matmul,
    _valid_rows,
    FAMILIES,
    POSITIVE_PARAMS,
    Dataset,
    InvalidParameterError,
    ModelFamily,
    cdf,
    log_likelihood,
    log_likelihood_batch,
    log_pdf,
    log_pdf_grid,
    moments,
    params_from_moments,
    pdf,
    sample,
    sample_one_per,
)
from mmuq.metrics import default_sigma0_grid
from mmuq.priors import ENVELOPE_COV, ENVELOPE_MEAN, default_uniform_prior

from conftest import GENERIC_THETAS, STUDY_THETAS


def integration_grid(family, theta, n=200_001, sds=8.0):
    """Support-covering grid: mean +/- sds standard deviations, clipped to
    the positive axis for positive-support families."""
    mean, sd = moments(family, theta)
    lo = mean - sds * sd
    if family is not ModelFamily.NORMAL and family is not ModelFamily.LOGISTIC:
        lo = max(lo, 1e-9)
    return np.linspace(lo, mean + sds * sd, n)


class TestLogPdf:
    def test_standard_normal_mode(self):
        assert log_pdf(ModelFamily.NORMAL, (0.0, 1.0), 0.0) == pytest.approx(
            np.log(1.0 / np.sqrt(2.0 * np.pi)), abs=1e-12
        )

    def test_lognormal_outside_support(self):
        assert log_pdf(ModelFamily.LOGNORMAL, (0.0, 1.0), 0.0) == -np.inf
        assert log_pdf(ModelFamily.LOGNORMAL, (0.0, 1.0), -3.5) == -np.inf

    def test_gamma_normalization_by_quadrature(self):
        # oracle: trapezoid integral of the density over (0, 200)
        x = np.linspace(1e-9, 200.0, 400_001)
        integral = np.trapezoid(pdf(ModelFamily.GAMMA, (2.0, 3.0), x), x)
        assert integral == pytest.approx(1.0, abs=1e-6)
        # unnormalized shape: p(4)/p(2) = (4/2) exp(-(4-2)/3) for shape 2
        ratio = pdf(ModelFamily.GAMMA, (2.0, 3.0), 4.0) / pdf(ModelFamily.GAMMA, (2.0, 3.0), 2.0)
        assert ratio == pytest.approx(2.0 * np.exp(-2.0 / 3.0), rel=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_density_integrates_to_one(self, family):
        for theta in (STUDY_THETAS[family], GENERIC_THETAS[family]):
            x = integration_grid(family, theta)
            integral = np.trapezoid(pdf(family, theta, x), x)
            assert 0.999 <= integral <= 1.001, f"{family} {theta}: {integral}"

    @pytest.mark.parametrize("family", FAMILIES)
    def test_invalid_theta_raises(self, family):
        with pytest.raises(InvalidParameterError):
            log_pdf(family, (1.0, -1.0), 1.0)
        assert not _valid_rows(family, np.array([[1.0, np.nan]]))[0]

    @pytest.mark.parametrize(
        "family,inside,past",
        [
            (ModelFamily.NORMAL, (41.0, 1.001e-4), [(41.0, 0.999e-4), (35, 1e-150), (40, 1e-160)]),
            (ModelFamily.LOGNORMAL, (np.log(40.0) + 1, 1.001e-4), [(np.log(40.0) + 1, 0.999e-4)]),
            (ModelFamily.INVERSE_GAUSSIAN, (30.0, 2.997e9), [(30.0, 3.003e9)]),
        ],
    )
    def test_rows_past_the_cancelling_limit_are_invalid(self, family, inside, past):
        # The linear form's terms grow as s = ((p1 - c0) / p2)^2 (c0 = 40 or
        # ln 40) or lam / mu and cancel near the mode; a row with s > 1e8 is
        # invalid.  At (35, 1e-150) the form read 0.0 at the mode.  A scale
        # below 1e-154 is invalid also at p1 = c0, where 1 / p2^2 overflows
        # and the form read NaN.
        data = Dataset([35.0])
        assert _valid_rows(family, np.array([inside]))[0]
        assert np.isfinite(log_pdf(family, inside, inside[0]))
        for theta in past:
            assert not _valid_rows(family, np.array([theta]))[0]
            with pytest.raises(InvalidParameterError):
                log_pdf_grid(family, np.array([theta]), np.array([theta[0]]))
            assert log_likelihood_batch(family, np.array([theta]), data)[0] == -np.inf

    def test_weibull_shape_one_at_subnormal_point(self):
        # at shape 1 the density at a subnormal point is 1 / s
        theta = (1.0, 2.0)
        got = log_pdf_grid(ModelFamily.WEIBULL, np.array([theta]), np.array([5e-324, 1.0]))
        assert got[0, 0] == np.log(0.5)
        assert log_pdf(ModelFamily.WEIBULL, theta, 5e-324) == np.log(0.5)
        assert got[0, 1] == np.log(0.5) - 0.5

    @pytest.mark.parametrize("theta", [(0.5, 2.0), (2.5, 2.0), (10.2, 36.5), (127.5, 20.0)])
    def test_weibull_at_the_smallest_subnormal_is_finite(self, theta):
        # x / s underflows to 0 at 5e-324, but ln x does not: the log density
        # (k - 1) ln x + ln k - k ln s - exp(k (ln x - ln s)) is finite.
        k, s = theta
        lx = np.log(5e-324)
        want = (k - 1.0) * lx + np.log(k) - k * np.log(s) - np.exp(k * (lx - np.log(s)))
        got = log_pdf_grid(ModelFamily.WEIBULL, np.array([theta]), np.array([5e-324]))[0, 0]
        assert np.isfinite(got)
        assert got == pytest.approx(want, rel=1e-13)


class TestCdf:
    def test_normal_symmetry_at_mean(self):
        assert cdf(ModelFamily.NORMAL, (5.0, 2.0), 5.0) == pytest.approx(0.5, abs=1e-14)

    def test_weibull_exponential_point(self):
        for scale in (1.0, 17.3):
            assert cdf(ModelFamily.WEIBULL, (1.0, scale), scale) == pytest.approx(
                1.0 - np.exp(-1.0), rel=1e-12
            )

    def test_logistic_cdf_matches_pdf_quadrature(self):
        # oracle: trapezoid integral of the density from far left to x
        theta = (34.0, 2.0)
        x = np.linspace(34.0 - 80.0, 30.0, 2_000_001)
        integral = np.trapezoid(pdf(ModelFamily.LOGISTIC, theta, x), x)
        assert cdf(ModelFamily.LOGISTIC, theta, 30.0) == pytest.approx(integral, abs=1e-8)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_monotone_and_limits(self, family):
        theta = STUDY_THETAS[family]
        x = integration_grid(family, theta, n=4001)
        c = cdf(family, theta, x)
        assert np.all(np.diff(c) >= 0.0)
        assert c[0] < 5e-4 and c[-1] > 1.0 - 5e-4
        assert np.all((c >= 0.0) & (c <= 1.0))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_support_endpoints(self, family):
        theta = STUDY_THETAS[family]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cdf(family, theta, -np.inf) == 0.0
            assert cdf(family, theta, np.inf) == 1.0
            np.testing.assert_array_equal(cdf(family, theta, [-np.inf, np.inf]), [0.0, 1.0])
            assert np.isnan(cdf(family, theta, np.nan))
            assert np.isnan(cdf(family, theta, [0.5, np.nan, 2.0])[1])
            if family not in (ModelFamily.NORMAL, ModelFamily.LOGISTIC):
                np.testing.assert_array_equal(
                    cdf(family, theta, [-np.inf, -5.0, -1e-300, -0.0, 0.0]), 0.0
                )

    @pytest.mark.parametrize("family", FAMILIES)
    def test_cdf_agrees_with_sample_quantiles(self, family, rng):
        theta = STUDY_THETAS[family]
        draws = sample(family, theta, rng, 10**6)
        for q in (0.1, 0.5, 0.9):
            xq = np.quantile(draws, q)
            assert cdf(family, theta, xq) == pytest.approx(q, abs=0.005)


class TestSample:
    def test_lognormal_moment_identity(self, rng):
        draws = sample(ModelFamily.LOGNORMAL, (3.54242, 0.115612), rng, 10**6)
        assert draws.mean() == pytest.approx(34.782, abs=0.02)

    def test_normal_ks_against_reference_cdf(self, rng):
        n = 10**5
        draws = np.sort(sample(ModelFamily.NORMAL, (0.0, 1.0), rng, n))
        ref = ndtr(draws)
        ks = np.max(
            np.maximum(ref - np.arange(n) / n, np.arange(1, n + 1) / n - ref)
        )
        assert ks < 1.6276 / np.sqrt(n)  # 1% critical value

    @pytest.mark.parametrize("family", FAMILIES)
    def test_deterministic_given_seed(self, family):
        theta = GENERIC_THETAS[family]
        a = sample(family, theta, np.random.default_rng(11), 64)
        b = sample(family, theta, np.random.default_rng(11), 64)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_sample_equals_sample_one_per_on_tiled_theta(self, family):
        theta = np.asarray(GENERIC_THETAS[family], dtype=float)
        iid = sample(family, theta, np.random.default_rng(5), 257)
        per_row = sample_one_per(family, np.tile(theta, (257, 1)), np.random.default_rng(5))
        np.testing.assert_array_equal(iid.view(np.uint64), per_row.view(np.uint64))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_sample_one_per_matches_distribution(self, family, rng):
        theta = np.asarray(STUDY_THETAS[family], dtype=float)
        thetas = np.tile(theta, (20_000, 1))
        draws = sample_one_per(family, thetas, rng)
        mean, sd = moments(family, theta)
        assert draws.mean() == pytest.approx(mean, abs=5.0 * sd / np.sqrt(draws.size))


class TestLogLikelihood:
    def test_single_observation_equals_log_pdf(self):
        data = Dataset([3.7])
        for family in FAMILIES:
            theta = STUDY_THETAS[family]
            assert log_likelihood(family, theta, data) == pytest.approx(
                log_pdf(family, theta, 3.7), rel=1e-12
            )

    def test_repeated_point_additivity(self):
        ll = log_likelihood(ModelFamily.NORMAL, (0.0, 1.0), Dataset([0.0, 0.0]))
        assert ll == pytest.approx(2.0 * np.log(1.0 / np.sqrt(2.0 * np.pi)), rel=1e-12)

    def test_gamma_matches_linear_space_product(self):
        # oracle: product of densities accumulated in linear space
        theta = (2.0, 3.0)
        values = np.array([1.2, 4.0, 2.7, 6.1, 3.3])
        product = 1.0
        for v in values:
            product *= pdf(ModelFamily.GAMMA, theta, v)
        assert log_likelihood(ModelFamily.GAMMA, theta, Dataset(values)) == pytest.approx(
            np.log(product), rel=1e-12
        )

    @pytest.mark.parametrize("family", FAMILIES)
    def test_concat_additivity(self, family, rng):
        theta = STUDY_THETAS[family]
        d1 = Dataset(sample(family, theta, rng, 40))
        d2 = Dataset(sample(family, theta, rng, 25))
        lhs = log_likelihood(family, theta, Dataset(np.concatenate([d1.values, d2.values])))
        rhs = log_likelihood(family, theta, d1) + log_likelihood(family, theta, d2)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_batch_agrees_with_scalar(self, family, rng):
        data = Dataset(sample(family, STUDY_THETAS[family], rng, 30))
        base = np.asarray(STUDY_THETAS[family], dtype=float)
        thetas = base * rng.uniform(0.9, 1.1, size=(8, 2))
        batch = log_likelihood_batch(family, thetas, data)
        for row, expected in zip(thetas, batch):
            assert log_likelihood(family, row, data) == pytest.approx(expected, rel=1e-10)

    def test_batch_invalid_rows_are_neg_inf(self):
        data = Dataset([1.0, 2.0])
        thetas = np.array([[1.0, 1.0], [1.0, -1.0], [np.nan, 1.0]])
        out = log_likelihood_batch(ModelFamily.NORMAL, thetas, data)
        assert np.isfinite(out[0]) and out[1] == -np.inf and out[2] == -np.inf

    @pytest.mark.parametrize("family", FAMILIES)
    def test_valid_rows_unchanged_by_invalid_neighbours(self, family, rng):
        # the formula runs on every row, invalid ones too, and one mask then
        # sets the invalid rows to -inf: each valid row must get the bits of
        # a call on the valid rows alone, whose blocks of the data term h
        # (six rows each at n = 10^4) hold other rows, and every invalid row
        # must be exactly -inf, with no numpy warning on the way
        data = Dataset(sample(family, STUDY_THETAS[family], rng, 10_000))
        p1, p2 = STUDY_THETAS[family]
        valid = np.array([p1, p2]) * rng.uniform(0.9, 1.1, size=(12, 2))
        invalid = [[p1, 0.0], [p1, -p2], [np.nan, p2], [p1, np.nan]]
        invalid += [[v, p2] for v in (np.inf, -np.inf)] + [[p1, v] for v in (np.inf, -np.inf)]
        if POSITIVE_PARAMS[family][0]:
            invalid += [[0.0, p2], [-p1, p2]]
        if family in _QUADRATIC_CENTRE:
            # ((p1 - c0) / p2)^2 = 4e8, past the cancelling bound of 1e8:
            # the formula gives a finite but inexact sum here
            invalid.append([_QUADRATIC_CENTRE[family] + 2e4 * p2, p2])
        if family is ModelFamily.INVERSE_GAUSSIAN:
            invalid.append([p1, 2e8 * p1])  # lam / mu = 2e8, finite likewise
        mixed = np.concatenate([valid, invalid])
        order = rng.permutation(mixed.shape[0])
        mixed, is_valid = mixed[order], order < valid.shape[0]
        np.testing.assert_array_equal(_valid_rows(family, mixed), is_valid)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = log_likelihood_batch(family, mixed, data)
            want = log_likelihood_batch(family, mixed[is_valid], data)
        assert np.all(np.isfinite(want))
        np.testing.assert_array_equal(out[is_valid], want)
        assert np.all(out[~is_valid] == -np.inf)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", [1, 5000])
    def test_batch_with_no_valid_row(self, family, n, rng):
        # at n = 5000 these 40 rows would take four blocks of the data term
        # h; with no valid row there is nothing to block, and no scratch
        data = Dataset(sample(family, STUDY_THETAS[family], rng, n))
        invalid = np.tile([[np.nan, 1.0], [1.0, -1.0], [np.inf, 1.0], [1.0, np.nan]], (10, 1))
        out = log_likelihood_batch(family, invalid, data)
        assert out.shape == (40,) and np.all(out == -np.inf)
        assert log_likelihood_batch(family, np.empty((0, 2)), data).shape == (0,)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_batch_overflow_rows_are_neg_inf(self, family):
        # Extreme corners of the box overflow to inf - inf = nan inside the
        # formulas (Gamma and Weibull at the second row, Normal and
        # Lognormal at the third); such rows come back as -inf and the
        # ordinary row in the same batch is untouched.  InverseGaussian's
        # linear form overflows at none of them: its likelihood there is
        # finite and matches the direct formula written without overflow.
        data = Dataset([1.0, 2.0, 3.0])
        thetas = np.array(
            [GENERIC_THETAS[family], [1.7e308, 1e-300], [1e200, 1e200], [1e200, 1e-300]]
        )
        with np.errstate(all="ignore"):
            out = log_likelihood_batch(family, thetas, data)
        assert not np.any(np.isnan(out)) and np.all(out < np.inf)
        if family is ModelFamily.INVERSE_GAUSSIAN:
            want = masked_log_pdf_grid(family, thetas[1:], data.values).sum(axis=1)
            assert np.all(np.isfinite(want))
            np.testing.assert_allclose(out[1:], want, rtol=1e-14)
        else:
            assert out[1] == -np.inf
        if family in (ModelFamily.NORMAL, ModelFamily.LOGNORMAL):
            assert out[2] == -np.inf
        assert np.isfinite(out[0])
        assert out[0] == log_likelihood_batch(family, thetas[:1], data)[0]

    def test_outside_support_is_neg_inf(self):
        data = Dataset([2.0, -1.0])
        assert log_likelihood(ModelFamily.LOGNORMAL, (0.0, 1.0), data) == -np.inf

    @pytest.mark.parametrize("family", FAMILIES)
    def test_grid_matches_scalar_log_pdf(self, family, rng):
        # the scalar entry point against the masked reference formula
        thetas = jittered_thetas(family, rng)
        x = edge_and_random_points(rng)
        want = masked_log_pdf_grid(family, thetas, x)
        for theta, row in zip(thetas, want):
            assert_matches_reference(family, log_pdf(family, theta, x), row, theta[None], x)
        for xv, expected in zip(x[:8], want[0, :8]):  # 0-d inputs
            assert_matches_reference(
                family,
                np.array([log_pdf(family, thetas[0], xv)]),
                np.array([expected]),
                thetas[:1],
                np.array([xv]),
            )


_LOG_2PI = np.log(2.0 * np.pi)

EDGE_POINTS = [-np.inf, -3.0, -1e-300, -0.0, 0.0, 1e-300, np.nan, np.inf]


def jittered_thetas(family, rng):
    """Twelve parameter rows around the study and generic points."""
    thetas = np.array(
        [STUDY_THETAS[family], GENERIC_THETAS[family]]
    ) * rng.uniform(0.8, 1.25, size=(6, 1, 2))
    return thetas.reshape(-1, 2)


def edge_and_random_points(rng):
    return np.concatenate(
        [EDGE_POINTS, rng.normal(20.0, 25.0, 500), rng.lognormal(0.0, 1.0, 500)]
    )


def assert_same_bits(got, want):
    """Equal bit patterns, except that any NaN matches any NaN."""
    assert got.shape == want.shape
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    keep = ~np.isnan(want)
    np.testing.assert_array_equal(got[keep].view(np.uint64), want[keep].view(np.uint64))


# Every log density is linear, c(theta) . T(x), in a few per-point features
# plus a per-cell term h(theta, t(x)), evaluated as one (rows x K) . (K x
# points) product plus h.  It rounds differently from the direct formula:
# the two agree within LINEAR_ULPS * eps * (1 + linear_term_sizes).
# Logistic's linear form is -ln s alone and matches it bit for bit.
LINEAR_ULPS = 8.0
# Centre c0 of the Normal and Lognormal features: the middle of the envelope.
CENTRE = {
    ModelFamily.NORMAL: np.mean(ENVELOPE_MEAN),
    ModelFamily.LOGNORMAL: np.log(np.mean(ENVELOPE_MEAN)),
}


def linear_term_sizes(family, thetas, x):
    """sum_k |c_k T_k(x)| plus the size of h, (rows x points), with the terms
    written out: Normal and Lognormal as a quadratic in u = t(x) - c0,
    Gamma as (k - 1) ln x - x / s - k ln s - ln Gamma(k), InverseGaussian as
    -3/2 ln x - lam x / (2 mu^2) - lam / (2 x) + (ln lam - ln 2 pi) / 2 + lam / mu,
    Logistic and Loglogistic as -ln s (- ln x) + h with h the standard
    logistic log density, Weibull as (k - 1) ln x + ln k - k ln s + h with
    h = -exp(k (ln x - ln s)), whose argument carries a rounding error of
    about eps k (|ln x| + |ln s|)."""
    p1 = thetas[:, 0][:, None]
    p2 = thetas[:, 1][:, None]
    x = x[None, :]
    with np.errstate(all="ignore"):
        if family in CENTRE:
            lognormal = family is ModelFamily.LOGNORMAL
            c0 = CENTRE[family]
            u = (np.log(x) if lognormal else x) - c0
            d = p1 - c0
            terms = [
                u**2 / (2.0 * p2**2),
                d * u / p2**2 - (u if lognormal else 0.0),
                np.log(p2) + 0.5 * _LOG_2PI + d**2 / (2.0 * p2**2) + (c0 if lognormal else 0.0),
            ]
        elif family is ModelFamily.GAMMA:
            terms = [(p1 - 1.0) * np.log(x), x / p2, p1 * np.log(p2) + gammaln(p1)]
        elif family in (ModelFamily.LOGISTIC, ModelFamily.LOGLOGISTIC):
            t = x if family is ModelFamily.LOGISTIC else np.log(x)
            z = -np.abs((t - p1) / p2)
            h = z - 2.0 * np.log1p(np.exp(z))
            terms = [t if family is ModelFamily.LOGLOGISTIC else 0.0, np.log(p2), h]
        elif family is ModelFamily.WEIBULL:
            lx, ls = np.log(x), np.log(p2)
            h = np.exp(p1 * (lx - ls))
            terms = [
                (p1 - 1.0) * lx,
                np.log(p1) - p1 * ls,
                h * (1.0 + p1 * (np.abs(lx) + np.abs(ls))),
            ]
        else:
            terms = [
                1.5 * np.log(x),
                p2 * x / (2.0 * p1**2),
                p2 / (2.0 * x),
                0.5 * (np.log(p2) - _LOG_2PI) + p2 / p1,
            ]
        return sum(np.abs(t) for t in np.broadcast_arrays(*terms))


def assert_matches_reference(family, got, want, thetas, x):
    """Bitwise equal to the masked reference at ``thetas`` and ``x`` for
    Logistic; for the other families the same NaN and infinite cells and
    finite cells within the linear-form bound."""
    if family is ModelFamily.LOGISTIC:
        assert_same_bits(got, want)
        return
    assert got.shape == want.shape
    np.testing.assert_array_equal(np.isnan(got), np.isnan(want))
    inf = np.isinf(want)
    np.testing.assert_array_equal(got[inf], want[inf])
    finite = np.isfinite(want)
    np.testing.assert_array_equal(np.isfinite(got), finite)
    sizes = linear_term_sizes(family, thetas, x).reshape(want.shape)
    bound = LINEAR_ULPS * np.finfo(float).eps * (1.0 + sizes[finite])
    err = np.abs(got[finite] - want[finite])
    assert np.all(err <= bound), np.max(err / bound)


def masked_log_pdf_grid(family, thetas, x):
    """The grid log density written as a boolean column mask over the
    support (x = +inf is outside for every family): the formula runs on the
    inside columns only."""
    p1 = thetas[:, 0][:, None]
    p2 = thetas[:, 1][:, None]
    out = np.full((thetas.shape[0], x.size), -np.inf)
    positive = family not in (ModelFamily.NORMAL, ModelFamily.LOGISTIC)
    inside = ~((x <= 0.0) | (x == np.inf)) if positive else ~np.isinf(x)
    xi = x[inside][None, :]

    def logistic_std(z):
        a = -np.abs(z)
        return a - 2.0 * np.log1p(np.exp(a))

    with np.errstate(all="ignore"):
        if family is ModelFamily.NORMAL:
            out[:, inside] = -np.log(p2) - 0.5 * _LOG_2PI - 0.5 * ((xi - p1) / p2) ** 2
        elif family is ModelFamily.LOGNORMAL:
            lx = np.log(xi)
            out[:, inside] = -lx - np.log(p2) - 0.5 * _LOG_2PI - 0.5 * ((lx - p1) / p2) ** 2
        elif family is ModelFamily.GAMMA:
            out[:, inside] = (
                (p1 - 1.0) * np.log(xi) - xi / p2 - p1 * np.log(p2) - gammaln(p1)
            )
        elif family is ModelFamily.INVERSE_GAUSSIAN:
            # lam (x - mu)^2 / (2 mu^2 x) as a product of three factors, so
            # that it overflows only where the value does
            out[:, inside] = 0.5 * (np.log(p2) - _LOG_2PI - 3.0 * np.log(xi)) - (
                p2 / (2.0 * p1) * ((xi - p1) / p1) * ((xi - p1) / xi)
            )
        elif family is ModelFamily.LOGISTIC:
            out[:, inside] = logistic_std((xi - p1) / p2) - np.log(p2)
        elif family is ModelFamily.LOGLOGISTIC:
            lx = np.log(xi)
            out[:, inside] = logistic_std((lx - p1) / p2) - np.log(p2) - lx
        elif family is ModelFamily.WEIBULL:
            r = xi / p2
            out[:, inside] = np.log(p1) - np.log(p2) + (p1 - 1.0) * np.log(r) - r**p1
    return out


class TestLogPdfGrid:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_bitwise_equal_to_masked_formula(self, family, rng):
        thetas = jittered_thetas(family, rng)
        x = edge_and_random_points(rng)
        for xs in (x, x[::3]):  # contiguous and strided points
            got = log_pdf_grid(family, thetas, xs)
            want = masked_log_pdf_grid(family, thetas, xs)
            assert_matches_reference(family, got, want, thetas, xs)
            assert np.all(got[:, xs == -np.inf] == -np.inf)
            assert np.all(np.isnan(got[:, np.isnan(xs)]))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_quadratic_over_noninformative_box(self, family, rng):
        # The box's corners and 3000 draws, at the edge and random points and
        # at the density metric's grid.  The linear form's terms grow as
        # s = ((p1 - c0) / p2)^2 (Normal, Lognormal; 10^4 at the Normal
        # corners with p2 = 0.2) or lam / mu (InverseGaussian) and cancel
        # near the mode, so the error is a few ulps of the largest term.
        box = default_uniform_prior(family)
        corners = np.array(list(itertools.product(*zip(box.lo, box.hi))))
        thetas = np.concatenate([corners, rng.uniform(box.lo, box.hi, size=(3000, 2))])
        x = np.concatenate([edge_and_random_points(rng), default_sigma0_grid()])
        want = masked_log_pdf_grid(family, thetas, x)
        assert_matches_reference(family, log_pdf_grid(family, thetas, x), want, thetas, x)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_quadratic_far_points_are_never_nan(self, family, rng):
        # (t(x) - c0)^2 or x / s overflows here and the product would hold
        # inf - inf; these cells keep the direct formula's -inf (finite
        # values stay)
        x = np.array([np.inf, 1e308, -1e308, 1.7e308, -1.7e308])
        box = default_uniform_prior(family)
        thetas = np.concatenate(
            [
                [GENERIC_THETAS[family], STUDY_THETAS[family]],
                jittered_thetas(family, rng),
                list(itertools.product(*zip(box.lo, box.hi))),
            ]
        )
        got = log_pdf_grid(family, thetas, x)
        assert not np.any(np.isnan(got))
        assert_matches_reference(family, got, masked_log_pdf_grid(family, thetas, x), thetas, x)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("n", [1, 37, 10**4])
    def test_likelihood_is_the_sum_of_the_grid_row(self, family, n, rng):
        # The likelihood is the grid's linear form on the feature sums plus
        # the grid's h summed over the data, so it equals the sum of the
        # grid row over the data within the one rounding bound, taken over
        # every term of every point.
        box = default_uniform_prior(family)
        thetas = rng.uniform(box.lo, box.hi, size=(200, 2))
        x = sample(family, STUDY_THETAS[family], rng, n)
        got = log_likelihood_batch(family, thetas, Dataset(x))
        want = log_pdf_grid(family, thetas, x).sum(axis=1)
        assert np.all(np.isfinite(want))
        bound = LINEAR_ULPS * np.finfo(float).eps * (
            1.0 + linear_term_sizes(family, thetas, x).sum(axis=1)
        )
        err = np.abs(got - want)
        assert np.all(err <= bound), np.max(err / bound)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_one_point_likelihood_is_the_grid_cell(self, family, rng):
        # One formula: at one data point the likelihood and the grid density
        # run the same operations, so they agree bit for bit.
        box = default_uniform_prior(family)
        thetas = rng.uniform(box.lo, box.hi, size=(200, 2))
        for x in sample(family, STUDY_THETAS[family], rng, 5):
            got = log_likelihood_batch(family, thetas, Dataset([x]))
            assert_same_bits(got, log_pdf_grid(family, thetas, np.array([x]))[:, 0])

    @pytest.mark.parametrize("family", FAMILIES)
    def test_far_right_tail_is_never_nan(self, family, rng):
        # x = +inf is outside every support.  At 1e308 and 1.7e308 terms
        # such as x / s, (x / s)^k and 2 mu^2 x overflow (the scale 0.5 row
        # makes x / s overflow); the density there is 0, never NaN.
        x = np.array([1e308, 1.7e308, np.inf])
        box = default_uniform_prior(family)
        thetas = np.concatenate(
            [
                [GENERIC_THETAS[family], STUDY_THETAS[family], (2.0, 0.5)],
                jittered_thetas(family, rng),
                list(itertools.product(*zip(box.lo, box.hi))),
            ]
        )
        got = log_pdf_grid(family, thetas, x)
        assert not np.any(np.isnan(got))
        assert np.all(got[:, 2] == -np.inf)
        assert np.all(np.exp(got) == 0.0)
        for theta, row in zip(thetas, got):
            assert_same_bits(log_pdf(family, theta, x), row)
            assert_same_bits(np.array([log_pdf(family, theta, x[1])]), row[1:2])

    @pytest.mark.parametrize("family", FAMILIES)
    def test_cell_depends_only_on_its_row_and_point(self, family, rng):
        # The truth density (one row over every point) and the member
        # densities (many rows, in column blocks) must agree bit for bit
        # wherever their parameters and points agree.
        box = default_uniform_prior(family)
        thetas = rng.uniform(box.lo, box.hi, size=(1000, 2))
        x = edge_and_random_points(rng)
        full = log_pdf_grid(family, thetas, x)
        for i in (0, 1, 999):
            assert_same_bits(log_pdf_grid(family, thetas[i : i + 1], x)[0], full[i])
            assert_same_bits(log_pdf(family, thetas[i], x), full[i])
            for j in (0, 9, 500, x.size - 1):  # 0-d inputs
                assert_same_bits(np.array([log_pdf(family, thetas[i], x[j])]), full[i, j : j + 1])
        for width in (1, 2, 131):
            blocks = [log_pdf_grid(family, thetas, x[s : s + width]) for s in range(0, x.size, width)]
            assert_same_bits(np.concatenate(blocks, axis=1), full)
        assert_same_bits(log_pdf_grid(family, thetas, x[::3]), full[:, ::3])
        assert_same_bits(log_pdf_grid(family, thetas[::7], x), full[::7])

    @pytest.mark.parametrize("family", FAMILIES)
    def test_out_and_scratch_give_the_bits_of_fresh_arrays(self, family, rng):
        # propagation writes each family's run into a row slice of one
        # reused buffer, its h and spare into two more; the buffers hold the
        # previous block's values, here NaN
        box = default_uniform_prior(family)
        thetas = rng.uniform(box.lo, box.hi, size=(40, 2))
        x = edge_and_random_points(rng)
        flat = np.full(3 * thetas.shape[0] * x.size, np.nan)
        for rows, cols in [(slice(0, 40), slice(None)), (slice(7, 8), slice(None)),
                           (slice(0, 40), slice(5, 6)), (slice(3, 4), slice(9, 10)),
                           (slice(10, 30), slice(0, 131))]:
            points = x[cols]
            width = points.size
            buffer, h, spare = (
                plane[: thetas.shape[0] * width].reshape(-1, width)
                for plane in flat.reshape(3, -1)
            )
            out = buffer[rows]
            got = log_pdf_grid(family, thetas[rows], points, out=out, scratch=(h[rows], spare[rows]))
            assert got is out
            assert_same_bits(out, log_pdf_grid(family, thetas[rows], points))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_coefficients_keyword_gives_the_bits_of_the_plain_call(self, family, rng):
        # propagation computes each family run's coefficients once and hands
        # them to every block's call
        box = default_uniform_prior(family)
        thetas = rng.uniform(box.lo, box.hi, size=(40, 2))
        x = edge_and_random_points(rng)
        want = log_pdf_grid(family, thetas, x)
        coef = distributions._coefficients(family, thetas)
        assert_same_bits(log_pdf_grid(family, thetas, x, coef=coef), want)
        out, h, spare = np.full((3, *want.shape), np.nan)
        got = log_pdf_grid(family, thetas, x, out=out, scratch=(h, spare), coef=coef)
        assert got is out
        assert_same_bits(out, want)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_likelihood_row_depends_only_on_its_row(self, family, rng):
        # At n = 10^4 a 1000-row call spans many row blocks of the data
        # term, so a row's value must not depend on which block it lands in
        # or where in that block it sits.
        box = default_uniform_prior(family)
        thetas = rng.uniform(box.lo, box.hi, size=(1000, 2))
        data = Dataset(sample(family, STUDY_THETAS[family], rng, 10**4))
        batch = log_likelihood_batch(family, thetas, data)
        order = rng.permutation(thetas.shape[0])
        shuffled = np.empty_like(batch)
        shuffled[order] = log_likelihood_batch(family, thetas[order], data)
        assert_same_bits(shuffled, batch)
        alone = np.array([log_likelihood_batch(family, row[None], data)[0] for row in thetas])
        assert_same_bits(alone, batch)

    @pytest.mark.parametrize(
        "family", [ModelFamily.LOGISTIC, ModelFamily.LOGLOGISTIC, ModelFamily.WEIBULL]
    )
    def test_likelihood_data_term_memory_is_one_block(self, family, rng):
        # The data term h runs over row blocks of about 1 MB that the call
        # reuses, so its peak stays far below one (rows x data) array (80 MB
        # here).
        box = default_uniform_prior(family)
        thetas = rng.uniform(box.lo, box.hi, size=(1000, 2))
        data = Dataset(sample(family, STUDY_THETAS[family], rng, 10**4))
        tracemalloc.start()
        try:
            log_likelihood_batch(family, thetas, data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 2**20, peak


CELL_TERM_FAMILIES = [ModelFamily.LOGISTIC, ModelFamily.LOGLOGISTIC, ModelFamily.WEIBULL]


def linear_log_likelihood(family, thetas, data):
    """The likelihood's linear form c(theta) . sum_i T(x_i) of valid rows."""
    with np.errstate(all="ignore"):
        return _matmul(distributions._coefficients(family, thetas), data.feature_sums(family))[:, 0]


def direct_log_likelihood(family, thetas, data):
    """The likelihood of valid rows as the direct data sum: the linear form
    plus h summed over every point, in the operations (and so with the bits)
    of the likelihood without the quadrature."""
    h = distributions._cell_term(family, thetas, data.cell_term_points(family))
    return linear_log_likelihood(family, thetas, data) + h.sum(axis=1)


class TestChebyshevQuadrature:
    """The likelihood's data term as a sum over 129 Chebyshev nodes on
    datasets of more than 258 points, with the direct sum for every row that
    fails the tail test."""

    @pytest.mark.parametrize("family", [ModelFamily.LOGISTIC, ModelFamily.WEIBULL])
    @pytest.mark.parametrize("n", [259, 10**4])
    def test_weights_reproduce_the_chebyshev_moments(self, family, n, rng):
        # sum_j w_j T_k(u(tau_j)) = sum_i T_k(u(t_i)) for every k < 129,
        # with the moments written as cos(k arccos u) and summed exactly
        data = Dataset(sample(family, STUDY_THETAS[family], rng, n))
        nodes, weights, _ = data.quadrature(family)
        assert nodes.size == weights.size == 129
        t = data.cell_term_points(family)
        lo, hi = t.min(), t.max()
        angle = lambda v: np.arccos(np.clip((2.0 * v - lo - hi) / (hi - lo), -1.0, 1.0))  # noqa: E731
        for k in range(129):
            want = math.fsum(np.cos(k * angle(t)))
            got = math.fsum(weights * np.cos(k * angle(nodes)))
            assert got == pytest.approx(want, abs=1e-12 * n), k

    @pytest.mark.parametrize("family", CELL_TERM_FAMILIES)
    @pytest.mark.parametrize("n", [1, 37, 258])
    def test_small_dataset_keeps_the_direct_sum(self, family, n, rng):
        box = default_uniform_prior(family)
        thetas = rng.uniform(box.lo, box.hi, size=(300, 2))
        data = Dataset(sample(family, STUDY_THETAS[family], rng, n))
        assert data.quadrature(family) is None
        want = direct_log_likelihood(family, thetas, data)
        assert_same_bits(log_likelihood_batch(family, thetas, data), want)

    @pytest.mark.parametrize(
        "family, rows",
        [(ModelFamily.LOGISTIC, [(34.0, 0.01), (30.0, 0.05), (45.0, 0.02)]),
         (ModelFamily.LOGLOGISTIC, [(3.55, 0.001), (3.4, 0.002), (3.7, 0.0005)]),
         (ModelFamily.WEIBULL, [(50.0, 36.5), (80.0, 40.0), (127.0, 38.0)])],
        ids=["Logistic-small-scale", "Loglogistic-small-scale", "Weibull-steep-shape"],
    )
    @pytest.mark.parametrize("n", [500, 10**4])
    def test_rows_failing_the_tail_test_take_the_direct_sum(self, family, rows, n, rng):
        # h has a corner (or a wall) far narrower than the data's range, so
        # its last two Chebyshev coefficients are large and the row takes the
        # direct sum, with its bits, beside a row that takes the node sum
        data = Dataset(sample(family, STUDY_THETAS[family], rng, n))
        thetas = np.array([STUDY_THETAS[family], *rows])
        got = log_likelihood_batch(family, thetas, data)
        direct = direct_log_likelihood(family, thetas, data)
        assert_same_bits(got[1:], direct[1:])
        nodes, weights, tail = data.quadrature(family)
        h = distributions._cell_term(family, thetas, nodes)
        estimate = n * (np.abs((h * tail[0]).sum(axis=1)) + np.abs((h * tail[1]).sum(axis=1)))
        total = (h * weights).sum(axis=1)
        assert np.all(~(estimate[1:] <= distributions._CHEB_TAIL_RTOL * (1.0 + np.abs(total[1:]))))
        assert estimate[0] <= distributions._CHEB_TAIL_RTOL * (1.0 + np.abs(total[0]))
        assert got[0] == linear_log_likelihood(family, thetas[:1], data)[0] + total[0]

    @pytest.mark.parametrize("family", CELL_TERM_FAMILIES)
    @pytest.mark.parametrize("n", [500, 10**4])
    def test_rows_near_the_mle_match_an_exact_sum(self, family, n, rng):
        # every row near the truth takes the node sum sum_j w_j h(theta,
        # tau_j), within 8 eps sum_i |h| of the exactly rounded sum of the
        # same h over the data
        data = Dataset(sample(family, STUDY_THETAS[family], rng, n))
        thetas = np.array(STUDY_THETAS[family]) * rng.uniform(0.95, 1.05, size=(100, 2))
        nodes, weights, _ = data.quadrature(family)
        total = (distributions._cell_term(family, thetas, nodes) * weights).sum(axis=1)
        got = log_likelihood_batch(family, thetas, data)
        assert_same_bits(got, linear_log_likelihood(family, thetas, data) + total)
        h = distributions._cell_term(family, thetas, data.cell_term_points(family))
        exact = np.array([math.fsum(row) for row in h])
        bound = 8.0 * np.finfo(float).eps * np.abs(h).sum(axis=1)
        err = np.abs(total - exact)
        assert np.all(err <= bound), np.max(err / bound)


class TestMatmul:
    """Every cell of ``_matmul`` on a degenerate operand equals, bit for
    bit, the same cell of a product in which that operand sits inside a
    larger one."""

    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_one_row_and_one_column_cells(self, k, rng):
        # inner dimensions of the linear forms and the KDE prior; np.matmul
        # would send a one-row a or a one-column b to GEMV, which adds the
        # K terms of a cell in another order than GEMM
        a = rng.standard_normal((5, k))
        b = rng.standard_normal((k, 6))
        full = _matmul(a, b)
        assert full.shape == (5, 6)
        for i in range(5):
            assert_same_bits(_matmul(a[i : i + 1], b), full[i : i + 1])
        for j in range(6):
            assert_same_bits(_matmul(a, b[:, j : j + 1]), full[:, j : j + 1])
            assert_same_bits(_matmul(a[:1], b[:, j : j + 1]), full[:1, j : j + 1])

    @pytest.mark.parametrize("k", [1, 2, 4])
    @pytest.mark.parametrize("rows, cols", [(5, 6), (1, 6), (5, 1), (1, 1)])
    def test_out_gives_the_bits_of_a_fresh_product(self, k, rows, cols, rng):
        a = rng.standard_normal((rows, k))
        b = rng.standard_normal((k, cols))
        out = np.full(rows * cols + 3, np.nan)[: rows * cols].reshape(rows, cols)
        assert _matmul(a, b, out=out) is out
        assert_same_bits(out, _matmul(a, b))
        v, out = a[0], np.full(cols, np.nan)
        assert _matmul(v, b, out=out) is out
        assert_same_bits(out, _matmul(v, b))

    def test_vector_cells(self, rng):
        # q in propagation: a vector a is a GEMV; on a one-column b
        # np.matmul would call BLAS's dot, which adds this long sum in
        # another order
        v = rng.random(20_000)
        b = rng.random((20_000, 2))
        full = _matmul(v, b)
        assert full.shape == (2,)
        for j in range(2):
            assert_same_bits(_matmul(v, b[:, j : j + 1]), full[j : j + 1])


class TestMomentMaps:
    def test_lognormal_from_mean_cov_values(self, rng):
        theta = params_from_moments(ModelFamily.LOGNORMAL, 34.782, 0.116)
        # oracle: a large sample from the result reproduces the moments
        draws = sample(ModelFamily.LOGNORMAL, theta, rng, 10**6)
        assert draws.mean() == pytest.approx(34.782, abs=0.02)
        assert draws.std() / draws.mean() == pytest.approx(0.116, abs=0.001)

    def test_lognormal_algebraic_inversion(self):
        # zeta^2 = ln(1 + cov^2) = 1  =>  cov = sqrt(e - 1), lam = 0
        theta = params_from_moments(ModelFamily.LOGNORMAL, np.exp(0.5), np.sqrt(np.e - 1.0))
        assert theta[0] == pytest.approx(0.0, abs=1e-12)
        assert theta[1] == pytest.approx(1.0, rel=1e-12)

    def test_lognormal_degenerate_limit(self):
        theta = params_from_moments(ModelFamily.LOGNORMAL, 1.0, 1e-8)
        assert abs(theta[0]) < 1e-15 and theta[1] == pytest.approx(1e-8, rel=1e-6)

    def test_rejects_nonpositive_inputs(self):
        with pytest.raises(ValueError):
            params_from_moments(ModelFamily.LOGNORMAL, -1.0, 0.1)
        with pytest.raises(ValueError):
            params_from_moments(ModelFamily.LOGNORMAL, 1.0, 0.0)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("mean,cov", [(34.782, 0.116), (20.0, 0.35), (60.0, 0.01)])
    def test_params_from_moments_round_trip(self, family, mean, cov):
        theta = params_from_moments(family, mean, cov)
        m, sd = moments(family, theta)
        assert m == pytest.approx(mean, rel=1e-9)
        assert sd / m == pytest.approx(cov, rel=1e-9)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_moments_match_large_sample(self, family, rng):
        theta = STUDY_THETAS[family]
        mean, sd = moments(family, theta)
        draws = sample(family, theta, rng, 10**6)
        assert draws.mean() == pytest.approx(mean, abs=6.0 * sd / 1000.0)
        assert draws.std() == pytest.approx(sd, rel=0.02)


class TestBrentqPort:
    """``_brentq`` is a port of scipy's ``brentq``: same steps, same bits."""

    @pytest.mark.parametrize(
        "invert",
        [distributions._weibull_shape_from_cov, distributions._loglogistic_scale_from_cov],
        ids=["weibull", "loglogistic"],
    )
    def test_moment_inversions_match_scipy_bit_for_bit(self, invert, monkeypatch):
        covs = np.linspace(0.005, 0.6, 2000)
        ours = [invert(c) for c in covs]
        monkeypatch.setattr(distributions, "_brentq", brentq)
        theirs = [invert(c) for c in covs]
        assert_same_bits(np.array(ours), np.array(theirs))

    def test_root_at_an_endpoint_is_returned(self):
        f = lambda x: x - 2.0  # noqa: E731
        for a, b in ((2.0, 5.0), (-1.0, 2.0)):
            got = _brentq(f, a, b, xtol=1e-12, rtol=1e-14)
            assert got == 2.0 == brentq(f, a, b, xtol=1e-12, rtol=1e-14)

    def test_same_sign_bracket_raises(self):
        f = lambda x: x * x + 1.0  # noqa: E731
        with pytest.raises(ValueError, match="different signs"):
            _brentq(f, -1.0, 1.0, xtol=1e-12, rtol=1e-14)
        with pytest.raises(ValueError):
            brentq(f, -1.0, 1.0, xtol=1e-12, rtol=1e-14)

    def test_no_convergence_in_100_iterations_raises(self):
        # a step has no secant shortcut: bisecting 2e300 down to 1e-12
        # takes about 1000 halvings
        step = lambda x: -1.0 if x < 0.3 else 1.0  # noqa: E731
        with pytest.raises(RuntimeError, match="100 iterations"):
            _brentq(step, -1e300, 1e300, xtol=1e-12, rtol=1e-14)
        with pytest.raises(RuntimeError):
            brentq(step, -1e300, 1e300, xtol=1e-12, rtol=1e-14)


def around(*edges, steps=40):
    """Each edge and the ``steps`` doubles on either side of it."""
    return np.concatenate(
        [e + np.spacing(float(e)) * np.arange(-steps, steps + 1) for e in edges]
    )


def scalar_results(func, xs):
    return np.array([func(float(x)) for x in xs])


def scipy_cdf(family, theta, x):
    """The CDF formulas of ``distributions.cdf`` on ``scipy.special``."""
    p1, p2 = theta
    sp = scipy.special
    if family is ModelFamily.NORMAL:
        return sp.ndtr((x - p1) / p2)
    if family is ModelFamily.LOGNORMAL:
        return sp.ndtr((np.log(x) - p1) / p2)
    if family is ModelFamily.GAMMA:
        return sp.gammainc(p1, x / p2)
    if family is ModelFamily.INVERSE_GAUSSIAN:
        rt = np.sqrt(p2 / x)
        t2 = np.exp(2.0 * p2 / p1 + sp.log_ndtr(-rt * (x / p1 + 1.0)))
        return np.clip(sp.ndtr(rt * (x / p1 - 1.0)) + t2, 0.0, 1.0)
    if family is ModelFamily.LOGISTIC:
        return sp.expit((x - p1) / p2)
    if family is ModelFamily.LOGLOGISTIC:
        return sp.expit((np.log(x) - p1) / p2)
    return -np.expm1(-((x / p2) ** p1))


class TestSpecialPorts:
    """``mmuq.special`` against ``scipy.special``, the oracle: the Cephes
    ports return scipy's bits on scalars and, mapped element by element, on
    arrays; gammainc and log_ndtr hold a stated accuracy; and every element
    of a gammainc or cdf call is the one a call on it alone returns."""

    # every branch edge of lgam (2, 3, 13, 1000, 1e8) and its (0, 2) corners
    GAMMALN_POINTS = np.concatenate(
        [
            np.geomspace(1e-3, 1e10, 20_000),
            np.random.default_rng(3).uniform(0.0, 13.0, 20_000),
            np.random.default_rng(4).uniform(8.16, 1e4, 20_000),
            around(1.0, 2.0, 3.0, 12.0, 13.0, 1000.0, 1e8),
            [2.6e305],
        ]
    )
    # where x + 1 or x + 2 rounds to 2 and lgam returns log z alone
    ROUNDING_TO_TWO = np.array([2.0**-52, 2.0**-53, 1e-300, 5e-324, 1.0 - 2.0**-53, 1.0 + 2.0**-52])
    # erfc's branches at |x| / sqrt 2 = 1 and 8, its underflow near 37.7
    NDTR_POINTS = np.concatenate(
        [
            np.linspace(-40.0, 40.0, 20_001),
            around(*[s * e for s in (-1, 1) for e in (1.0, math.sqrt(2.0), 8.0 * math.sqrt(2.0), 37.6)], steps=20),
            [0.0, -0.0, np.inf, -np.inf, np.nan],
        ]
    )
    EXPIT_POINTS = np.concatenate([np.random.default_rng(5).normal(0.0, 20.0, 30_000), [0.0, 800.0, -800.0, np.nan]])
    ARRAY_POINTS = {
        "gammaln": np.concatenate([GAMMALN_POINTS, ROUNDING_TO_TWO]),
        "ndtr": NDTR_POINTS,
        "expit": EXPIT_POINTS,
    }

    def test_gammaln_scalar_bit_for_bit(self):
        xs = self.ARRAY_POINTS["gammaln"]
        assert_same_bits(scalar_results(special.gammaln, xs), gammaln(xs))

    @pytest.mark.parametrize("name", ["gammaln", "ndtr", "expit"])
    def test_array_bit_for_bit(self, name):
        # the scalar port element by element: scipy's bits on any array
        port, oracle = getattr(special, name), getattr(scipy.special, name)
        xs = self.ARRAY_POINTS[name]
        assert_same_bits(port(xs), oracle(xs))
        grid = np.stack([xs, xs[::-1]])  # every point in one 2-D call
        got = port(grid)
        assert got.shape == grid.shape
        assert_same_bits(got, oracle(grid))
        for empty in (np.array([]), np.empty((0, 3))):
            assert port(empty).shape == empty.shape
        zero_d = port(np.array(3.5))
        assert np.ndim(zero_d) == 0 and zero_d == oracle(3.5)

    def test_gammaln_documented_values(self):
        xs = np.array([-1e4, 0.0, np.nan, 1e-300, 12.999, 13.0, 999.99, 1e8 + 1, -np.inf, np.inf, 1e306])
        want = gammaln(xs)
        want[8] = np.inf  # scipy: -inf at -inf
        for got in (special.gammaln(xs), scalar_results(special.gammaln, xs)):
            assert_same_bits(got, want)
        assert np.isinf(want[:2]).all() and np.isnan(want[2])
        # non-positive non-integers give +inf, where scipy has log |Gamma(x)|
        assert special.gammaln(-0.5) == np.inf
        assert special.gammaln(np.array([-0.5, 3.5]))[0] == np.inf
        assert special.gammaln(np.array([])).shape == (0,)

    def test_gamma_scalar_bit_for_bit(self):
        box = default_uniform_prior(ModelFamily.WEIBULL)
        k = np.linspace(box.lo[0], box.hi[0], 5000)  # the Weibull shapes
        xs = np.concatenate(
            [np.geomspace(1e-3, 170.0, 20_000), 1.0 + 1.0 / k, 1.0 + 2.0 / k, around(2.0, 3.0, 33.0, 143.01608), [1e-10]]
        )
        assert_same_bits(scalar_results(special.gamma, xs), scipy.special.gamma(xs))
        assert special.gamma(172.0) == np.inf
        with pytest.raises(ValueError):
            special.gamma(0.0)

    def test_ndtr_bit_for_bit_on_scalars(self):
        xs = self.NDTR_POINTS
        assert_same_bits(scalar_results(special.ndtr, xs), ndtr(xs))

    def test_expit(self):
        xs = self.EXPIT_POINTS
        assert_same_bits(scalar_results(special.expit, xs), scipy.special.expit(xs))

    def test_log_ndtr_to_1e14_relative(self):
        xs = np.concatenate([np.linspace(-1000.0, 40.0, 50_001), around(-37.0, 0.0, steps=5)])
        want = scipy.special.log_ndtr(xs)
        got = special.log_ndtr(xs)
        # measured: 6.7e-16
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)
        assert special.log_ndtr(-np.inf) == -np.inf and special.log_ndtr(np.inf) == 0.0

    def test_log_ndtr_equals_all_branches_then_a_choice(self):
        # each element runs only the branch it keeps, with the bits of
        # evaluating all three everywhere and choosing per element
        xs = np.concatenate([np.linspace(-1000.0, 40.0, 50_001), around(-37.0, 0.0, steps=5),
                             [np.nan, -np.inf, np.inf, -0.0, 5e-324, -5e-324]])
        with np.errstate(all="ignore"):
            w = 1.0 / (xs * xs)
            series = np.log1p(w * special._polevl(w, special._LOG_NDTR_SERIES))
            far = -0.5 * xs * xs - np.log(-xs) - special._LOG_SQRT_2PI + series
            want = np.where(xs > 0.0, np.log1p(-special.ndtr(-xs)),
                            np.where(xs < -37.0, far, np.log(special.ndtr(xs))))
        assert_same_bits(special.log_ndtr(xs), want)
        assert_same_bits(special.log_ndtr(xs[:50_001].reshape(7, -1)), want[:50_001].reshape(7, -1))
        assert_same_bits(np.array([special.log_ndtr(v) for v in xs[::997]]), want[::997])

    def test_gammainc_accuracy(self):
        a = np.array([0.5, 1.0, 2.5, 8.16, 13.0, 100.0, 1000.0, 1e4])[:, None]
        x = np.geomspace(1e-3, 2e4, 2000)[None, :]
        got, want = special.gammainc(a, x), scipy.special.gammainc(a, x)
        # measured: 4.4e-15 absolute, 1.2e-12 relative on 1 - P
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-13)
        upper = want < 1.0
        np.testing.assert_allclose(1.0 - got[upper], 1.0 - want[upper], rtol=1e-10)
        assert_same_bits(
            special.gammainc(2.0, np.array([0.0, np.inf, -1.0, np.nan])),
            np.array([0.0, 1.0, np.nan, np.nan]),
        )
        assert np.isnan(special.gammainc(-1.0, 1.0))

    def test_gammainc_element_ignores_its_neighbours(self):
        # each series or continued-fraction element stops on its own, so a
        # slow neighbour (a = 1e4) adds no terms to a converged sum
        a, x = np.array([74.31629013079666, 1e4]), np.array([35.58558485, 9990.0])
        assert_same_bits(special.gammainc(a, x), np.array([special.gammainc(*ax) for ax in zip(a, x)]))
        a, x = np.broadcast_arrays(np.array([0.5, 2.5, 13.0, 100.0, 1e4])[:, None], np.geomspace(1e-3, 2e4, 400))
        want = np.array([special.gammainc(*ax) for ax in zip(a.ravel(), x.ravel())]).reshape(a.shape)
        assert_same_bits(special.gammainc(a, x), want)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_cdf_matches_the_scipy_formula_over_the_box(self, family):
        box = default_uniform_prior(family)
        rows = [np.array(c) for c in itertools.product(*zip(box.lo, box.hi))] + [(box.lo + box.hi) / 2]
        x = np.linspace(5.0, 80.0, 301)
        for theta in rows:
            got, want = cdf(family, theta, x), scipy_cdf(family, theta, x)
            # measured: 3.5e-12 absolute, 8.3e-12 relative on 1 - cdf
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-11)
            tail = 1.0 - want >= 1e-300
            np.testing.assert_allclose(1.0 - got[tail], 1.0 - want[tail], rtol=1e-10)
            # scipy's bits where the formula runs on ports only
            if family is not ModelFamily.GAMMA and family is not ModelFamily.INVERSE_GAUSSIAN:
                assert_same_bits(got, want)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_cdf_array_equals_element_by_element(self, family):
        theta = params_from_moments(family, 34.782, 0.116)
        x = np.linspace(5.0, 80.0, 5001)
        want = np.array([cdf(family, theta, v) for v in x])
        assert_same_bits(cdf(family, theta, x), want)
        assert_same_bits(cdf(family, theta, x.reshape(1667, 3)), want.reshape(1667, 3))
        assert_same_bits(cdf(family, theta, x[::-1]), want[::-1])
        for empty in (np.array([]), np.empty((0, 3))):
            assert cdf(family, theta, empty).shape == empty.shape
        zero_d = cdf(family, theta, np.array(x[2500]))
        assert type(zero_d) is float and zero_d == want[2500]

    def test_weibull_box_bit_identical_to_scipy(self, monkeypatch):
        corners = lambda: np.array(  # noqa: E731
            [params_from_moments(ModelFamily.WEIBULL, m, c) for m in ENVELOPE_MEAN for c in ENVELOPE_COV]
        )
        ours = corners()
        monkeypatch.setattr(distributions, "special", scipy.special)
        assert_same_bits(ours, corners())
        box = default_uniform_prior(ModelFamily.WEIBULL)
        assert_same_bits(np.array([box.lo, box.hi]), np.array([corners().min(axis=0), corners().max(axis=0)]))


class TestDataset:
    def test_rejects_empty_and_nonfinite(self):
        with pytest.raises(ValueError):
            Dataset([])
        with pytest.raises(ValueError):
            Dataset([1.0, np.inf])

    def test_cached_statistics(self):
        d = Dataset([1.0, 2.0, 4.0])
        assert d.n == 3
        # sum_i T(x_i) for each family, as a column
        want = {
            ModelFamily.NORMAL: [39.0**2 + 38.0**2 + 36.0**2, -113.0, 3.0],
            ModelFamily.LOGNORMAL: [
                np.log(40.0) ** 2 + np.log(20.0) ** 2 + np.log(10.0) ** 2,
                np.log(8.0 / 40.0**3),
                3.0,
            ],
            ModelFamily.GAMMA: [np.log(8.0), 7.0, 3.0],
            ModelFamily.INVERSE_GAUSSIAN: [np.log(8.0), 7.0, 1.75, 3.0],
            ModelFamily.LOGISTIC: [3.0],
            ModelFamily.LOGLOGISTIC: [np.log(8.0), 3.0],
            ModelFamily.WEIBULL: [np.log(8.0), 3.0],
        }
        for family, sums in want.items():
            got = d.feature_sums(family)
            assert got.shape == (len(sums), 1)
            np.testing.assert_allclose(got[:, 0], sums, rtol=1e-14)
            assert d.feature_sums(family) is got
