"""Density, CDF, sampling and likelihood checks for the candidate families.

Quadrature and moment oracles are computed in-test; they never reuse the
closed-form implementations they check.
"""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import gammaln, ndtr

from mmuq.distributions import (
    _matmul,
    _valid_rows,
    FAMILIES,
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
from mmuq.priors import ENVELOPE_MEAN, default_uniform_prior

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
        # an all-valid call skips the gather of valid rows and the scatter
        # of their values; each valid row must get the same bits either way
        data = Dataset(sample(family, STUDY_THETAS[family], rng, 300))
        valid = np.asarray(STUDY_THETAS[family]) * rng.uniform(0.9, 1.1, size=(6, 2))
        invalid = [[np.nan, 1.0], [1.0, -1.0], [np.inf, 1.0], [1.0, np.nan]]
        mixed = np.insert(valid, [0, 2, 2, 6], invalid, axis=0)
        out = log_likelihood_batch(family, mixed, data)
        live = np.isfinite(out)
        assert np.count_nonzero(live) == 6
        np.testing.assert_array_equal(out[live], log_likelihood_batch(family, valid, data))

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
