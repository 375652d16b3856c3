"""The buckling response, synthetic data generation and the failure-probability
oracle."""

import warnings

import numpy as np
import pytest
from scipy.optimize import brentq

from mmuq import buckling
from mmuq.buckling import (
    MEAN_PLATE,
    TRUE_MODEL,
    PlateConfig,
    TrueModelSpec,
    buckling_response,
    generate_data,
    pf_semianalytic,
    response_moments,
)
from mmuq.distributions import (
    FAMILIES,
    ModelFamily,
    cdf,
    log_pdf,
    moments,
    params_from_moments,
    sample,
)
from mmuq.seeding import rng_for


def slenderness(cfg: PlateConfig) -> float:
    """(b/t) sqrt(sigma0 / E), written out independently of the library."""
    return (cfg.b / cfg.t) * np.sqrt(cfg.sigma0 / cfg.E)


def spy_on_cdf(monkeypatch):
    """The list of the x of every CDF call ``pf_semianalytic`` makes."""
    seen = []

    def spy(family, theta, x):
        seen.append(x)
        return cdf(family, theta, x)

    monkeypatch.setattr(buckling, "dist_cdf", spy)
    return seen


class TestPsiFormulas:
    def test_carlsen_mean_value_configuration(self):
        # direct evaluation of the three factors at the mean plate
        lam = slenderness(MEAN_PLATE)
        expected = (
            (2.1 / lam - 0.9 / lam**2)
            * (1.0 - 0.75 * 0.35 / lam)
            * (1.0 - 2.0 * 5.25 * MEAN_PLATE.t / MEAN_PLATE.b)
        )
        psi = buckling_response(MEAN_PLATE)(MEAN_PLATE.sigma0)
        assert psi == pytest.approx(expected, rel=1e-12)
        assert psi == pytest.approx(0.62053, abs=2e-4)

    def test_pristine_limit_structure(self):
        # without residual stress or initial deflection only the first
        # factor remains; it exceeds the pristine-plate 2/lam - 1/lam^2 by
        # 0.1/lam + 0.1/lam^2
        cfg = PlateConfig(delta0=1e-300, eta=1e-300)
        lam = slenderness(cfg)
        assert buckling_response(cfg)(cfg.sigma0) == pytest.approx(
            2.1 / lam - 0.9 / lam**2, rel=1e-9
        )

    def test_true_model_mean_response(self, rng):
        draws = sample(TRUE_MODEL.family, TRUE_MODEL.theta, rng, 10**6)
        mean_psi = buckling_response(MEAN_PLATE)(draws).mean()
        assert mean_psi == pytest.approx(0.62089, abs=0.001)

    def test_response_decreasing_beyond_turnover(self):
        # psi rises by ~1e-4 just above 15 ksi before decaying; past 17 ksi
        # the 500-point finite-difference signs are strictly negative
        grid = np.linspace(15.0, 65.0, 500)
        vals = buckling_response(MEAN_PLATE)(grid)
        assert grid[np.argmax(vals)] < 17.0
        tail = vals[grid >= 17.0]
        assert np.all(np.diff(tail) < 0.0)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_blocked_truth_quadrature_equals_the_whole_trapezoid(self, family, monkeypatch):
        # every point's psi is evaluated once, and the blocked sums agree
        # with one trapezoid over the whole grid up to summation order
        theta = params_from_moments(family, 34.782, 0.116)
        points = []
        g = buckling_response(MEAN_PLATE)

        def counted(base):
            def psi(x):
                points.append(x.size)
                return g(x)

            return psi

        monkeypatch.setattr(buckling, "buckling_response", counted)
        m, v = response_moments(family, theta, MEAN_PLATE)
        assert len(points) > 1 and sum(points) == 200_001
        mean_s, sd_s = moments(family, theta)
        grid = np.linspace(max(mean_s - 12.0 * sd_s, 1e-6), mean_s + 12.0 * sd_s, 200_001)
        density = np.exp(log_pdf(family, theta, grid))
        gv = g(grid)
        m1 = np.trapezoid(gv * density, grid)
        m2 = np.trapezoid(gv * gv * density, grid)
        assert m == pytest.approx(m1, rel=1e-14)
        assert v == pytest.approx(m2 - m1 * m1, rel=1e-11)

    def test_member_without_finite_sd_is_an_error(self):
        # Loglogistic (3.5, 0.6) has a mean but no variance, so no +-12 sd
        # window: [1e-6, inf] would give (nan, nan) and two RuntimeWarnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"Loglogistic member \(3\.5, 0\.6\)"):
                response_moments(ModelFamily.LOGLOGISTIC, (3.5, 0.6), MEAN_PLATE)

    def test_response_moments_match_sampling(self, rng):
        m, v = response_moments(TRUE_MODEL.family, TRUE_MODEL.theta, MEAN_PLATE)
        draws = buckling_response(MEAN_PLATE)(
            sample(TRUE_MODEL.family, TRUE_MODEL.theta, rng, 10**6)
        )
        assert m == pytest.approx(draws.mean(), abs=5.0 * draws.std() / 1000.0)
        assert v == pytest.approx(draws.var(), rel=0.01)


class TestGenerateData:
    def test_values_in_plausible_range(self):
        data = generate_data(TRUE_MODEL, 10, seed=7)
        assert data.n == 10
        assert np.all((data.values > 20.0) & (data.values < 55.0))

    def test_prefix_property(self):
        small = generate_data(TRUE_MODEL, 10, seed=3)
        large = generate_data(TRUE_MODEL, 100, seed=3)
        np.testing.assert_array_equal(large.values[:10], small.values)

    def test_determinism(self):
        a = generate_data(TRUE_MODEL, 25, seed=3)
        b = generate_data(TRUE_MODEL, 25, seed=3)
        np.testing.assert_array_equal(a.values, b.values)
        c = generate_data(TRUE_MODEL, 25, seed=4)
        assert not np.array_equal(a.values, c.values)

    def test_large_sample_moments(self):
        data = generate_data(TRUE_MODEL, 10**6, seed=11)
        assert data.values.mean() == pytest.approx(34.782, abs=0.02)
        cov = data.values.std() / data.values.mean()
        assert cov == pytest.approx(0.116, abs=0.001)


class TestPfSemianalytic:
    def test_true_member_matches_reported_value(self):
        pf = pf_semianalytic(TRUE_MODEL.family, TRUE_MODEL.theta, 0.6, MEAN_PLATE)
        assert pf == pytest.approx(0.090132, abs=0.002)

    def test_threshold_below_response_floor(self):
        # psi's floor is its dip's minimum, -0.308 near 1.4 ksi
        grid = np.geomspace(1e-3, 15.0, 200_001)
        floor = buckling_response(MEAN_PLATE)(grid).min()
        assert floor == pytest.approx(-0.308, abs=1e-3)
        theta = params_from_moments(ModelFamily.LOGNORMAL, 2.0, 0.5)  # mass on the dip
        assert pf_semianalytic(ModelFamily.LOGNORMAL, theta, floor - 1e-3, MEAN_PLATE) == 0.0

    @pytest.mark.parametrize(
        "family, mean, cov, threshold",
        [(ModelFamily.LOGNORMAL, 20.0, 0.4, 0.6), (ModelFamily.LOGNORMAL, 2.0, 0.5, -0.2),
         (ModelFamily.GAMMA, 3.0, 0.6, -0.2)],
        ids=["weak-member-0.6", "dip-member-neg0.2", "gamma-dip-member-neg0.2"],
    )
    def test_failure_interval_below_the_turnover(self, family, mean, cov, threshold):
        # psi < threshold on (sigma_a, sigma_b) inside the dip below 15 ksi as
        # well as above sigma*: the first member has 0.0127 of its pf there
        theta = params_from_moments(family, mean, cov)
        n = 10**6
        draws = buckling_response(MEAN_PLATE)(sample(family, theta, rng_for(7, "pf-dip"), n))
        p_mc = np.mean(draws < threshold)
        se = np.sqrt(p_mc * (1 - p_mc) / n)
        pf = pf_semianalytic(family, theta, threshold, MEAN_PLATE)
        assert pf == pytest.approx(p_mc, abs=3.0 * se)

    def test_threshold_just_above_the_dip_minimum(self):
        # psi's least value on the 500-point scan is -0.3079673 and its true
        # minimum -0.3080461, so at -0.30802 no scan point is under the
        # threshold, yet psi is under it on an interval about 0.012 ksi wide
        # that holds 0.0061 of this member
        family = ModelFamily.LOGNORMAL
        theta = params_from_moments(family, 2.0, 0.5)
        threshold = -0.30802
        g = buckling_response(MEAN_PLATE)
        assert g(np.geomspace(15e-4, 15.0, 500)).min() > threshold
        # dense-grid oracle: the dip's interval from 2,000,001 points 2e-7 ksi
        # apart (psi stays above a negative threshold past the turnover)
        dense = np.linspace(1.2, 1.6, 2_000_001)
        under = dense[g(dense) < threshold]
        want = cdf(family, theta, under.max()) - cdf(family, theta, under.min())
        assert want > 6e-3
        assert pf_semianalytic(family, theta, threshold, MEAN_PLATE) == pytest.approx(want, abs=1e-6)

    def test_truth_pf_keeps_its_bits(self, monkeypatch):
        # the dip holds 6.3e-38 of the true member: adding it moves no bit
        # of 1 - F(sigma*)
        seen = spy_on_cdf(monkeypatch)
        pf = pf_semianalytic(TRUE_MODEL.family, TRUE_MODEL.theta, 0.6, MEAN_PLATE)
        [(sigma_a, sigma_b, sigma_star)] = seen
        assert sigma_a == pytest.approx(0.7803, abs=1e-4) and sigma_b == pytest.approx(7.8471, abs=1e-4)
        dip = cdf(TRUE_MODEL.family, TRUE_MODEL.theta, sigma_b) - cdf(TRUE_MODEL.family, TRUE_MODEL.theta, sigma_a)
        assert 0.0 < dip < 1e-37
        assert pf == 1.0 - cdf(TRUE_MODEL.family, TRUE_MODEL.theta, sigma_star)

    def test_dip_crossing_the_threshold_once_is_an_error(self):
        # so slender a plate that psi is already under 0.01 at the scan's
        # first point: the dip rises across the threshold without falling
        with pytest.raises(ValueError, match="dip under the threshold once"):
            pf_semianalytic(TRUE_MODEL.family, TRUE_MODEL.theta, 0.01, PlateConfig(b=1500.0, t=1.0))

    def test_agrees_with_direct_monte_carlo(self):
        rng = rng_for(123, "pf-oracle")
        n = 10**7
        draws = buckling_response(MEAN_PLATE)(
            sample(TRUE_MODEL.family, TRUE_MODEL.theta, rng, n)
        )
        p_mc = np.mean(draws < 0.6)
        se = np.sqrt(p_mc * (1 - p_mc) / n)
        pf = pf_semianalytic(TRUE_MODEL.family, TRUE_MODEL.theta, 0.6, MEAN_PLATE)
        assert pf == pytest.approx(p_mc, abs=3.0 * se)

    def test_unbracketed_threshold_is_an_error(self):
        with pytest.raises(ValueError, match="envelope"):
            pf_semianalytic(TRUE_MODEL.family, TRUE_MODEL.theta, 0.9, MEAN_PLATE)

    def test_normal_member_agrees_with_cdf_identity(self):
        # any member family: (1 - F(sigma*)) + (F(sigma_b) - F(sigma_a))
        theta = np.array([34.782, 4.03])
        pf = pf_semianalytic(ModelFamily.NORMAL, theta, 0.6, MEAN_PLATE)
        assert 0.0 < pf < 1.0


    @pytest.mark.parametrize(
        "threshold, plate",
        [(0.45, MEAN_PLATE), (0.6, MEAN_PLATE), (0.45, PlateConfig(b=30.0, t=0.5)),
         (0.6, PlateConfig(b=30.0, t=0.5)), (0.7, PlateConfig(b=30.0, t=0.5))],
        ids=["mean-0.45", "mean-0.6", "thin-0.45", "thin-0.6", "thin-0.7"],
    )
    def test_root_to_machine_precision(self, threshold, plate, monkeypatch):
        # sigma* is the last point of the oracle's one CDF call: the root to
        # a few ulps, not to a fixed bracket width in ksi
        seen = spy_on_cdf(monkeypatch)
        pf_semianalytic(TRUE_MODEL.family, TRUE_MODEL.theta, threshold, plate)
        g = buckling_response(plate)
        root = brentq(
            lambda s: g(s) - threshold, 15.0, 1e3,
            xtol=1e-300, rtol=4 * np.finfo(float).eps, maxiter=500,
        )
        [points] = seen
        sigma_star = points[-1]
        assert sigma_star == pytest.approx(root, rel=1e-13, abs=0.0)


class TestPlateConfig:
    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError):
            PlateConfig(b=-1.0)
        with pytest.raises(ValueError):
            PlateConfig(t=0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, "36", None, True])
    def test_rejects_non_finite_or_non_number_fields(self, bad):
        # PlateConfig(b=nan) used to pass, since nan <= 0 is false
        with pytest.raises(ValueError, match="plate b must be a finite positive number"):
            PlateConfig(b=bad)

    def test_rejects_thickness_over_width(self):
        with pytest.raises(ValueError):
            PlateConfig(b=0.5, t=0.75)

    def test_true_model_parameters(self):
        np.testing.assert_allclose(
            TRUE_MODEL.theta,
            params_from_moments(ModelFamily.LOGNORMAL, 34.782, 0.116),
            rtol=1e-12,
        )
        assert TRUE_MODEL.theta[0] == pytest.approx(3.54242, abs=1e-5)
        assert TRUE_MODEL.theta[1] == pytest.approx(0.115612, abs=1e-6)

    @pytest.mark.parametrize("family", FAMILIES, ids=lambda f: f.value)
    def test_true_model_of_any_family_matches_its_moments(self, family):
        mean, sd = moments(family, TrueModelSpec(family=family).theta)
        assert mean == pytest.approx(34.782, rel=1e-9)
        assert sd == pytest.approx(34.782 * 0.116, rel=1e-9)
