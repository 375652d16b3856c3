"""The buckling response, synthetic data generation and the failure-probability
oracle."""

import numpy as np
import pytest

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
from mmuq.distributions import FAMILIES, ModelFamily, moments, params_from_moments, sample
from mmuq.seeding import rng_for


def slenderness(cfg: PlateConfig) -> float:
    """(b/t) sqrt(sigma0 / E), written out independently of the library."""
    return (cfg.b / cfg.t) * np.sqrt(cfg.sigma0 / cfg.E)


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
        assert pf_semianalytic(TRUE_MODEL.family, TRUE_MODEL.theta, -0.2, MEAN_PLATE) == 0.0

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
        # psi decreasing: P(psi < t) = 1 - F(sigma*) for any member family
        theta = np.array([34.782, 4.03])
        pf = pf_semianalytic(ModelFamily.NORMAL, theta, 0.6, MEAN_PLATE)
        assert 0.0 < pf < 1.0


class TestPlateConfig:
    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError):
            PlateConfig(b=-1.0)
        with pytest.raises(ValueError):
            PlateConfig(t=0.0)

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
