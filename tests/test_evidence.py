"""Evidence estimator vs quadrature, Bayes' rule over models, and the
information-criterion weight identities (BIC weights are Bayes' rule with
-BIC/2 as the log evidence)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import generalized_bic_weights
from mmuq.distributions import Dataset, ModelFamily
from mmuq.evidence import (
    EvidenceUnderflowError,
    ModelPosteriorProbs,
    ModelPriorProbs,
    aic_weights,
    information_criteria,
    log_evidence_mc,
    max_log_likelihood,
    model_posteriors,
    savvy_priors,
)
from mmuq.priors import UniformBoxPrior

LN_INDEX = 4  # position of Lognormal in the canonical family order


def pinned_sigma_box(sigma, mu_lo, mu_hi, eps=1e-7):
    return UniformBoxPrior(
        lo=np.array([mu_lo, sigma * (1.0 - eps)]),
        hi=np.array([mu_hi, sigma * (1.0 + eps)]),
    )


def normal_evidence_quadrature(data, sigma, mu_lo, mu_hi, n_grid=200_001):
    """Flat-prior evidence for the normal model with sigma pinned:
    (1 / (hi - lo)) integral of the likelihood over mu."""
    mu = np.linspace(mu_lo, mu_hi, n_grid)
    x = data.values
    ll = (
        -0.5 * data.n * np.log(2 * np.pi * sigma**2)
        - 0.5 * np.sum((x[None, :] - mu[:, None]) ** 2, axis=1) / sigma**2
    )
    peak = ll.max()
    return peak + np.log(np.trapezoid(np.exp(ll - peak), mu) / (mu_hi - mu_lo))


class TestLogEvidenceMc:
    def make_case(self, rng, n=8, sigma=4.0):
        data = Dataset(rng.normal(50.0, sigma, n), label="ev")
        return data, pinned_sigma_box(sigma, 30.0, 70.0), sigma

    def test_matches_quadrature_within_mc_error(self, rng):
        data, prior, sigma = self.make_case(rng)
        truth = normal_evidence_quadrature(data, sigma, 30.0, 70.0)
        estimates = np.array(
            [
                log_evidence_mc(
                    ModelFamily.NORMAL, data, prior, 4000, np.random.default_rng(s)
                )
                for s in range(20)
            ]
        )
        se = estimates.std(ddof=1)
        hits = np.abs(estimates - truth) < 3.0 * se
        assert hits.sum() >= 18

    def test_single_draw_is_likelihood_at_that_draw(self, rng):
        data, prior, _ = self.make_case(rng)
        ev = log_evidence_mc(ModelFamily.NORMAL, data, prior, 1, np.random.default_rng(42))
        theta = prior.sample(np.random.default_rng(42), 1)[0]
        from mmuq.distributions import log_likelihood

        assert ev == pytest.approx(log_likelihood(ModelFamily.NORMAL, theta, data), rel=1e-12)

    def test_duplicated_dataset_lowers_evidence(self, rng):
        data, prior, sigma = self.make_case(rng)
        doubled = Dataset(np.tile(data.values, 2))
        ev1 = log_evidence_mc(ModelFamily.NORMAL, data, prior, 20_000, np.random.default_rng(1))
        ev2 = log_evidence_mc(ModelFamily.NORMAL, doubled, prior, 20_000, np.random.default_rng(2))
        assert ev2 < ev1
        truth2 = normal_evidence_quadrature(doubled, sigma, 30.0, 70.0)
        reps = np.array(
            [
                log_evidence_mc(
                    ModelFamily.NORMAL, doubled, prior, 20_000, np.random.default_rng(s)
                )
                for s in range(12)
            ]
        )
        assert abs(reps.mean() - truth2) < 3.0 * reps.std(ddof=1) / np.sqrt(len(reps))

    def test_variance_shrinks_with_more_draws(self, rng):
        # quadrupling n_k should halve the estimator's standard deviation
        data, prior, _ = self.make_case(rng, n=5)
        small = np.array(
            [
                log_evidence_mc(ModelFamily.NORMAL, data, prior, 400, np.random.default_rng(s))
                for s in range(50)
            ]
        )
        large = np.array(
            [
                log_evidence_mc(
                    ModelFamily.NORMAL, data, prior, 1600, np.random.default_rng(1000 + s)
                )
                for s in range(50)
            ]
        )
        ratio = small.std(ddof=1) / large.std(ddof=1)
        assert 1.4 < ratio < 2.6

    def test_incompatible_prior_raises(self):
        data = Dataset([2.0, -1.0])  # negative point: lognormal support miss
        prior = UniformBoxPrior(lo=np.array([0.0, 0.1]), hi=np.array([5.0, 2.0]))
        with pytest.raises(EvidenceUnderflowError, match="Lognormal"):
            log_evidence_mc(ModelFamily.LOGNORMAL, data, prior, 100, np.random.default_rng(0))


class TestModelPosteriors:
    def test_equal_evidences_return_the_prior(self):
        prior = ModelPriorProbs(np.array([0.5, 0.2, 0.3]))
        post = model_posteriors(np.array([-3.0, -3.0, -3.0]), prior)
        np.testing.assert_allclose(post.pi_hat, prior.pi, rtol=1e-12)

    def test_six_to_one_evidence_ratio(self):
        log_ev = np.zeros(7)
        log_ev[LN_INDEX] = np.log(6.0)
        post = model_posteriors(log_ev, ModelPriorProbs.uniform(7))
        assert post.pi_hat[LN_INDEX] == pytest.approx(0.5, rel=1e-12)

    def test_strong_correct_prior_with_equal_evidences(self):
        pi = np.full(7, 0.1 / 6.0)
        pi[LN_INDEX] = 0.9
        post = model_posteriors(np.full(7, -12.3), ModelPriorProbs(pi))
        assert post.pi_hat[LN_INDEX] == pytest.approx(0.9, rel=1e-12)

    @given(
        shift=st.floats(-200, 200),
        raw=st.lists(st.floats(-40, 40), min_size=7, max_size=7),
    )
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance_and_normalization(self, shift, raw):
        log_ev = np.asarray(raw)
        prior = ModelPriorProbs.uniform(7)
        a = model_posteriors(log_ev, prior).pi_hat
        b = model_posteriors(log_ev + shift, prior).pi_hat
        np.testing.assert_allclose(a, b, atol=1e-12)
        assert a.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all((a >= 0.0) & (a <= 1.0))

    def test_all_positive_priors_on_neg_inf_evidence_raises(self):
        prior = ModelPriorProbs(np.array([0.0, 1.0]))
        with pytest.raises(ValueError):
            model_posteriors(np.array([0.0, -np.inf]), prior)

    def test_prior_posterior_length_mismatch(self):
        with pytest.raises(ValueError):
            model_posteriors(np.zeros(3), ModelPriorProbs.uniform(7))


class TestInformationCriteria:
    def test_penalty_difference(self, rng):
        data = Dataset(rng.normal(10.0, 2.0, 8))
        a, b = information_criteria(ModelFamily.NORMAL, data)
        assert b - a == pytest.approx(2.0 * np.log(8) - 4.0, abs=1e-9)

    def test_normal_mle_closed_form(self):
        # mu_hat = 2, sigma_hat = sqrt(2/3) for {1, 2, 3}
        data = Dataset([1.0, 2.0, 3.0])
        theta, ll = max_log_likelihood(ModelFamily.NORMAL, data)
        assert theta[0] == pytest.approx(2.0, abs=1e-6)
        assert theta[1] == pytest.approx(np.sqrt(2.0 / 3.0), abs=1e-6)
        sigma2 = 2.0 / 3.0
        ll_expected = -1.5 * np.log(2 * np.pi * sigma2) - 1.0 / sigma2
        assert ll == pytest.approx(ll_expected, rel=1e-9)
        aic = information_criteria(ModelFamily.NORMAL, data)[0]
        assert aic == pytest.approx(-2 * ll_expected + 4.0, rel=1e-9)

    def test_doubling_data_adds_k_ln2_to_bic_penalty(self, rng):
        data = Dataset(rng.normal(30.0, 3.0, 12))
        doubled = Dataset(np.tile(data.values, 2))
        _, ll1 = max_log_likelihood(ModelFamily.NORMAL, data)
        _, ll2 = max_log_likelihood(ModelFamily.NORMAL, doubled)
        pen1 = information_criteria(ModelFamily.NORMAL, data)[1] + 2.0 * ll1
        pen2 = information_criteria(ModelFamily.NORMAL, doubled)[1] + 2.0 * ll2
        assert pen2 - pen1 == pytest.approx(2.0 * np.log(2.0), abs=1e-6)

    @pytest.mark.parametrize(
        "family",
        [ModelFamily.GAMMA, ModelFamily.LOGNORMAL, ModelFamily.WEIBULL,
         ModelFamily.INVERSE_GAUSSIAN, ModelFamily.LOGISTIC, ModelFamily.LOGLOGISTIC],
    )
    def test_mle_beats_moment_start(self, family, rng):
        from mmuq.distributions import log_likelihood, params_from_moments, sample

        theta_gen = params_from_moments(family, 34.782, 0.116)
        data = Dataset(sample(family, theta_gen, rng, 60))
        theta_hat, ll_hat = max_log_likelihood(family, data)
        mean, sd = data.values.mean(), data.values.std(ddof=1)
        start = params_from_moments(family, mean, sd / mean)
        assert ll_hat >= log_likelihood(family, start, data) - 1e-9
        assert ll_hat == pytest.approx(log_likelihood(family, theta_hat, data), rel=1e-12)


class TestWeights:
    def test_equal_aics_give_uniform_weights(self):
        np.testing.assert_allclose(aic_weights(np.full(5, 12.0)), np.full(5, 0.2), rtol=1e-12)

    def test_four_to_one_delta(self):
        w = aic_weights(np.array([0.0, 2.0 * np.log(4.0)]))
        np.testing.assert_allclose(w, [0.8, 0.2], rtol=1e-12)

    @given(
        shift=st.floats(-50, 50),
        raw=st.lists(st.floats(0, 100), min_size=2, max_size=9),
    )
    @settings(max_examples=50, deadline=None)
    def test_shift_invariance(self, shift, raw):
        aics = np.asarray(raw)
        np.testing.assert_allclose(
            aic_weights(aics), aic_weights(aics + shift), atol=1e-12
        )

    def test_uniform_prior_equal_bics(self):
        w = model_posteriors(-np.full(7, 3.0) / 2.0, ModelPriorProbs.uniform(7)).pi_hat
        np.testing.assert_allclose(w, np.full(7, 1.0 / 7.0), rtol=1e-12)

    def test_savvy_identity_randomized(self, rng):
        # BIC weights under savvy priors coincide with AIC weights for any
        # shared maximized log likelihoods
        for _ in range(100):
            m = rng.integers(2, 8)
            n = int(rng.choice([10, 100, 1000]))
            ks = rng.integers(1, 4, size=m).astype(float)
            ll = rng.normal(-120.0, 30.0, size=m)
            aics = -2.0 * ll + 2.0 * ks
            bics = -2.0 * ll + ks * np.log(n)
            w_bic = model_posteriors(-bics / 2.0, savvy_priors(n, ks)).pi_hat
            w_aic = aic_weights(aics)
            np.testing.assert_allclose(w_bic, w_aic, atol=1e-10)

    def test_concentrated_prior_weight_gain_criterion(self, rng):
        # w_j exceeds pi_j exactly when exp(-BIC_j/2) beats the prior-weighted
        # average of exp(-BIC_k/2); oracle in plain linear arithmetic
        for _ in range(50):
            m = 5
            bics = rng.uniform(0.0, 20.0, size=m)
            pi_raw = rng.dirichlet(np.ones(m) * 0.3)
            prior = ModelPriorProbs(pi_raw / pi_raw.sum())
            w = model_posteriors(-bics / 2.0, prior).pi_hat
            lin = np.exp(-bics / 2.0)
            avg = np.sum(prior.pi * lin)
            for j in range(m):
                if prior.pi[j] == 0.0:
                    continue
                assert (w[j] > prior.pi[j]) == (lin[j] > avg)

    def test_bayes_rule_on_bics_equals_generalized_bic_weights(self, rng):
        # Bayes' rule on -BIC/2 is the generalized BIC weight formula bit
        # for bit: halving is exact, so the shifted log evidences agree
        for _ in range(500):
            m = int(rng.integers(2, 8))
            bics = rng.normal(300.0, 80.0, size=m)
            if rng.random() < 0.5:
                prior = savvy_priors(int(rng.integers(2, 20_000)), rng.integers(1, 4, size=m))
            else:
                prior = ModelPriorProbs(rng.dirichlet(np.ones(m)))
            got = model_posteriors(-bics / 2.0, prior).pi_hat
            np.testing.assert_array_equal(got, generalized_bic_weights(bics, prior))

    def test_savvy_priors_equal_complexity_is_uniform(self):
        pri = savvy_priors(125, np.full(7, 2.0))
        np.testing.assert_allclose(pri.pi, np.full(7, 1.0 / 7.0), rtol=1e-12)


class TestProbContainers:
    def test_prior_must_sum_to_one(self):
        with pytest.raises(ValueError):
            ModelPriorProbs(np.array([0.5, 0.6]))
        with pytest.raises(ValueError):
            ModelPriorProbs(np.array([1.5, -0.5]))

    def test_posterior_container_validates(self):
        with pytest.raises(ValueError):
            ModelPosteriorProbs(pi_hat=np.array([0.9, 0.2]), log_evidence=np.zeros(2))
