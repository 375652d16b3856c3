"""Stretch-move kernel checks: proposal-factor law, invariance, conjugate
posteriors, determinism."""

import numpy as np
import pytest
from scipy.stats import chi2, norm

from mmuq.distributions import Dataset, ModelFamily
from mmuq.mcmc import (
    DegenerateChainError,
    EnsembleConfig,
    InitializationError,
    PosteriorChain,
    STRETCH_A,
    draw_stretch_factors,
    effective_sample_size,
    run_ensemble_sampler,
    sample_posterior,
)
from mmuq.priors import UniformBoxPrior


def walker_series(chain: PosteriorChain, cfg: EnsembleConfig, dim: int) -> np.ndarray:
    """(n_post_steps, n_walkers) view of one parameter dimension."""
    return chain.samples.reshape(-1, cfg.n_walkers, 2)[:, :, dim]


def chain_ess(chain: PosteriorChain, cfg: EnsembleConfig, dim: int) -> float:
    series = walker_series(chain, cfg, dim)
    return sum(effective_sample_size(series[:, w]) for w in range(cfg.n_walkers))


def gaussian_log_prob(mean, cov):
    inv = np.linalg.inv(cov)

    def log_prob(thetas):
        d = thetas - mean
        return -0.5 * np.einsum("ij,jk,ik->i", d, inv, d)

    return log_prob


class TestStretchFactors:
    def test_support(self):
        z = draw_stretch_factors(np.random.default_rng(0), 10_000)
        assert z.min() >= 1.0 / STRETCH_A and z.max() <= STRETCH_A

    def test_density_chi_square(self):
        # g(z) ~ 1/sqrt(z) on [1/a, a]; bin masses follow from the exact CDF
        a = STRETCH_A
        n = 200_000
        z = draw_stretch_factors(np.random.default_rng(1), n)
        edges = np.linspace(1.0 / a, a, 41)
        observed, _ = np.histogram(z, bins=edges)
        norm_const = np.sqrt(a) - np.sqrt(1.0 / a)
        expected = n * np.diff(np.sqrt(edges)) / norm_const
        stat = np.sum((observed - expected) ** 2 / expected)
        assert stat < chi2.ppf(0.99, df=len(expected) - 1)


class TestGaussianTargets:
    COV = np.array([[2.0, 1.2], [1.2, 1.5]])
    MEAN = np.array([1.0, -2.0])

    def run_chain(self, log_prob, cfg, init_spread=1.0, seed=0):
        rng = np.random.default_rng(seed)
        init = self.MEAN + init_spread * rng.standard_normal((cfg.n_walkers, 2))
        chain, rate = run_ensemble_sampler(log_prob, init, cfg, rng)
        return chain[cfg.burn_in :].reshape(-1, 2), rate

    def test_mean_and_covariance_within_3se(self):
        cfg = EnsembleConfig(n_walkers=32, n_steps=4000, burn_in=1000)
        flat, rate = self.run_chain(gaussian_log_prob(self.MEAN, self.COV), cfg)
        assert 0.05 < rate < 0.95
        per_walker = flat.reshape(-1, cfg.n_walkers, 2)
        for dim in range(2):
            ess = sum(
                effective_sample_size(per_walker[:, w, dim]) for w in range(cfg.n_walkers)
            )
            sd = np.sqrt(self.COV[dim, dim])
            assert flat[:, dim].mean() == pytest.approx(
                self.MEAN[dim], abs=3.0 * sd / np.sqrt(ess)
            )
            assert flat[:, dim].var() == pytest.approx(
                self.COV[dim, dim], abs=3.0 * self.COV[dim, dim] * np.sqrt(2.0 / ess)
            )

    def test_affine_invariance_of_quantiles(self):
        # chain on the mapped target vs mapped chain on the base target
        A = np.array([[3.0, 0.7], [-0.4, 1.6]])
        b = np.array([10.0, -5.0])
        cfg = EnsembleConfig(n_walkers=32, n_steps=4000, burn_in=1000)
        mapped_mean = A @ self.MEAN + b
        mapped_cov = A @ self.COV @ A.T

        base_flat, _ = self.run_chain(gaussian_log_prob(self.MEAN, self.COV), cfg, seed=5)
        mapped_flat = base_flat @ A.T + b

        def run_mapped(seed):
            rng = np.random.default_rng(seed)
            init = mapped_mean + rng.standard_normal((cfg.n_walkers, 2)) @ np.linalg.cholesky(
                mapped_cov
            ).T
            chain, _ = run_ensemble_sampler(
                gaussian_log_prob(mapped_mean, mapped_cov), init, cfg, rng
            )
            return chain[cfg.burn_in :].reshape(-1, 2)

        direct_flat = run_mapped(seed=17)
        qs = np.linspace(0.05, 0.95, 10)
        for dim in range(2):
            ess = min(
                sum(
                    effective_sample_size(f.reshape(-1, cfg.n_walkers, 2)[:, w, dim])
                    for w in range(cfg.n_walkers)
                )
                for f in (mapped_flat, direct_flat)
            )
            sd = np.sqrt(mapped_cov[dim, dim])
            for q in qs:
                # analytic standard error of a Gaussian sample quantile
                se = sd * np.sqrt(q * (1 - q)) / norm.pdf(norm.ppf(q)) / np.sqrt(ess)
                lhs = np.quantile(mapped_flat[:, dim], q)
                rhs = np.quantile(direct_flat[:, dim], q)
                assert lhs == pytest.approx(rhs, abs=3.0 * np.sqrt(2.0) * se)

    def test_all_rejected_is_degenerate(self):
        # prior support is 8 distinct atoms, one per walker: every stretch
        # proposal interpolates between two atoms and lands off-support
        atoms = np.array([[float(i + 1), 1.0 + 0.1 * i] for i in range(8)])

        class AtomPrior:
            def sample(self, rng, count=1):
                return atoms[:count].copy()

            def log_density_batch(self, thetas):
                thetas = np.atleast_2d(thetas)
                hit = np.any(
                    np.all(thetas[:, None, :] == atoms[None, :, :], axis=2), axis=1
                )
                return np.where(hit, 0.0, -np.inf)

        with pytest.raises(DegenerateChainError):
            sample_posterior(
                ModelFamily.NORMAL,
                Dataset([0.5]),
                AtomPrior(),
                EnsembleConfig(n_walkers=8, n_steps=50, burn_in=10),
                np.random.default_rng(2),
            )


class TestSamplePosterior:
    def conjugate_setup(self, rng, n=25, sigma=4.0):
        data = Dataset(rng.normal(50.0, sigma, n), label="conjugate")
        eps = 1e-7
        prior = UniformBoxPrior(
            lo=np.array([0.0, sigma * (1 - eps)]), hi=np.array([100.0, sigma * (1 + eps)])
        )
        return data, prior, sigma

    def test_posterior_mean_matches_conjugate_solution(self, rng):
        data, prior, sigma = self.conjugate_setup(rng)
        cfg = EnsembleConfig(n_walkers=32, n_steps=2500, burn_in=600)
        chain = sample_posterior(ModelFamily.NORMAL, data, prior, cfg, np.random.default_rng(9))
        assert 0.05 < chain.acceptance_rate < 0.95
        ess = chain_ess(chain, cfg, dim=0)
        xbar = data.values.mean()
        tol = 3.0 * (sigma / np.sqrt(data.n)) / np.sqrt(ess)
        assert chain.samples[:, 0].mean() == pytest.approx(xbar, abs=tol)

    def test_narrow_prior_confines_samples(self, rng):
        data = Dataset(rng.normal(10.0, 2.0, 10))
        prior = UniformBoxPrior(lo=np.array([10.0, 2.0]), hi=np.array([10.001, 2.001]))
        cfg = EnsembleConfig(n_walkers=16, n_steps=300, burn_in=50)
        chain = sample_posterior(ModelFamily.NORMAL, data, prior, cfg, np.random.default_rng(4))
        assert np.all(chain.samples[:, 0] >= 10.0) and np.all(chain.samples[:, 0] <= 10.001)
        assert np.all(chain.samples[:, 1] >= 2.0) and np.all(chain.samples[:, 1] <= 2.001)

    def test_deterministic_given_seed(self, rng):
        data, prior, _ = self.conjugate_setup(rng, n=10)
        cfg = EnsembleConfig(n_walkers=16, n_steps=200, burn_in=50)
        a = sample_posterior(ModelFamily.NORMAL, data, prior, cfg, np.random.default_rng(12))
        b = sample_posterior(ModelFamily.NORMAL, data, prior, cfg, np.random.default_rng(12))
        np.testing.assert_array_equal(a.samples, b.samples)
        assert a.acceptance_rate == b.acceptance_rate

    def test_initialization_failure_names_model_and_prior(self):
        # negative observation kills every lognormal likelihood
        data = Dataset([3.0, -1.0])
        prior = UniformBoxPrior(lo=np.array([0.0, 0.1]), hi=np.array([5.0, 2.0]))
        cfg = EnsembleConfig(n_walkers=8, n_steps=100, burn_in=10)
        with pytest.raises(InitializationError, match="Lognormal"):
            sample_posterior(ModelFamily.LOGNORMAL, data, prior, cfg, np.random.default_rng(1))


class TestConfigValidation:
    def test_rejects_odd_walkers(self):
        with pytest.raises(ValueError):
            EnsembleConfig(n_walkers=7)

    def test_rejects_bad_burn_in(self):
        with pytest.raises(ValueError):
            EnsembleConfig(n_steps=100, burn_in=100)


def test_effective_sample_size_iid_series(rng):
    x = rng.standard_normal(4000)
    ess = effective_sample_size(x)
    assert 2000 < ess <= 4000


def test_effective_sample_size_correlated_series(rng):
    # AR(1) with rho=0.9 has integrated autocorrelation time ~19
    rho = 0.9
    eps = rng.standard_normal(20_000)
    x = np.empty_like(eps)
    x[0] = eps[0]
    for i in range(1, len(eps)):
        x[i] = rho * x[i - 1] + eps[i]
    ess = effective_sample_size(x)
    assert len(eps) / 40 < ess < len(eps) / 8
