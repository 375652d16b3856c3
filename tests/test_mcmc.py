"""Stretch-move kernel checks: proposal-factor law, invariance, conjugate
posteriors, determinism."""

import numpy as np
import pytest
from conftest import reference_stretch_sampler
from scipy.stats import chi2, norm

from mmuq import mcmc
from mmuq.distributions import Dataset, ModelFamily, _valid_rows, log_likelihood_batch, sample
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
from mmuq.priors import (
    UniformBoxPrior,
    build_informative_prior,
    default_uniform_prior,
    historical_dataset,
)


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


class TestAgainstReference:
    """The sampler updates its half-ensembles through slice views; the
    reference loop in conftest gathers and scatters them through index
    arrays.  Both must give the same chain to the bit."""

    @staticmethod
    def cut_gaussian(ndim, cut):
        # standard Gaussian, with -inf beyond x0 = 0.8 when ``cut``: a share
        # of every half-move's proposals is rejected outright
        def log_prob(thetas):
            out = -0.5 * np.sum(thetas * thetas, axis=1)
            if cut:
                out[thetas[:, 0] > 0.8] = -np.inf
            return out

        return log_prob

    @pytest.mark.parametrize("cut", [False, True], ids=["all-live", "partly-live"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("n_walkers, ndim", [(4, 2), (6, 3), (32, 2)])
    def test_chain_and_rate_match_reference_bitwise(self, n_walkers, ndim, seed, cut):
        cfg = EnsembleConfig(n_walkers=n_walkers, n_steps=300, burn_in=100)
        init = np.random.default_rng(seed + 100).uniform(-1.0, 0.5, (n_walkers, ndim))
        log_prob = self.cut_gaussian(ndim, cut)
        chain, rate = run_ensemble_sampler(log_prob, init, cfg, np.random.default_rng(seed))
        want, want_rate = reference_stretch_sampler(
            log_prob, init, cfg, np.random.default_rng(seed)
        )
        np.testing.assert_array_equal(chain, want)
        assert rate == want_rate
        assert 0.0 < rate < 1.0

    def test_initial_ensemble_is_not_mutated(self):
        cfg = EnsembleConfig(n_walkers=6, n_steps=20, burn_in=5)
        init = np.random.default_rng(3).uniform(-1.0, 0.5, (6, 2))
        before = init.copy()
        run_ensemble_sampler(self.cut_gaussian(2, True), init, cfg, np.random.default_rng(3))
        np.testing.assert_array_equal(init, before)


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

    def test_samples_are_a_copy_of_the_post_burn_in_rows(self, rng, monkeypatch):
        # a view would keep the burn-in steps alive with the chain
        data, prior, _ = self.conjugate_setup(rng, n=10)
        cfg = EnsembleConfig(n_walkers=16, n_steps=200, burn_in=50)
        runs = []

        def recording(*args):
            runs.append(run_ensemble_sampler(*args))
            return runs[-1]

        monkeypatch.setattr(mcmc, "run_ensemble_sampler", recording)
        chain = sample_posterior(ModelFamily.NORMAL, data, prior, cfg, np.random.default_rng(12))
        assert chain.samples.base is None
        full, _ = runs[0]
        want = full[cfg.burn_in :].reshape(-1, 2)
        assert chain.samples.tobytes() == want.tobytes()

    def test_initialization_failure_names_model_and_prior(self):
        # negative observation kills every lognormal likelihood
        data = Dataset([3.0, -1.0])
        prior = UniformBoxPrior(lo=np.array([0.0, 0.1]), hi=np.array([5.0, 2.0]))
        cfg = EnsembleConfig(n_walkers=8, n_steps=100, burn_in=10)
        with pytest.raises(InitializationError, match="Lognormal"):
            sample_posterior(ModelFamily.LOGNORMAL, data, prior, cfg, np.random.default_rng(1))


def subset_sample_posterior(family, data, prior, cfg, rng, tally):
    """``sample_posterior`` with its earlier log posterior, kept as a
    reference: the likelihood only on the rows the prior keeps, scattered
    back into a -inf array.  ``tally`` counts the rows the prior rules out
    ("prior") and the rows it keeps that the family rules out ("family")."""

    def log_post(thetas):
        lp = prior.log_density_batch(thetas)
        live = lp > -np.inf
        tally["prior"] += int(np.count_nonzero(~live))
        tally["family"] += int(np.count_nonzero(live & ~_valid_rows(family, thetas)))
        if live.all():
            return lp + log_likelihood_batch(family, thetas, data)
        out = np.full(thetas.shape[0], -np.inf)
        if live.any():
            out[live] = lp[live] + log_likelihood_batch(family, thetas[live], data)
        return out

    initial = np.empty((cfg.n_walkers, 2))
    filled = 0
    while filled < cfg.n_walkers:
        draw = prior.sample(rng, cfg.n_walkers - filled)
        good = draw[np.isfinite(log_post(draw))]
        take = min(good.shape[0], cfg.n_walkers - filled)
        initial[filled : filled + take] = good[:take]
        filled += take
    chain, rate = run_ensemble_sampler(log_post, initial, cfg, rng)
    return chain[cfg.burn_in :].reshape(-1, 2), rate


class TestOnePathLogPosterior:
    """The log posterior adds the prior's log density and the likelihood on
    every row; the reference computed the likelihood only where the prior
    is finite.  Both must give the same chain to the bit."""

    def assert_matches_subset_reference(self, family, data, prior, cfg, seed):
        tally = {"prior": 0, "family": 0}
        want, want_rate = subset_sample_posterior(
            family, data, prior, cfg, np.random.default_rng(seed), tally
        )
        chain = sample_posterior(family, data, prior, cfg, np.random.default_rng(seed))
        np.testing.assert_array_equal(chain.samples, want)
        assert chain.acceptance_rate == want_rate
        return tally

    def test_gamma_under_the_noninformative_box(self, rng):
        # the unmixed Gamma chain proposes many rows outside its box
        family = ModelFamily.GAMMA
        data = Dataset(sample(family, (74.3, 0.468), rng, 25))
        cfg = EnsembleConfig(n_walkers=32, n_steps=300, burn_in=100)
        tally = self.assert_matches_subset_reference(
            family, data, default_uniform_prior(family), cfg, seed=5
        )
        assert tally["prior"] > 100

    def test_kde_prior_with_rows_the_family_rules_out(self):
        # a KDE prior is finite everywhere; the ABS-B Gamma prior has kernels
        # at scales near 0.01, so its Gaussian tails put rows at a scale <= 0
        # that only the likelihood rules out, under either log posterior
        family = ModelFamily.GAMMA
        cfg = EnsembleConfig(n_walkers=32, n_steps=300, burn_in=100)
        prior = build_informative_prior(
            family, historical_dataset("ABS-B"), cfg, np.random.default_rng(0), 500
        )
        data = Dataset(sample(family, (74.3, 0.468), np.random.default_rng(1), 25))
        tally = self.assert_matches_subset_reference(family, data, prior, cfg, seed=6)
        assert tally["family"] > 0


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
