"""Uniform-box and KDE prior checks: envelope-derived bounds, AMISE
bandwidths, density normalization, sampling law."""

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import chi2, norm

from mmuq.distributions import (
    FAMILIES,
    Dataset,
    ModelFamily,
    log_likelihood_batch,
    log_pdf_grid,
    params_from_moments,
    sample,
    sample_one_per,
)
from mmuq.mcmc import EnsembleConfig
from mmuq.priors import (
    DegenerateDataError,
    ENVELOPE_COV,
    ENVELOPE_MEAN,
    HISTORICAL_SOURCES,
    KdePrior,
    UniformBoxPrior,
    build_informative_prior,
    default_uniform_prior,
    historical_dataset,
    kde_bandwidths,
)

QUICK_CHAIN = EnsembleConfig(n_walkers=32, n_steps=900, burn_in=300)


def quick_prior(family, historical, max_components=5000):
    return build_informative_prior(
        family, historical, QUICK_CHAIN, np.random.default_rng(0), max_components
    )


def trapz2d(z, x, y):
    return np.trapezoid(np.trapezoid(z, y, axis=1), x)


class TestDefaultUniformPrior:
    def test_normal_box_matches_envelope(self):
        box = default_uniform_prior(ModelFamily.NORMAL)
        np.testing.assert_allclose(box.lo, [20.0, 0.2], rtol=1e-12)
        np.testing.assert_allclose(box.hi, [60.0, 21.0], rtol=1e-12)

    def test_lognormal_box_matches_envelope(self):
        # propagate the envelope corners through the moment relations
        box = default_uniform_prior(ModelFamily.LOGNORMAL)
        z_max = np.sqrt(np.log1p(0.35**2))
        z_min = np.sqrt(np.log1p(0.01**2))
        assert box.lo[0] == pytest.approx(np.log(20.0) - z_max**2 / 2.0, rel=1e-12)
        assert box.hi[0] == pytest.approx(np.log(60.0) - z_min**2 / 2.0, rel=1e-12)
        assert box.lo[1] == pytest.approx(z_min, rel=1e-12)
        assert box.hi[1] == pytest.approx(z_max, rel=1e-12)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_box_contains_envelope_interior(self, family, rng):
        box = default_uniform_prior(family)
        for _ in range(50):
            mean = rng.uniform(*ENVELOPE_MEAN)
            cov = rng.uniform(*ENVELOPE_COV)
            theta = params_from_moments(family, mean, cov)
            assert np.all(theta >= box.lo - 1e-9) and np.all(theta <= box.hi + 1e-9)

    def test_density_is_inverse_volume_inside_and_zero_outside(self):
        box = default_uniform_prior(ModelFamily.NORMAL)
        volume = np.prod(box.hi - box.lo)
        dens = np.exp(box.log_density_batch(np.array([[40.0, 5.0], [40.0, 30.0], [10.0, 5.0]])))
        assert dens[0] == pytest.approx(1.0 / volume, rel=1e-12)
        assert dens[1] == 0.0
        assert dens[2] == 0.0

    @pytest.mark.parametrize("family", FAMILIES)
    def test_density_integrates_to_one(self, family):
        box = default_uniform_prior(family)
        margin = 0.05 * (box.hi - box.lo)
        x = np.linspace(box.lo[0] - margin[0], box.hi[0] + margin[0], 801)
        y = np.linspace(box.lo[1] - margin[1], box.hi[1] + margin[1], 801)
        gx, gy = np.meshgrid(x, y, indexing="ij")
        pts = np.column_stack([gx.ravel(), gy.ravel()])
        dens = np.exp(box.log_density_batch(pts)).reshape(gx.shape)
        assert trapz2d(dens, x, y) == pytest.approx(1.0, abs=0.005)


class TestKdeBandwidths:
    def test_two_dimensional_coefficient_is_one(self, rng):
        # [4/(K+2)]^{1/(K+4)} = 1 for K=2, so w_i = n^{-1/6} sigma_i
        samples = rng.standard_normal((500, 2)) * [2.0, 0.3]
        w = kde_bandwidths(samples)
        sigma = np.std(samples, axis=0, ddof=1)
        np.testing.assert_allclose(w, 500 ** (-1.0 / 6.0) * sigma, rtol=1e-12)

    def test_sixty_four_samples_unit_sigma(self, rng):
        raw = rng.standard_normal((64, 2))
        samples = (raw - raw.mean(axis=0)) / raw.std(axis=0, ddof=1)
        np.testing.assert_allclose(kde_bandwidths(samples), [0.5, 0.5], rtol=1e-12)

    def test_scaling_homogeneity(self, rng):
        samples = rng.standard_normal((200, 2))
        np.testing.assert_allclose(
            kde_bandwidths(3.7 * samples), 3.7 * kde_bandwidths(samples), rtol=1e-12
        )

    def test_zero_variance_dimension_raises(self):
        samples = np.column_stack([np.ones(50), np.linspace(0, 1, 50)])
        with pytest.raises(DegenerateDataError):
            kde_bandwidths(samples)


class TestKdePrior:
    def test_single_kernel_peak_value(self):
        theta0 = np.array([3.0, -1.0])
        w = np.array([0.2, 0.5])
        prior = KdePrior(support_samples=theta0[None, :], bandwidths=w)
        expected = 1.0 / (w[0] * np.sqrt(2 * np.pi)) / (w[1] * np.sqrt(2 * np.pi))
        assert np.exp(prior.log_density_batch(theta0)[0]) == pytest.approx(expected, rel=1e-12)

    def test_density_integrates_to_one(self, rng):
        support = rng.standard_normal((150, 2)) * [1.5, 0.4] + [10.0, 2.0]
        prior = KdePrior(support, kde_bandwidths(support))
        x = np.linspace(10.0 - 12.0, 10.0 + 12.0, 501)
        y = np.linspace(2.0 - 4.0, 2.0 + 4.0, 501)
        gx, gy = np.meshgrid(x, y, indexing="ij")
        dens = np.exp(
            prior.log_density_batch(np.column_stack([gx.ravel(), gy.ravel()]))
        ).reshape(gx.shape)
        assert trapz2d(dens, x, y) == pytest.approx(1.0, abs=0.005)

    def test_sampling_matches_density_chi_square(self, rng):
        support = rng.standard_normal((60, 2)) * [1.0, 0.5]
        prior = KdePrior(support, np.array([0.4, 0.25]))
        n = 100_000
        draws = prior.sample(rng, n)
        # exact cell masses via the Gaussian CDF on a full partition of the
        # plane (outer cells run to infinity)
        edges_x = np.concatenate([[-np.inf], np.linspace(-2.5, 2.5, 6), [np.inf]])
        edges_y = np.concatenate([[-np.inf], np.linspace(-1.5, 1.5, 6), [np.inf]])

        def cell_mass_1d(edges, centers, w):
            z = (edges[:, None] - centers[None, :]) / w
            c = norm.cdf(z)
            return c[1:] - c[:-1]  # (n_cells, n_support)

        mx = cell_mass_1d(edges_x, support[:, 0], prior.bandwidths[0])
        my = cell_mass_1d(edges_y, support[:, 1], prior.bandwidths[1])
        probs = np.einsum("ik,jk->ij", mx, my) / support.shape[0]
        observed = np.histogram2d(draws[:, 0], draws[:, 1], bins=[edges_x, edges_y])[0]
        expected = n * probs
        stat = np.sum((observed - expected) ** 2 / expected)
        assert stat < chi2.ppf(0.99, df=observed.size - 1)

    def test_sampling_deterministic(self, rng):
        support = rng.standard_normal((30, 2))
        prior = KdePrior(support, np.array([0.3, 0.3]))
        a = prior.sample(np.random.default_rng(5), 100)
        b = prior.sample(np.random.default_rng(5), 100)
        np.testing.assert_array_equal(a, b)


    @staticmethod
    def reference_log_density(prior, thetas):
        # direct log-sum-exp over every kernel, no blocks or peak shift
        z = (thetas[:, None, :] - prior.support_samples[None, :, :]) / prior.bandwidths
        log_kernels = -0.5 * np.sum(z * z, axis=2) - np.sum(np.log(prior.bandwidths)) - np.log(
            2.0 * np.pi
        )
        return logsumexp(log_kernels, axis=1) - np.log(prior.n_components)

    @staticmethod
    def assert_one_row_calls_match(prior, thetas):
        np.testing.assert_array_equal(
            np.concatenate([prior.log_density_batch(t[None, :]) for t in thetas]),
            prior.log_density_batch(thetas),
        )

    @pytest.fixture
    def wide_prior(self, rng):
        support = rng.standard_normal((700, 2)) * [1.5, 0.4] + [10.0, 2.0]
        return KdePrior(support, kde_bandwidths(support))

    @pytest.mark.parametrize("rows", [1, 511, 512, 513, 1100])
    def test_batch_matches_direct_reference(self, wide_prior, rng, rows):
        # one row, counts that end mid-block, and 1100 rows across six
        # default blocks (187 rows each at 700 kernels)
        idx = rng.integers(0, wide_prior.n_components, rows)
        thetas = wide_prior.support_samples[idx] + rng.standard_normal((rows, 2)) * [2.0, 0.5]
        got = wide_prior.log_density_batch(thetas)
        assert got.shape == (rows,)
        np.testing.assert_allclose(
            got, self.reference_log_density(wide_prior, thetas), rtol=0.0, atol=1e-12
        )

    def test_far_point_is_finite(self, wide_prior):
        # 100 bandwidths from every kernel, every exp(-z^2/2) underflows to 0
        far = wide_prior.support_samples.max(axis=0) + 100.0 * wide_prior.bandwidths
        got = wide_prior.log_density_batch(far[None, :])
        assert np.all(np.isfinite(got))
        assert got[0] < -1000.0
        np.testing.assert_allclose(
            got, self.reference_log_density(wide_prior, far[None, :]), rtol=1e-14, atol=1e-12
        )

    def test_one_row_calls_match_batched_call(self, wide_prior, rng):
        # 1100 rows span six default blocks at 700 kernels; blocking must
        # not change a single bit
        self.assert_one_row_calls_match(wide_prior, wide_prior.sample(rng, 1100))

    @pytest.mark.parametrize("rows", [188, 375])
    def test_one_row_tail_block_matches_one_row_calls(self, wide_prior, rng, rows):
        # blocks hold 187 rows at 700 kernels, so the last row of these
        # calls sits alone in its block; its product is padded to two rows
        # like a one-row call's.  A product left unpadded changes about one
        # row in eight, so 40 different last rows are tried
        head = wide_prior.sample(rng, rows - 1)
        tails = wide_prior.sample(rng, 40)
        self.assert_one_row_calls_match(wide_prior, np.vstack([head, tails[:1]]))
        np.testing.assert_array_equal(
            [wide_prior.log_density_batch(np.vstack([head, t]))[-1] for t in tails],
            np.concatenate([wide_prior.log_density_batch(t[None, :]) for t in tails]),
        )

    def test_input_is_not_mutated(self, wide_prior, rng):
        thetas = wide_prior.sample(rng, 600)
        before = thetas.copy()
        wide_prior.log_density_batch(thetas)
        np.testing.assert_array_equal(thetas, before)

    def test_rejects_wrong_column_count(self, wide_prior):
        with pytest.raises(ValueError):
            wide_prior.log_density_batch(np.zeros((4, 3)))

    @pytest.mark.parametrize(
        "support, bandwidths",
        [
            (np.array([[1.0, 2.0], [np.nan, 2.0]]), np.array([0.1, 0.1])),
            (np.array([[1.0, np.inf], [1.0, 2.0]]), np.array([0.1, 0.1])),
            (np.empty((0, 2)), np.array([0.1, 0.1])),
            (np.array([[1.0, 2.0]]), np.array([0.1, np.inf])),
            (np.array([[1.0, 2.0]]), np.array([0.1, 0.0])),
        ],
        ids=["nan-support", "inf-support", "empty-support", "inf-bandwidth", "zero-bandwidth"],
    )
    def test_rejects_invalid_construction(self, support, bandwidths):
        with pytest.raises(ValueError):
            KdePrior(support, bandwidths)


@pytest.mark.parametrize(
    "call",
    [
        UniformBoxPrior(lo=np.array([0.0, 0.0]), hi=np.array([2.0, 2.0])).log_density_batch,
        KdePrior(np.array([[1.0, 1.0], [1.5, 0.5]]), np.array([0.3, 0.3])).log_density_batch,
        lambda t: log_pdf_grid(ModelFamily.NORMAL, t, np.array([34.0, 35.0])),
        lambda t: log_likelihood_batch(ModelFamily.NORMAL, t, Dataset([34.0, 35.0])),
        lambda t: sample_one_per(ModelFamily.NORMAL, t, np.random.default_rng(0)),
    ],
    ids=["box", "kde", "log_pdf_grid", "log_likelihood_batch", "sample_one_per"],
)
@pytest.mark.parametrize(
    "thetas", [np.ones((4, 1)), np.ones(1), np.zeros((4, 3))], ids=["4x1", "1", "4x3"]
)
def test_log_density_rejects_rows_that_are_not_pairs(call, thetas):
    # a (4, 1) or one-element input would broadcast against the box's
    # 2-vector bounds and give one density per element; the distribution
    # functions dropped a third column, and failed on a (4, 1) or
    # one-element input with an IndexError or AxisError
    with pytest.raises(ValueError, match=r"thetas must have shape \(rows, 2\)"):
        call(thetas)


class TestBuildInformativePrior:
    def test_abs_b_prior_mode_near_generator(self):
        historical = historical_dataset("ABS-B")
        assert historical.n == 79
        prior = quick_prior(ModelFamily.LOGNORMAL, historical)
        target = params_from_moments(ModelFamily.LOGNORMAL, 34.782, 0.116)
        mean = prior.support_samples.mean(axis=0)
        sd = prior.support_samples.std(axis=0, ddof=1)
        x = np.linspace(mean[0] - 3 * sd[0], mean[0] + 3 * sd[0], 121)
        y = np.linspace(mean[1] - 3 * sd[1], mean[1] + 3 * sd[1], 121)
        gx, gy = np.meshgrid(x, y, indexing="ij")
        dens = prior.log_density_batch(np.column_stack([gx.ravel(), gy.ravel()]))
        mode = np.column_stack([gx.ravel(), gy.ravel()])[np.argmax(dens)]
        # smoothing tolerance: a couple of bandwidths plus the posterior
        # spread from only 79 historical observations
        tol = 2.0 * prior.bandwidths + 3.0 * sd
        assert np.all(np.abs(mode - target) < tol)

    def test_large_historical_sample_mode_within_two_bandwidths(self, rng):
        theta_true = params_from_moments(ModelFamily.LOGNORMAL, 34.782, 0.116)
        historical = Dataset(
            sample(ModelFamily.LOGNORMAL, theta_true, rng, 2000), label="big"
        )
        prior = quick_prior(ModelFamily.LOGNORMAL, historical)
        # fitted parameters: closed-form lognormal MLE on the historical data
        logs = np.log(historical.values)
        fitted = np.array([logs.mean(), logs.std()])
        mean = prior.support_samples.mean(axis=0)
        sd = prior.support_samples.std(axis=0, ddof=1)
        x = np.linspace(mean[0] - 4 * sd[0], mean[0] + 4 * sd[0], 161)
        y = np.linspace(mean[1] - 4 * sd[1], mean[1] + 4 * sd[1], 161)
        gx, gy = np.meshgrid(x, y, indexing="ij")
        dens = prior.log_density_batch(np.column_stack([gx.ravel(), gy.ravel()]))
        mode = np.column_stack([gx.ravel(), gy.ravel()])[np.argmax(dens)]
        # two bandwidths of smoothing plus the Monte Carlo error of locating
        # a mode from a finite, autocorrelated chain
        assert np.all(np.abs(mode - fitted) < 2.0 * prior.bandwidths + 0.5 * sd)

    def test_repeated_value_raises_degenerate(self):
        with pytest.raises(DegenerateDataError):
            quick_prior(ModelFamily.NORMAL, Dataset(np.full(20, 34.0)))

    def test_prior_sample_mean_matches_support_mean(self, rng):
        prior = quick_prior(ModelFamily.NORMAL, historical_dataset("ASTM-A7"))
        n = 100_000
        draws = prior.sample(rng, n)
        support_mean = prior.support_samples.mean(axis=0)
        # KDE sampling adds zero-mean noise to a uniformly chosen support
        # sample, so the draw mean estimates the support mean
        spread = np.sqrt(prior.support_samples.var(axis=0) + prior.bandwidths**2)
        np.testing.assert_allclose(
            draws.mean(axis=0), support_mean, atol=3.0 * spread.max() / np.sqrt(n)
        )

    def test_out_of_domain_draws_do_not_crash_likelihood(self, rng):
        # tight support near the sigma > 0 boundary with fat bandwidths
        support = np.column_stack([np.full(40, 34.0), np.full(40, 0.05)]) + (
            rng.standard_normal((40, 2)) * 0.01
        )
        prior = KdePrior(support, np.array([1.0, 0.5]))
        draws = prior.sample(rng, 2000)
        assert np.any(draws[:, 1] <= 0.0)
        ll = log_likelihood_batch(
            ModelFamily.NORMAL, draws, Dataset([33.0, 35.0, 34.5])
        )
        assert np.all(np.isfinite(ll) | np.isneginf(ll))
        assert np.all(np.isneginf(ll[draws[:, 1] <= 0.0]))

    def test_kde_component_cap_strides_chain(self):
        prior = quick_prior(ModelFamily.LOGNORMAL, historical_dataset("ABS-C"), 1000)
        assert prior.n_components <= 1000

    @pytest.mark.parametrize("cap", [1, 0, -1, -2])
    def test_rejects_kernel_cap_below_two(self, cap):
        # a negative cap would stride the chain backwards, 0 would divide by
        # zero and 1 leaves too few kernels for a bandwidth
        with pytest.raises(ValueError, match="max_components"):
            quick_prior(ModelFamily.LOGNORMAL, historical_dataset("ABS-C"), cap)


class TestHistoricalData:
    @pytest.mark.parametrize("name", sorted(HISTORICAL_SOURCES))
    def test_counts_and_published_summaries(self, name):
        # the regenerated sets reproduce the published summary statistics
        src = HISTORICAL_SOURCES[name]
        data = historical_dataset(name)
        assert data.n == src.n_tests
        assert data.values.mean() == pytest.approx(src.mean, abs=1e-9)
        sd = data.values.std(ddof=1)
        assert sd / data.values.mean() == pytest.approx(src.cov, abs=1e-9)
        assert np.all(data.values > 0.0)

    def test_deterministic(self):
        a = historical_dataset("ABS-B")
        b = historical_dataset("ABS-B")
        np.testing.assert_array_equal(a.values, b.values)

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            historical_dataset("ABS-Z")


class TestUniformSampling:
    def test_moments_of_uniform_draws(self, rng):
        box = UniformBoxPrior(lo=np.array([2.0, 10.0]), hi=np.array([4.0, 30.0]))
        draws = box.sample(rng, 10**6)
        widths = box.hi - box.lo
        mid = (box.hi + box.lo) / 2.0
        np.testing.assert_allclose(
            draws.mean(axis=0), mid, atol=float(3.0 * widths.max() / np.sqrt(12.0) / 1e3)
        )

    def test_deterministic(self):
        box = UniformBoxPrior(lo=np.array([0.0, 0.0]), hi=np.array([1.0, 1.0]))
        a = box.sample(np.random.default_rng(3), 50)
        b = box.sample(np.random.default_rng(3), 50)
        np.testing.assert_array_equal(a, b)

    def test_rejects_improper_bounds(self):
        with pytest.raises(ValueError):
            UniformBoxPrior(lo=np.array([0.0, 1.0]), hi=np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            UniformBoxPrior(lo=np.array([0.0, 0.0]), hi=np.array([np.inf, 1.0]))
