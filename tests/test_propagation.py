"""Ensemble drawing, mixture sampling density and importance-sampling
propagation against nested Monte Carlo oracles."""

import tracemalloc

import numpy as np
import pytest

from mmuq import distributions, propagation
from mmuq.buckling import MEAN_PLATE, buckling_response, pf_semianalytic
from mmuq.distributions import (
    FAMILIES,
    InvalidParameterError,
    ModelFamily,
    log_pdf_grid,
    params_from_moments,
    pdf,
    sample,
)
from mmuq.evidence import ModelPosteriorProbs
from mmuq.mcmc import PosteriorChain
from mmuq.metrics import avg_mean_square_distance
from mmuq.propagation import (
    DistributionEnsemble,
    draw_ensemble,
    mixture_density,
    propagate,
    sample_mixture,
)

from conftest import STUDY_THETAS

LN_THETA = params_from_moments(ModelFamily.LOGNORMAL, 34.782, 0.116)

# One member per family, two of each, shuffled; the Normal and Logistic
# members put mass on x <= 0, where the other five have zero density.
MIXED_THETAS = {
    ModelFamily.GAMMA: (4.0, 0.5),
    ModelFamily.INVERSE_GAUSSIAN: (2.0, 6.0),
    ModelFamily.LOGISTIC: (0.5, 0.6),
    ModelFamily.LOGLOGISTIC: (0.6, 0.25),
    ModelFamily.LOGNORMAL: (0.5, 0.4),
    ModelFamily.NORMAL: (1.0, 1.0),
    ModelFamily.WEIBULL: (2.0, 2.0),
}


def mixed_ensemble():
    codes = np.repeat(np.arange(len(FAMILIES)), 2)
    thetas = np.array([MIXED_THETAS[FAMILIES[c]] for c in codes])
    thetas[1::2] *= 1.1
    order = np.random.default_rng(11).permutation(codes.size)
    return DistributionEnsemble(codes[order], thetas[order])


def lognormal_ensemble(n_d, seed=14):
    """``n_d`` Lognormal members jittered about (0.5, 0.4) by 5%."""
    jitter = 1.0 + 0.05 * np.random.default_rng(seed).standard_normal((n_d, 2))
    return DistributionEnsemble(
        np.full(n_d, FAMILIES.index(ModelFamily.LOGNORMAL)),
        np.array(MIXED_THETAS[ModelFamily.LOGNORMAL]) * jitter,
    )


def dense_two_pass(ens, x, g, threshold):
    """Importance-sampling statistics from the full (members x points)
    density matrix: q in a first pass, the weights p_i / q in a second, and
    each variance as the weighted mean square about the member's mean."""
    p = np.array([pdf(fam, theta, x) for fam, theta in ens])
    q = np.mean(p, axis=0)
    w = p / q
    gv = g(x)
    means = np.mean(w * gv, axis=1)
    return {
        "means": means,
        "variances": np.mean(w * (gv - means[:, None]) ** 2, axis=1),
        "pfs": np.mean(w * (gv < threshold), axis=1),
        "mean_weights": np.mean(w, axis=1),
    }


def synthetic_chains(rng, spread=0.02, n_samples=400):
    """Plausible posterior chains: moment-matched parameters jittered."""
    chains = {}
    for fam in FAMILIES:
        base = params_from_moments(fam, 34.782, 0.116)
        jitter = 1.0 + spread * rng.standard_normal((n_samples, 2))
        chains[fam] = PosteriorChain(base * jitter, acceptance_rate=0.5)
    return chains


def posterior_probs(pi_hat):
    return ModelPosteriorProbs(pi_hat=np.asarray(pi_hat), log_evidence=np.zeros(7))


def single_member_ensemble(family=ModelFamily.NORMAL, theta=(0.0, 1.0)):
    return DistributionEnsemble(
        np.array([FAMILIES.index(family)]), np.asarray(theta, float)[None, :]
    )


def mixture_cdf_quadrature(ens, lo, hi, n=50_001):
    grid = np.linspace(lo, hi, n)
    dens = mixture_density(ens, grid)
    cum = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0 * np.diff(grid))])
    return grid, cum


class TestDrawEnsemble:
    def test_degenerate_categorical(self, rng):
        chains = synthetic_chains(rng)
        pi = np.zeros(7)
        pi[0] = 1.0
        ens = draw_ensemble(chains.__getitem__, posterior_probs(pi), 200, rng)
        assert np.all(ens.family_codes == 0)

    def test_multinomial_counts_within_bound(self, rng):
        chains = synthetic_chains(rng)
        n_d = 5000
        ens = draw_ensemble(chains.__getitem__, posterior_probs(np.full(7, 1 / 7)), n_d, rng)
        expected = n_d / 7.0
        bound = 4.0 * np.sqrt(n_d * (1 / 7) * (6 / 7))
        for j in range(7):
            assert abs(np.sum(ens.family_codes == j) - expected) < bound

    def test_parameters_come_from_the_chains(self, rng):
        chains = synthetic_chains(rng)
        ens = draw_ensemble(chains.__getitem__, posterior_probs(np.full(7, 1 / 7)), 300, rng)
        for i in range(ens.n_members):
            fam, theta = ens.member(i)
            rows = chains[fam].samples
            assert np.any(np.all(rows == theta, axis=1))

    def test_deterministic(self, rng):
        chains = synthetic_chains(rng)
        probs = posterior_probs(np.full(7, 1 / 7))
        a = draw_ensemble(chains.__getitem__, probs, 100, np.random.default_rng(9))
        b = draw_ensemble(chains.__getitem__, probs, 100, np.random.default_rng(9))
        np.testing.assert_array_equal(a.family_codes, b.family_codes)
        np.testing.assert_array_equal(a.thetas, b.thetas)

    def test_missing_chain_for_live_model_raises(self, rng):
        chains = synthetic_chains(rng)
        del chains[ModelFamily.WEIBULL]
        pi = np.zeros(7)
        pi[FAMILIES.index(ModelFamily.WEIBULL)] = 1.0
        with pytest.raises(KeyError, match="Weibull"):
            draw_ensemble(chains.__getitem__, posterior_probs(pi), 10, rng)

    def test_missing_chain_for_undrawn_live_model_is_not_asked_for(self, rng):
        chains = synthetic_chains(rng)
        del chains[ModelFamily.WEIBULL]
        weibull = FAMILIES.index(ModelFamily.WEIBULL)
        pi = np.full(7, 1 / 6)
        pi[weibull] = 1e-300
        ens = draw_ensemble(chains.__getitem__, posterior_probs(pi), 500, rng)
        assert not np.any(ens.family_codes == weibull)


def eager_draw_ensemble(posteriors, probs, n_d, rng):
    """Reference: every chain with positive probability looked up before the
    categorical draw, each member's row drawn as a scaled uniform."""
    for j, fam in enumerate(FAMILIES):
        if probs.pi_hat[j] > 0.0 and fam not in posteriors:
            raise ValueError(f"no posterior chain for {fam} with positive probability")
    codes = rng.choice(len(FAMILIES), size=n_d, p=probs.pi_hat)
    lengths = np.array(
        [posteriors[f].samples.shape[0] if f in posteriors else 1 for f in FAMILIES]
    )
    rows = np.floor(rng.random(n_d) * lengths[codes]).astype(np.int64)
    thetas = np.empty((n_d, 2))
    for j, fam in enumerate(FAMILIES):
        sel = codes == j
        if np.any(sel):
            thetas[sel] = posteriors[fam].samples[rows[sel]]
    return DistributionEnsemble(codes, thetas)


def one_hot(j):
    pi = np.zeros(7)
    pi[j] = 1.0
    return pi


def tiny_on_two(j, k):
    pi = np.full(7, 1 / 5)
    pi[[j, k]] = 1e-300
    return pi


class TestDrawEnsembleMatchesEagerReference:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "pi_hat",
        [np.full(7, 1 / 7), one_hot(0), one_hot(4), tiny_on_two(1, 6), tiny_on_two(2, 3)],
        ids=["uniform", "one-hot-0", "one-hot-4", "tiny-1-6", "tiny-2-3"],
    )
    def test_members_equal_and_chains_asked_once_per_drawn_family(self, seed, pi_hat):
        # chains of different lengths, so a row index scaled by the wrong
        # family's length would show
        chain_rng = np.random.default_rng(100 + seed)
        chains = {
            fam: PosteriorChain(
                chain_rng.standard_normal((50 + 37 * j, 2)) + 10.0, acceptance_rate=0.5
            )
            for j, fam in enumerate(FAMILIES)
        }
        probs = posterior_probs(pi_hat)
        asked = []

        def chain_of(fam):
            asked.append(fam)
            return chains[fam]

        want = eager_draw_ensemble(chains, probs, 700, np.random.default_rng(seed))
        got = draw_ensemble(chain_of, probs, 700, np.random.default_rng(seed))
        np.testing.assert_array_equal(got.family_codes, want.family_codes)
        np.testing.assert_array_equal(got.thetas, want.thetas)
        drawn = {FAMILIES[j] for j in np.unique(want.family_codes)}
        assert len(asked) == len(set(asked)) and set(asked) == drawn
        assert not drawn & {FAMILIES[j] for j in np.flatnonzero(pi_hat < 1e-100)}


class TestMixtureDensity:
    def test_single_member_equals_member_pdf(self):
        ens = single_member_ensemble(ModelFamily.LOGNORMAL, LN_THETA)
        x = np.linspace(20.0, 50.0, 101)
        np.testing.assert_allclose(
            mixture_density(ens, x), pdf(ModelFamily.LOGNORMAL, LN_THETA, x), rtol=1e-12
        )

    def test_duplicate_members_idempotent(self):
        one = single_member_ensemble(ModelFamily.NORMAL, (34.0, 4.0))
        two = DistributionEnsemble(
            np.repeat(one.family_codes, 2), np.repeat(one.thetas, 2, axis=0)
        )
        x = np.linspace(10.0, 60.0, 57)
        np.testing.assert_allclose(mixture_density(one, x), mixture_density(two, x), rtol=1e-12)

    def test_integrates_to_one(self, rng):
        chains = synthetic_chains(rng)
        ens = draw_ensemble(chains.__getitem__, posterior_probs(np.full(7, 1 / 7)), 150, rng)
        x = np.linspace(1e-6, 90.0, 40_001)
        integral = np.trapezoid(mixture_density(ens, x), x)
        assert integral == pytest.approx(1.0, abs=0.005)


class TestSampleMixture:
    @staticmethod
    def ks_two_sample(a, b):
        both = np.sort(np.concatenate([a, b]))
        fa = np.searchsorted(np.sort(a), both, side="right") / a.size
        fb = np.searchsorted(np.sort(b), both, side="right") / b.size
        return np.max(np.abs(fa - fb))

    def test_single_member_matches_direct_sampling(self, rng):
        ens = single_member_ensemble(ModelFamily.LOGNORMAL, LN_THETA)
        n = 40_000
        a = sample_mixture(ens, np.random.default_rng(0), n)
        b = sample(ModelFamily.LOGNORMAL, LN_THETA, np.random.default_rng(1), n)
        crit = 1.6276 * np.sqrt(2.0 / n)  # 1% two-sample critical value
        assert self.ks_two_sample(a, b) < crit

    def test_ks_against_quadrature_cdf(self, rng):
        chains = synthetic_chains(rng)
        ens = draw_ensemble(chains.__getitem__, posterior_probs(np.full(7, 1 / 7)), 60, rng)
        n = 10**5
        draws = np.sort(sample_mixture(ens, rng, n))
        grid, cum = mixture_cdf_quadrature(ens, 1e-6, 90.0)
        ref = np.interp(draws, grid, cum)
        ks = np.max(
            np.maximum(ref - np.arange(n) / n, np.arange(1, n + 1) / n - ref)
        )
        assert ks < 1.6276 / np.sqrt(n)

    def test_deterministic(self, rng):
        chains = synthetic_chains(rng)
        ens = draw_ensemble(chains.__getitem__, posterior_probs(np.full(7, 1 / 7)), 40, rng)
        a = sample_mixture(ens, np.random.default_rng(2), 500)
        b = sample_mixture(ens, np.random.default_rng(2), 500)
        np.testing.assert_array_equal(a, b)


class TestPropagate:
    def test_single_member_reduces_to_plain_monte_carlo(self):
        ens = single_member_ensemble(ModelFamily.NORMAL, (3.0, 0.5))
        res = propagate(ens, lambda x: x**2, 20_000, np.random.default_rng(4), 8.0)
        np.testing.assert_allclose(res.mean_weights, [1.0], rtol=1e-12)
        gv = res.g_values
        assert res.means[0] == pytest.approx(gv.mean(), rel=1e-12)
        assert res.variances[0] == pytest.approx(gv.var(), rel=1e-10)
        assert res.pfs[0] == pytest.approx(np.mean(gv < 8.0), rel=1e-12)

    def test_two_member_identity_response(self):
        code = FAMILIES.index(ModelFamily.NORMAL)
        ens = DistributionEnsemble(
            np.array([code, code]), np.array([[0.0, 1.0], [5.0, 1.0]])
        )
        n = 200_000
        res = propagate(ens, lambda x: x, n, np.random.default_rng(7), -10.0)
        # oracle: nested direct MC, one million draws per member
        rng = np.random.default_rng(8)
        for i, mu in enumerate((0.0, 5.0)):
            direct = rng.normal(mu, 1.0, 10**6)
            # IS standard error from recomputed weights
            w = pdf(ModelFamily.NORMAL, ens.thetas[i], res.x_samples) / mixture_density(
                ens, res.x_samples
            )
            se_is = np.std(w * res.g_values, ddof=1) / np.sqrt(n)
            se_mc = direct.std(ddof=1) / 1000.0
            tol = 3.0 * np.hypot(se_is, se_mc)
            assert res.means[i] == pytest.approx(direct.mean(), abs=tol)

    def test_true_member_failure_probability_vs_semianalytic(self, rng):
        members = [LN_THETA * (1.0 + 0.01 * rng.standard_normal(2)) for _ in range(9)]
        members.append(LN_THETA)
        ens = DistributionEnsemble(
            np.full(10, FAMILIES.index(ModelFamily.LOGNORMAL)), np.array(members)
        )
        res = propagate(
            ens, buckling_response(MEAN_PLATE), 10**5, rng, failure_threshold=0.6
        )
        oracle = pf_semianalytic(ModelFamily.LOGNORMAL, LN_THETA, 0.6, MEAN_PLATE)
        assert res.pfs[-1] == pytest.approx(oracle, abs=0.002)

    def test_self_normalization_band(self, rng):
        chains = synthetic_chains(rng)
        ens = draw_ensemble(chains.__getitem__, posterior_probs(np.full(7, 1 / 7)), 50, rng)
        res = propagate(ens, buckling_response(MEAN_PLATE), 10**5, rng)
        assert np.all(res.mean_weights > 0.95) and np.all(res.mean_weights < 1.05)

    def test_ten_member_oracle_equivalence(self, rng):
        chains = synthetic_chains(rng, spread=0.03)
        ens = draw_ensemble(chains.__getitem__, posterior_probs(np.full(7, 1 / 7)), 10, rng)
        n = 10**5
        g = buckling_response(MEAN_PLATE)
        res = propagate(ens, g, n, rng, failure_threshold=0.6)
        q = mixture_density(ens, res.x_samples)
        hits = np.zeros(10, dtype=bool)
        for i in range(10):
            fam, theta = ens.member(i)
            direct = g(sample(fam, theta, rng, n))
            w = pdf(fam, theta, res.x_samples) / q
            ok = True
            # mean
            se = np.hypot(
                np.std(w * res.g_values, ddof=1), direct.std(ddof=1)
            ) / np.sqrt(n)
            ok &= abs(res.means[i] - direct.mean()) < 3.0 * se
            # failure probability
            ind_is = w * (res.g_values < 0.6)
            p_mc = np.mean(direct < 0.6)
            se = np.hypot(np.std(ind_is, ddof=1), np.sqrt(p_mc * (1 - p_mc))) / np.sqrt(n)
            ok &= abs(res.pfs[i] - p_mc) < max(3.0 * se, 1e-12)
            # variance via the delta method on (E[wg^2], E[wg])
            wg, wg2 = w * res.g_values, w * res.g_values**2
            m1 = res.means[i]
            cov = np.cov(np.vstack([wg2, wg]))
            var_se_is = np.sqrt(
                max(cov[0, 0] + 4 * m1**2 * cov[1, 1] - 4 * m1 * cov[0, 1], 0.0) / n
            )
            dm1 = direct.mean()
            dcov = np.cov(np.vstack([direct**2, direct]))
            var_se_mc = np.sqrt(
                max(dcov[0, 0] + 4 * dm1**2 * dcov[1, 1] - 4 * dm1 * dcov[0, 1], 0.0) / n
            )
            ok &= abs(res.variances[i] - direct.var(ddof=0)) < 3.0 * np.hypot(
                var_se_is, var_se_mc
            )
            hits[i] = ok
        assert hits.sum() >= 9

    def test_exchangeability_under_permutation(self, rng):
        chains = synthetic_chains(rng)
        ens = draw_ensemble(chains.__getitem__, posterior_probs(np.full(7, 1 / 7)), 30, rng)
        x = sample_mixture(ens, np.random.default_rng(3), 5000)
        perm = np.random.default_rng(4).permutation(30)
        res = propagate(ens, buckling_response(MEAN_PLATE), 5000,
                        np.random.default_rng(5), x_samples=x)
        permuted = DistributionEnsemble(ens.family_codes[perm], ens.thetas[perm])
        res_p = propagate(permuted, buckling_response(MEAN_PLATE), 5000,
                          np.random.default_rng(6), x_samples=x)
        np.testing.assert_allclose(res_p.means, res.means[perm], rtol=1e-10)
        np.testing.assert_allclose(res_p.pfs, res.pfs[perm], rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize(
        "members, n, block_cells",
        [
            ("mixed", 1001, 14 * 64),  # 64-point blocks, a 41-point tail
            ("single", 1001, 200),  # n_d = 1
            ("mixed", 300, 5),  # n_d above the cell budget: one point a block
            ("lognormal", 1001, 240 * 16),  # one family: 63 blocks, a 9-point tail
        ],
    )
    def test_matches_dense_two_pass_reference(self, members, n, block_cells, monkeypatch):
        monkeypatch.setattr(distributions, "_BLOCK_CELLS", block_cells)
        ens = {
            "mixed": mixed_ensemble,
            "single": lambda: single_member_ensemble(ModelFamily.NORMAL, (1.0, 1.0)),
            "lognormal": lambda: lognormal_ensemble(240),
        }[members]()
        x = sample_mixture(ens, np.random.default_rng(12), n)
        # every ensemble but the Lognormal one has mass at x <= 0
        assert np.any(x <= 0.0) or members == "lognormal"

        def g(v):
            return v * v + 1.0

        res = propagate(ens, g, n, None, failure_threshold=1.5, x_samples=x)
        ref = dense_two_pass(ens, x, g, 1.5)
        for name in ("means", "pfs", "mean_weights"):
            np.testing.assert_allclose(getattr(res, name), ref[name], rtol=1e-12, err_msg=name)
        np.testing.assert_allclose(res.variances, ref["variances"], rtol=0.0, atol=1e-12)

    @pytest.mark.xfail(
        raises=(RuntimeWarning, ValueError),
        reason="mixture draws at x <= 0 reach the buckling response",
    )
    def test_member_with_mass_below_zero_propagates(self):
        # Open defect: Normal(20, 10) puts 2.3% of its mass at x <= 0, where
        # the buckling response takes the square root of a negative number
        # (a RuntimeWarning, else "g returned a non-finite value").  The fix
        # (a positive yield floor) flips this.
        ens = single_member_ensemble(ModelFamily.NORMAL, (20.0, 10.0))
        res = propagate(ens, buckling_response(MEAN_PLATE), 2000, np.random.default_rng(4))
        for stat in (res.means, res.variances, res.pfs, res.mean_weights):
            assert np.all(np.isfinite(stat))

    def test_variance_is_not_negative_at_mean_weight_above_one(self):
        # Every point is drawn near the first member, so its mean weight W is
        # about 2; sum w g^2 / n - (sum w g / n)^2 would read about
        # 2 E[g^2] - 4 E[g]^2 < 0 there.
        code = FAMILIES.index(ModelFamily.NORMAL)
        ens = DistributionEnsemble(np.array([code, code]), np.array([[0.0, 1.0], [10.0, 1.0]]))
        x = np.random.default_rng(3).normal(0.0, 1.0, 2000)

        def g(v):
            return v + 100.0

        res = propagate(ens, g, x.size, None, x_samples=x)
        assert res.mean_weights[0] > 1.9
        assert np.all(res.variances >= 0.0)
        ref = dense_two_pass(ens, x, g, 0.6)
        np.testing.assert_allclose(res.variances, ref["variances"], rtol=1e-9)

    def test_one_density_evaluation_per_cell(self, monkeypatch):
        cells, widths = [], []

        def counting(family, thetas, x, **buffers):
            out = log_pdf_grid(family, thetas, x, **buffers)
            cells.append(out.size)
            widths.append(x.size)
            return out

        monkeypatch.setattr(propagation, "log_pdf_grid", counting)
        monkeypatch.setattr(distributions, "_BLOCK_CELLS", 14 * 100)
        ens = mixed_ensemble()
        n = 1234
        propagate(ens, lambda v: v, n, np.random.default_rng(13))
        assert sum(cells) == ens.n_members * n
        assert max(widths) == 100  # blocks stay within the cell budget

    def test_memory_is_a_few_blocks_not_members_times_points(self, monkeypatch):
        # 500 members x 5000 points in 500 blocks of 10 points: the whole
        # (members x points) matrix would take 20 MB, one block 40 kB
        n_d, n, width = 500, 5000, 10
        monkeypatch.setattr(distributions, "_BLOCK_CELLS", n_d * width)
        ens = lognormal_ensemble(n_d)
        x = sample_mixture(ens, np.random.default_rng(15), n)
        tracemalloc.start()
        try:
            propagate(ens, lambda v: v * v, n, None, x_samples=x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # a few blocks plus the length-n response and moment columns
        assert peak < 8 * n_d * width * 8 + 16 * n * 8

    def test_non_finite_response_is_an_error(self):
        ens = single_member_ensemble(ModelFamily.NORMAL, (0.0, 1.0))
        with pytest.raises(ValueError, match="non-finite"):
            propagate(ens, lambda x: np.where(x > 0, x, np.nan), 100,
                      np.random.default_rng(0))

    @pytest.mark.parametrize("shape", [(10,), (21,), (4, 5)])
    def test_x_samples_must_hold_n_points(self, shape):
        ens = single_member_ensemble(ModelFamily.NORMAL, (1.0, 1.0))
        x = np.ones(shape)
        with pytest.raises(ValueError, match=rf"shape \({shape[0]},.*n=20"):
            propagate(ens, lambda v: v, 20, None, x_samples=x)

    @pytest.mark.parametrize("x_samples", [None, np.empty(0)], ids=["drawn", "given"])
    @pytest.mark.parametrize("n", [0, -3])
    def test_n_below_one_is_rejected_before_g(self, n, x_samples):
        ens = single_member_ensemble(ModelFamily.NORMAL, (1.0, 1.0))

        def g(v):
            raise AssertionError("g was called")

        with pytest.raises(ValueError, match="n must be >= 1"):
            propagate(ens, g, n, np.random.default_rng(0), x_samples=x_samples)


# Reference versions of the density pass, the mixture sampler and the
# propagate sums as they were before their blocks ran in reused buffers:
# every block and every run a fresh array, one sampler call per family and
# the (n x 4) moment columns built once.


def by_family(ens):
    """Member indices sorted stably by family: the order of the rows of
    ``_distinct_members`` and of the blocks below."""
    return np.argsort(ens.family_codes, kind="stable")


def fresh_density_blocks(ens, x):
    order = by_family(ens)
    codes = ens.family_codes[order]
    thetas = ens.thetas[order]
    _, starts = np.unique(codes, return_index=True)
    runs = list(zip(starts, np.append(starts[1:], codes.size)))
    for cols in distributions._blocks(x.size, ens.n_members):
        if len(runs) == 1:
            dens = log_pdf_grid(FAMILIES[codes[0]], thetas, x[cols])
        else:
            dens = np.empty((ens.n_members, cols.stop - cols.start))
            for lo, hi in runs:
                dens[lo:hi] = log_pdf_grid(FAMILIES[codes[lo]], thetas[lo:hi], x[cols])
        np.exp(dens, out=dens)
        yield cols, dens


def unchunked_sample_mixture(ens, rng, n):
    member = rng.integers(0, ens.n_members, size=n)
    x = np.empty(n)
    for j in range(len(FAMILIES)):
        sel = np.flatnonzero(ens.family_codes[member] == j)
        if sel.size:
            x[sel] = distributions.sample_one_per(FAMILIES[j], ens.thetas[member[sel]], rng)
    return x


def moment_matrix_sums(ens, gv, threshold):
    """propagate's family-sorted sums from the whole (n x 4) moment matrix
    and fresh density blocks."""
    r = gv.mean()
    shifted = gv - r
    shifted *= shifted
    moments = np.column_stack([np.ones(gv.size), gv, shifted, gv < threshold])
    sums = np.zeros((ens.n_members, 4))
    for cols, dens in fresh_density_blocks(ens, gv):
        q = distributions._matmul(np.ones(dens.shape[0]), dens) / dens.shape[0]
        sums += distributions._matmul(dens, moments[cols] / q[:, None])
    return sums


def study_ensemble(family, n_d, seed=21):
    """``n_d`` members of one family about its study-point parameters,
    jittered by 2%."""
    theta = np.array(STUDY_THETAS[family])
    jitter = 1.0 + 0.02 * np.random.default_rng(seed).standard_normal((n_d, 2))
    return DistributionEnsemble(np.full(n_d, FAMILIES.index(family)), theta * jitter)


def seven_family_ensemble(n_d=70, seed=22):
    rng = np.random.default_rng(seed)
    codes = rng.permutation(np.arange(n_d) % len(FAMILIES))
    thetas = np.array([STUDY_THETAS[FAMILIES[c]] for c in codes])
    thetas *= 1.0 + 0.02 * rng.standard_normal(thetas.shape)
    return DistributionEnsemble(codes, thetas)


class TestBlocksInReusedBuffers:
    """The density blocks, the mixture draws and the propagate sums give
    the bits of the fresh-array reference versions above."""

    @pytest.mark.parametrize(
        "ensemble, block_cells",
        [
            (seven_family_ensemble, 70 * 64),  # 64-point blocks, a tail of 17
            (lambda: study_ensemble(ModelFamily.LOGLOGISTIC, 1), 64),
        ],
    )
    def test_blocks_equal_fresh_grids_and_share_one_buffer(
        self, ensemble, block_cells, monkeypatch
    ):
        monkeypatch.setattr(distributions, "_BLOCK_CELLS", block_cells)
        ens = ensemble()
        x = np.random.default_rng(23).uniform(20.0, 50.0, 1041)
        x[::50] = -1.0  # outside every positive support
        got = [(cols, dens.copy(), dens) for cols, dens in propagation._density_blocks(ens, x)]
        want = list(fresh_density_blocks(ens, x))
        assert len(got) == len(want) > 2
        assert got[-1][0].stop - got[-1][0].start < got[0][0].stop - got[0][0].start
        # the blocks keep the ensemble's row order, the reference sorts by family
        order = by_family(ens)
        addresses = set()
        for (cols, block, view), (want_cols, want_block) in zip(got, want):
            assert cols == want_cols
            assert block[order].tobytes() == want_block.tobytes()
            assert view.flags.c_contiguous
            addresses.add(view.__array_interface__["data"][0])
        assert len(addresses) == 1

    def test_rows_in_any_order_get_their_own_grid_bits(self, monkeypatch):
        # each row of a block is its member's own one-row log_pdf_grid,
        # exponentiated, in the order the rows are given (here shuffled
        # families), whatever the family runs around it
        monkeypatch.setattr(distributions, "_BLOCK_CELLS", 70 * 64)
        ens = seven_family_ensemble()
        assert np.any(np.diff(ens.family_codes) < 0)
        x = np.random.default_rng(31).uniform(20.0, 50.0, 301)
        x[::40] = -1.0  # outside every positive support
        blocks = 0
        for cols, dens in propagation._density_blocks(ens, x):
            blocks += 1
            for i, (family, theta) in enumerate(ens):
                want = np.exp(log_pdf_grid(family, theta[None, :], x[cols])[0])
                assert dens[i].tobytes() == want.tobytes(), (family, i)
        assert blocks > 2

    @pytest.mark.parametrize("family", FAMILIES)
    def test_propagate_sums_equal_the_moment_matrix_version(self, family, monkeypatch):
        # one family, and the same family among the other six
        monkeypatch.setattr(distributions, "_BLOCK_CELLS", 2000)
        for ens in (study_ensemble(family, 40), seven_family_ensemble()):
            x = sample_mixture(ens, np.random.default_rng(24), 3001)
            res = propagate(ens, lambda v: v, x.size, None, failure_threshold=34.0, x_samples=x)
            sums = np.empty((ens.n_members, 4))
            sums[by_family(ens)] = moment_matrix_sums(ens, x, 34.0)
            sums /= x.size
            assert res.mean_weights.tobytes() == sums[:, 0].tobytes()
            assert res.means.tobytes() == sums[:, 1].tobytes()
            assert res.pfs.tobytes() == sums[:, 3].tobytes()
            d = res.means - x.mean()
            variances = sums[:, 2] - d * (2.0 * (res.means - x.mean() * sums[:, 0]) - d * sums[:, 0])
            assert res.variances.tobytes() == variances.tobytes()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_sample_mixture_equals_one_draw_per_family(self, family, monkeypatch):
        # 4096-cell blocks: chunks of 512 rows, so every family's rows
        # span several sampler calls
        monkeypatch.setattr(distributions, "_BLOCK_CELLS", 4096)
        for ens in (study_ensemble(family, 40), seven_family_ensemble()):
            got = sample_mixture(ens, np.random.default_rng(25), 20_000)
            want = unchunked_sample_mixture(ens, np.random.default_rng(25), 20_000)
            assert got.tobytes() == want.tobytes()

    def test_propagate_memory_is_one_block_buffer(self):
        # 1000 Lognormal members at n = 10^5: g(x) is 0.8 MB and the block
        # buffer (density and two scratch planes) 3 MB; with a fresh array
        # per block and the whole (n x 4) moment matrix the peak was 6.8 MB
        ens = lognormal_ensemble(1000)
        x = sample_mixture(ens, np.random.default_rng(26), 100_000)
        tracemalloc.start()
        try:
            propagate(ens, lambda v: v * v, x.size, None, x_samples=x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20, peak


def count_calls(monkeypatch, module, name, log):
    """Replace ``module.name`` by a wrapper that appends each call's family
    and row count to ``log``."""
    fn = getattr(module, name)

    def counting(family, thetas, *args, **kwargs):
        log.append((family.value, len(thetas)))
        return fn(family, thetas, *args, **kwargs)

    monkeypatch.setattr(module, name, counting)


def density_passes(ens, x):
    """The three density passes over ``ens`` at the points ``x`` (the
    metric on its default grid), each with the (family, rows) of the
    one-row truth density it evaluates besides the ensemble."""
    truth = (ModelFamily.LOGNORMAL, np.array(STUDY_THETAS[ModelFamily.LOGNORMAL]))
    return {
        "propagate": (lambda: propagate(ens, lambda v: v, x.size, None, x_samples=x), []),
        "mixture_density": (lambda: mixture_density(ens, x), []),
        "avg_mean_square_distance": (
            lambda: avg_mean_square_distance(ens, truth),
            [(ModelFamily.LOGNORMAL.value, 1)],
        ),
    }


class TestPerMemberWorkOncePerPass:
    """Each family run's rows are validated and their coefficients computed
    once per density pass, before the first block, however many blocks the
    pass takes."""

    def test_rows_checked_and_coefficients_computed_once_per_family_run(self, monkeypatch):
        monkeypatch.setattr(distributions, "_BLOCK_CELLS", 70 * 64)  # 64-point blocks
        ens = seven_family_ensemble()
        x = sample_mixture(ens, np.random.default_rng(27), 1041)
        runs = [(f.value, int(c)) for f, c in zip(FAMILIES, np.bincount(ens.family_codes))]
        checked, coefficients, grids = [], [], []
        count_calls(monkeypatch, distributions, "_valid_rows", checked)
        count_calls(monkeypatch, distributions, "_coefficients", coefficients)
        count_calls(monkeypatch, propagation, "log_pdf_grid", grids)
        for name, (run, truth) in density_passes(ens, x).items():
            for log in (checked, coefficients, grids):
                log.clear()
            run()
            blocks = grids.count(runs[-1])
            assert blocks >= 10 and len(grids) == 7 * blocks, name
            assert sorted(checked) == sorted(runs + truth), name
            assert sorted(coefficients) == sorted(runs + truth), name

    @pytest.mark.parametrize("name", ["propagate", "mixture_density", "avg_mean_square_distance"])
    def test_invalid_member_raises_before_any_block(self, name, monkeypatch):
        ens = seven_family_ensemble()
        thetas = ens.thetas.copy()
        # a Weibull member with a negative scale: its run is the last
        weibull = np.flatnonzero(ens.family_codes == FAMILIES.index(ModelFamily.WEIBULL))
        thetas[weibull[-1], 1] = -1.0
        bad = DistributionEnsemble(ens.family_codes, thetas)
        grids = []
        count_calls(monkeypatch, propagation, "log_pdf_grid", grids)
        run, _ = density_passes(bad, np.linspace(20.0, 50.0, 301))[name]
        with pytest.raises(InvalidParameterError, match="Weibull"):
            run()
        assert grids == []


def repeated_mixed_ensemble(seed=28):
    """``mixed_ensemble``'s 14 distinct members, the j-th repeated j % 4 + 1
    times, shuffled; also each member's index into ``mixed_ensemble``."""
    base = mixed_ensemble()
    source = np.repeat(np.arange(base.n_members), np.arange(base.n_members) % 4 + 1)
    source = np.random.default_rng(seed).permutation(source)
    return DistributionEnsemble(base.family_codes[source], base.thetas[source]), source


class TestDistinctMembers:
    """Members with the same family and parameter bits are evaluated once,
    as one row weighted by its multiplicity."""

    def test_rows_keep_the_by_family_order_of_first_occurrences(self):
        ens, source = repeated_mixed_ensemble()
        rows, counts, member_row = propagation._distinct_members(ens)
        order = by_family(ens)
        first = list(dict.fromkeys(source[order]))
        base = mixed_ensemble()
        assert rows.family_codes.tobytes() == base.family_codes[first].tobytes()
        assert rows.thetas.tobytes() == base.thetas[first].tobytes()
        assert counts.dtype == float
        np.testing.assert_array_equal(counts, np.bincount(source)[first])
        assert rows.family_codes[member_row].tobytes() == ens.family_codes.tobytes()
        assert rows.thetas[member_row].tobytes() == ens.thetas.tobytes()

    def test_no_repeats_is_the_by_family_order(self):
        ens = seven_family_ensemble()
        rows, counts, member_row = propagation._distinct_members(ens)
        order = by_family(ens)
        assert rows.family_codes.tobytes() == ens.family_codes[order].tobytes()
        assert rows.thetas.tobytes() == ens.thetas[order].tobytes()
        assert np.all(counts == 1.0)
        np.testing.assert_array_equal(order[member_row], np.arange(ens.n_members))

    def test_members_differing_in_one_parameter_bit_stay_apart(self):
        theta = np.array([1.0, 1.0])
        near = np.array([1.0, np.nextafter(1.0, 2.0)])
        code = FAMILIES.index(ModelFamily.NORMAL)
        ens = DistributionEnsemble(np.full(4, code), np.array([theta, near, theta, near]))
        rows, counts, member_row = propagation._distinct_members(ens)
        assert rows.thetas.tobytes() == np.array([theta, near]).tobytes()
        np.testing.assert_array_equal(counts, [2.0, 2.0])
        np.testing.assert_array_equal(member_row, [0, 1, 0, 1])

    def test_duplicates_share_their_rows_sums(self, monkeypatch):
        monkeypatch.setattr(distributions, "_BLOCK_CELLS", 14 * 64)
        ens, source = repeated_mixed_ensemble()
        n = 1001
        x = sample_mixture(ens, np.random.default_rng(29), n)
        cells = []

        def counting(family, thetas, x, **buffers):
            out = log_pdf_grid(family, thetas, x, **buffers)
            cells.append(out.size)
            return out

        monkeypatch.setattr(propagation, "log_pdf_grid", counting)

        def g(v):
            return v * v + 1.0

        res = propagate(ens, g, n, None, failure_threshold=1.5, x_samples=x)
        assert sum(cells) == 14 * n
        for name in ("means", "variances", "pfs", "mean_weights"):
            stat = getattr(res, name)
            for j in range(14):
                same = stat[source == j]
                assert same.size == j % 4 + 1
                assert same.tobytes() == np.repeat(same[:1], same.size).tobytes(), name
        ref = dense_two_pass(ens, x, g, 1.5)
        for name in ("means", "pfs", "mean_weights"):
            np.testing.assert_allclose(getattr(res, name), ref[name], rtol=1e-12, err_msg=name)
        np.testing.assert_allclose(res.variances, ref["variances"], rtol=0.0, atol=1e-12)
        members = np.array([pdf(fam, theta, x) for fam, theta in ens])
        np.testing.assert_allclose(mixture_density(ens, x), members.mean(axis=0), rtol=1e-12)
