"""Distance, confidence-range and area-metric checks against closed-form
and hand-integrated oracles."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from mmuq import distributions, metrics
from mmuq.distributions import FAMILIES, ModelFamily, params_from_moments, pdf
from mmuq.metrics import (
    CoarseGridError,
    EmpiricalCdf,
    _member_square_distance,
    _trapezoid_weights,
    area_validation_metric,
    avg_mean_square_distance,
    confidence_range,
    default_sigma0_grid,
)
from mmuq.propagation import DistributionEnsemble

NORMAL = FAMILIES.index(ModelFamily.NORMAL)


def normal_ensemble(mus, sigma=1.0):
    mus = np.asarray(mus, dtype=float)
    thetas = np.column_stack([mus, np.full_like(mus, sigma)])
    return DistributionEnsemble(np.full(mus.size, NORMAL), thetas)


class TestAvgMeanSquareDistance:
    def test_self_ensemble_is_zero(self):
        ens = normal_ensemble([34.782] * 5, sigma=4.0)
        truth = (ModelFamily.NORMAL, np.array([34.782, 4.0]))
        assert avg_mean_square_distance(ens, truth) == 0.0
        # 40 copies of one Lognormal member, one row of the density pass:
        # the truth density (one row over every point) equals it bit for bit
        theta = params_from_moments(ModelFamily.LOGNORMAL, 34.782, 0.116)
        codes = np.full(40, FAMILIES.index(ModelFamily.LOGNORMAL))
        ens = DistributionEnsemble(codes, np.tile(theta, (40, 1)))
        assert ens.n_members > distributions._BLOCK_CELLS // (2 * default_sigma0_grid().size)
        assert avg_mean_square_distance(ens, (ModelFamily.LOGNORMAL, theta)) == 0.0

    @pytest.mark.parametrize("mu", [0.0, 0.4, 1.3])
    def test_gaussian_shift_closed_form(self, mu):
        # for unit normals shifted by mu:
        #   integral (phi(x) - phi(x - mu))^2 dx = (1 - exp(-mu^2/4)) / sqrt(pi)
        # so delta = half of that
        ens = normal_ensemble([0.0])
        truth = (ModelFamily.NORMAL, np.array([mu, 1.0]))
        grid = np.linspace(-12.0, 12.0 + mu, 4001)
        expected = 0.5 * (1.0 - np.exp(-(mu**2) / 4.0)) / np.sqrt(np.pi)
        assert avg_mean_square_distance(ens, truth, grid) == pytest.approx(
            expected, abs=1e-8
        )

    def test_duplicating_members_leaves_delta_unchanged(self):
        mus = [33.0, 35.0, 36.5]
        truth = (ModelFamily.NORMAL, np.array([34.782, 4.0]))
        grid = default_sigma0_grid()
        a = avg_mean_square_distance(normal_ensemble(mus, 4.0), truth, grid)
        b = avg_mean_square_distance(normal_ensemble(mus + mus, 4.0), truth, grid)
        assert a == pytest.approx(b, rel=1e-12)

    def check_against_per_member_trapezoid(self, x, rng, repeats=1):
        # 20 members per family, shuffled, around the study point: more
        # members than one density block of the whole grid holds, so the
        # sum runs over several column blocks and a tail.  With repeats,
        # the k-th member is there 1 + k % repeats times.
        codes = rng.permutation(np.repeat(np.arange(len(FAMILIES)), 20))
        thetas = np.array(
            [params_from_moments(FAMILIES[c], 34.782, 0.116) for c in codes]
        ) * rng.uniform(0.9, 1.1, size=(codes.size, 2))
        if repeats > 1:
            copies = np.repeat(np.arange(codes.size), 1 + np.arange(codes.size) % repeats)
            copies = rng.permutation(copies)
            codes, thetas = codes[copies], thetas[copies]
        ens = DistributionEnsemble(codes, thetas)
        assert ens.n_members > distributions._BLOCK_CELLS // x.size
        truth_theta = params_from_moments(ModelFamily.LOGNORMAL, 34.782, 0.116)
        truth = pdf(ModelFamily.LOGNORMAL, truth_theta, x)
        # two quadratures in one pass: over every point, and over every
        # other point
        sub = np.arange(0, x.size, 2)
        weights = np.zeros((x.size, 2))
        weights[:, 0] = _trapezoid_weights(x)
        weights[sub, 1] = _trapezoid_weights(x[sub])
        want = [
            sum(np.trapezoid((pdf(fam, theta, x[s]) - truth[s]) ** 2, x[s]) for fam, theta in ens)
            for s in (slice(None), sub)
        ]
        got = _member_square_distance(ens, truth, x, weights)
        np.testing.assert_allclose(got, np.divide(want, ens.n_members), rtol=1e-12)
        delta = avg_mean_square_distance(ens, (ModelFamily.LOGNORMAL, truth_theta), x)
        assert delta == pytest.approx(0.5 * want[0] / ens.n_members, rel=1e-12)

    def test_member_square_distance_matches_per_member_trapezoid(self, rng):
        self.check_against_per_member_trapezoid(default_sigma0_grid(), rng)

    def test_member_square_distance_on_nonuniform_grid(self, rng):
        self.check_against_per_member_trapezoid(np.sort(rng.uniform(15.0, 65.0, 2001)), rng)

    def test_member_square_distance_weights_repeated_members(self, rng):
        # a repeated member is one row of the density pass, its integrals
        # weighted by its multiplicity in the mean
        self.check_against_per_member_trapezoid(default_sigma0_grid(), rng, repeats=3)

    def test_nonuniform_grid_is_refined_at_its_midpoints(self):
        # a grid dense only where the densities live: the check refines this
        # grid, so it agrees with a dense trapezoid instead of comparing
        # with a uniform grid that misses the peaks
        ens = normal_ensemble([35.0], sigma=0.05)
        truth = (ModelFamily.NORMAL, np.array([35.02, 0.05]))
        grid = np.concatenate([[15.0], np.linspace(34.5, 35.5, 201), [65.0]])
        dense = np.linspace(34.5, 35.5, 200_001)
        p = pdf(ModelFamily.NORMAL, np.array([35.0, 0.05]), dense)
        q = pdf(ModelFamily.NORMAL, truth[1], dense)
        want = 0.5 * np.trapezoid((p - q) ** 2, dense)
        assert avg_mean_square_distance(ens, truth, grid) == pytest.approx(want, abs=1e-10)

    def test_coarse_grid_raises(self):
        # narrow densities on an 11-point grid over 50 ksi are unresolved
        ens = normal_ensemble([34.0], sigma=0.3)
        truth = (ModelFamily.NORMAL, np.array([35.0, 0.3]))
        with pytest.raises(CoarseGridError):
            avg_mean_square_distance(ens, truth, np.linspace(15.0, 65.0, 11))

    @pytest.mark.parametrize(
        "grid, match",
        [
            (default_sigma0_grid()[::-1], "ascending"),
            (np.random.default_rng(3).permutation(default_sigma0_grid()), "ascending"),
            (np.array([15.0, 20.0, 20.0, 65.0]), "ascending"),
            (default_sigma0_grid().reshape(1, -1), "1-D"),
            (np.array([35.0]), "at least 2"),
            (np.array([15.0, np.nan, 65.0]), "non-finite"),
            (np.array([15.0, 65.0, np.inf]), "non-finite"),
        ],
    )
    def test_bad_grid_rejected(self, grid, match):
        # a descending grid used to give the negated distance and a
        # shuffled one a CoarseGridError
        ens = normal_ensemble([34.0], sigma=4.0)
        truth = (ModelFamily.NORMAL, np.array([35.0, 4.0]))
        with pytest.raises(ValueError, match=match):
            avg_mean_square_distance(ens, truth, grid)


class TestConfidenceRange:
    def test_degenerate_sample_is_zero(self):
        cdf = EmpiricalCdf.from_samples(np.full(50, 3.25))
        assert confidence_range(cdf) == 0.0

    def test_standard_normal_reference_value(self, rng):
        cdf = EmpiricalCdf.from_samples(rng.standard_normal(10**6))
        assert confidence_range(cdf) == pytest.approx(2.0 * 1.959964, abs=0.02)

    def test_affine_equivariance(self, rng):
        y = rng.standard_normal(500)
        base = confidence_range(EmpiricalCdf.from_samples(y))
        scaled = confidence_range(EmpiricalCdf.from_samples(-2.5 * y + 7.0))
        assert scaled == pytest.approx(2.5 * base, rel=1e-9)

    def test_translation_invariance(self, rng):
        y = rng.standard_normal(200)
        a = confidence_range(EmpiricalCdf.from_samples(y))
        b = confidence_range(EmpiricalCdf.from_samples(y + 123.4))
        assert a == pytest.approx(b, abs=1e-9)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            confidence_range(EmpiricalCdf.from_samples(np.arange(39)))

    def test_quantiles_are_numpys_bit_for_bit(self, rng):
        # the port of numpy's 'linear' quantile, on sorted samples with and
        # without ties (values rounded to a few levels), at every n from 40
        # to 300 and at larger n up to 10^4
        for n in [*range(40, 301), 1000, 4097, 9999, 10**4]:
            for values in (
                rng.lognormal(0.0, 2.0, n),
                np.round(rng.uniform(0.0, 3.0, n), 1),
                rng.integers(0, 3, n).astype(float),
            ):
                values = np.sort(values)
                want = np.quantile(values, [0.025, 0.975])
                got = [metrics._sorted_quantile(values, q) for q in (0.025, 0.975)]
                assert np.array(got).tobytes() == want.tobytes(), n
                cdf = EmpiricalCdf(values)
                assert confidence_range(cdf) == float(want[1] - want[0])


class TestAreaValidationMetric:
    def test_step_at_truth_is_zero(self):
        cdf = EmpiricalCdf.from_samples(np.full(10, 5.0))
        assert area_validation_metric(cdf, 5.0) == 0.0

    @pytest.mark.parametrize("c", [0.7, -1.3])
    def test_step_offset_by_c(self, c):
        cdf = EmpiricalCdf.from_samples(np.full(10, 5.0 + c))
        assert area_validation_metric(cdf, 5.0) == pytest.approx(abs(c), rel=1e-12)

    def test_symmetric_two_point_cdf(self):
        # segments [t-1, t): |1/2 - 0| and [t, t+1): |1/2 - 1| integrate to 1
        cdf = EmpiricalCdf.from_samples([4.0, 6.0])
        assert area_validation_metric(cdf, 5.0) == pytest.approx(1.0, rel=1e-12)

    @given(
        values=st.lists(st.floats(-50, 50), min_size=1, max_size=60),
        truth=st.floats(-60, 60),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_mean_absolute_deviation(self, values, truth):
        # independent identity: area between an empirical CDF and the step
        # at t equals the sample mean of |y - t|
        cdf = EmpiricalCdf.from_samples(values)
        d = area_validation_metric(cdf, truth)
        assert d >= 0.0
        assert d == pytest.approx(np.mean(np.abs(np.asarray(values) - truth)), abs=1e-9)

    def test_equals_the_breakpoint_integral(self, rng):
        # oracle: |F - H| integrated exactly over the segments between the
        # sorted breakpoints (sample values and truth), both curves constant
        # on each segment
        def breakpoint_area(values, truth):
            breaks = np.unique(np.append(values, truth))
            f = np.searchsorted(values, breaks, side="right") / values.size
            step = (breaks >= truth).astype(float)
            return np.sum(np.abs(f[:-1] - step[:-1]) * np.diff(breaks))

        for _ in range(200):
            n = int(rng.integers(1, 3000))
            y = rng.normal(35.0, 4.0, n)
            if rng.random() < 0.5:
                y = np.round(y, 1)  # ties
            truth = rng.choice([rng.choice(y), y.min() - 3.0, y.max() + 3.0, 35.0])
            cdf = EmpiricalCdf.from_samples(y)
            want = breakpoint_area(cdf.values, truth)
            assert area_validation_metric(cdf, truth) == pytest.approx(want, rel=1e-15, abs=0.0)

    def test_zero_only_when_all_mass_at_truth(self, rng):
        y = rng.normal(0.0, 1.0, 100)
        assert area_validation_metric(EmpiricalCdf.from_samples(y), 0.0) > 0.0


class TestEmpiricalCdf:
    def test_from_samples_probabilities(self):
        cdf = EmpiricalCdf.from_samples([3.0, 1.0, 2.0])
        np.testing.assert_array_equal(cdf.values, [1.0, 2.0, 3.0])
        np.testing.assert_allclose(cdf.probs, [1 / 3, 2 / 3, 1.0])

    def test_rejects_unsorted_or_bad_probs(self):
        # the probabilities are derived from the values, so only the values
        # can be bad
        with pytest.raises(ValueError, match="sorted"):
            EmpiricalCdf(np.array([2.0, 1.0]))
        for values in (np.empty(0), np.ones((2, 2))):
            with pytest.raises(ValueError, match="nonempty vector"):
                EmpiricalCdf(values)
