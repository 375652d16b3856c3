"""Acceptance suite: one test per exit criterion, each printing a pass/fail
line with its measured values and runtime.

Criteria 5 and 6 run the full inference pipeline at a reduced desk scale
(evidence draws 2000, ensemble size 1000); everything else runs at the
stated scale.  Run with ``pytest tests/test_acceptance.py -s`` to see the
criterion lines.  Criteria 5, 6 and 8 carry the ``slow`` marker, so
``pytest -m "not slow"`` skips them.
"""

import hashlib
import shutil
import time
from pathlib import Path

import numpy as np
import pytest

from mmuq.buckling import MEAN_PLATE, TRUE_MODEL, buckling_response
from mmuq.config import ExperimentConfig
from mmuq.distributions import FAMILIES, Dataset, ModelFamily, pdf, sample
from mmuq.evidence import aic_weights, log_evidence_mc, model_posteriors, savvy_priors
from mmuq.metrics import (
    EmpiricalCdf,
    area_validation_metric,
    avg_mean_square_distance,
    confidence_range,
)
from mmuq.pipeline import StudyPipeline
from mmuq.priors import UniformBoxPrior
from mmuq.propagation import DistributionEnsemble, mixture_density, propagate
from mmuq.seeding import rng_for

LN = FAMILIES.index(ModelFamily.LOGNORMAL)
IG = FAMILIES.index(ModelFamily.INVERSE_GAUSSIAN)

DESK = dict(n_k=2000, n_d=1000)


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {criterion} [{'PASS' if ok else 'FAIL'}]: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def desk_quantify(tmp_path_factory):
    """Shared pipeline for the model-probability criterion."""
    cfg = ExperimentConfig(
        name="accept5",
        seed=2018,
        dataset_sizes=(5000, 10000),
        parameter_priors=("ABS-A", "ABS-B"),
        model_priors=("uniform",),
        output_dir=str(tmp_path_factory.mktemp("accept5")),
        **DESK,
    )
    return StudyPipeline(cfg)


def test_criterion_1_true_model_statistics():
    t0 = time.perf_counter()
    draws = sample(
        TRUE_MODEL.family, TRUE_MODEL.theta, rng_for(2018, "acceptance", "truth"), 10**6
    )
    psi = buckling_response(MEAN_PLATE)(draws)
    mean_psi = psi.mean()
    pf = np.mean(psi < 0.6)
    elapsed = time.perf_counter() - t0
    ok = (
        abs(mean_psi - 0.62089) < 0.0015
        and abs(pf - 0.090132) < 0.003
        and elapsed < 10.0
    )
    report(
        1,
        ok,
        f"mean psi {mean_psi:.5f} (0.62089 +/- 0.0015), "
        f"Pf {pf:.6f} (0.090132 +/- 0.003), {elapsed:.1f}s < 10s",
    )


def test_criterion_2_savvy_prior_identity():
    t0 = time.perf_counter()
    rng = rng_for(2018, "acceptance", "savvy")
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(2, 8))
        n = int(rng.choice([10, 100, 1000]))
        ks = rng.integers(1, 4, size=m).astype(float)
        ll = rng.normal(-150.0, 40.0, size=m)
        bics = -2 * ll + ks * np.log(n)
        w_bic = model_posteriors(-bics / 2, savvy_priors(n, ks)).pi_hat
        w_aic = aic_weights(-2 * ll + 2 * ks)
        worst = max(worst, float(np.max(np.abs(w_bic - w_aic))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-10 and elapsed < 1.0
    report(2, ok, f"max |bic_savvy - aic| = {worst:.2e} < 1e-10, {elapsed:.2f}s < 1s")


def test_criterion_3_evidence_against_quadrature():
    t0 = time.perf_counter()
    sigma = 4.0
    data = Dataset(rng_for(2018, "acceptance", "evdata").normal(50.0, sigma, 8))
    eps = 1e-7
    prior = UniformBoxPrior(
        lo=np.array([30.0, sigma * (1 - eps)]), hi=np.array([70.0, sigma * (1 + eps)])
    )
    # quadrature oracle: flat-prior evidence with sigma pinned
    mu = np.linspace(30.0, 70.0, 200_001)
    ll = (
        -0.5 * data.n * np.log(2 * np.pi * sigma**2)
        - 0.5 * np.sum((data.values[None, :] - mu[:, None]) ** 2, axis=1) / sigma**2
    )
    peak = ll.max()
    truth = peak + np.log(np.trapezoid(np.exp(ll - peak), mu) / 40.0)

    estimates = np.array(
        [
            log_evidence_mc(ModelFamily.NORMAL, data, prior, 10_000, np.random.default_rng(s))
            for s in range(100)
        ]
    )
    se = estimates.std(ddof=1)
    hits = int(np.sum(np.abs(estimates - truth) < 3.0 * se))
    elapsed = time.perf_counter() - t0
    ok = hits >= 95 and elapsed < 30.0
    report(3, ok, f"{hits}/100 seeds within 3 MC SE of quadrature, {elapsed:.1f}s < 30s")


def test_criterion_4_is_vs_nested_mc():
    t0 = time.perf_counter()
    rng = rng_for(2018, "acceptance", "isnested")
    base = TRUE_MODEL.theta
    thetas = base * (1.0 + 0.02 * rng.standard_normal((10, 2)))
    ens = DistributionEnsemble(np.full(10, LN), thetas)
    n = 10**5
    g = buckling_response(MEAN_PLATE)
    res = propagate(ens, g, n, rng, failure_threshold=0.6)
    q = mixture_density(ens, res.x_samples)

    members_ok = 0
    for i in range(10):
        fam, theta = ens.member(i)
        direct = g(sample(fam, theta, rng, n))
        w = pdf(fam, theta, res.x_samples) / q
        ok = True
        se = np.hypot(np.std(w * res.g_values, ddof=1), direct.std(ddof=1)) / np.sqrt(n)
        ok &= abs(res.means[i] - direct.mean()) < 3.0 * se
        p_mc = np.mean(direct < 0.6)
        se = np.hypot(
            np.std(w * (res.g_values < 0.6), ddof=1), np.sqrt(p_mc * (1 - p_mc))
        ) / np.sqrt(n)
        ok &= abs(res.pfs[i] - p_mc) < 3.0 * se
        wg, wg2 = w * res.g_values, w * res.g_values**2
        m1 = res.means[i]
        cov = np.cov(np.vstack([wg2, wg]))
        se_is = np.sqrt(max(cov[0, 0] + 4 * m1**2 * cov[1, 1] - 4 * m1 * cov[0, 1], 0.0) / n)
        dm = direct.mean()
        dcov = np.cov(np.vstack([direct**2, direct]))
        se_mc = np.sqrt(max(dcov[0, 0] + 4 * dm**2 * dcov[1, 1] - 4 * dm * dcov[0, 1], 0.0) / n)
        ok &= abs(res.variances[i] - direct.var(ddof=0)) < 3.0 * np.hypot(se_is, se_mc)
        members_ok += bool(ok)
    elapsed = time.perf_counter() - t0
    ok = members_ok >= 9 and elapsed < 60.0
    report(4, ok, f"{members_ok}/10 members match nested MC within 3 SE, {elapsed:.1f}s < 60s")


@pytest.mark.slow
def test_criterion_5_prior_driven_convergence(desk_quantify):
    t0 = time.perf_counter()
    probs_b = desk_quantify.posterior_probs(5000, "ABS-B", "uniform")
    ln_ig = float(probs_b.pi_hat[LN] + probs_b.pi_hat[IG])
    probs_a = desk_quantify.posterior_probs(10000, "ABS-A", "uniform")
    ln_a = float(probs_a.pi_hat[LN])
    elapsed = time.perf_counter() - t0
    ok = ln_ig >= 0.8 and ln_a < 0.1 and elapsed < 900.0
    report(
        5,
        ok,
        f"ABS-B@5000 pi(LN)+pi(IG) = {ln_ig:.4f} >= 0.8; "
        f"ABS-A@10000 pi(LN) = {ln_a:.4f} < 0.1; {elapsed:.0f}s < 900s",
    )


@pytest.mark.slow
def test_criterion_6_bias_persistence(tmp_path):
    t0 = time.perf_counter()
    cfg = ExperimentConfig(
        name="accept6",
        seed=2018,
        dataset_sizes=(10000,),
        parameter_priors=("ABS-B", "ASTM-A7"),
        model_priors=("uniform",),
        n_propagation=100_000,
        output_dir=str(tmp_path),
        **DESK,
    )
    pipeline = StudyPipeline(cfg)
    result = pipeline.run_propagate()
    assert result.all_ok, [c.detail for c in result.cells if not c.ok]
    areas = {}
    for cell in result.cells:
        for row in cell.metric_rows:
            if row[3] == "area_validation" and row[4] == "mean_psi":
                areas[cell.param_prior] = row[5]
    ratio = areas["ASTM-A7"] / areas["ABS-B"]
    elapsed = time.perf_counter() - t0
    ok = ratio >= 3.0 and elapsed < 900.0
    report(
        6,
        ok,
        f"area metric mean psi: ASTM-A7 {areas['ASTM-A7']:.2e} vs "
        f"ABS-B {areas['ABS-B']:.2e}, ratio {ratio:.1f} >= 3; {elapsed:.0f}s < 900s",
    )


def test_criterion_7_metric_units():
    t0 = time.perf_counter()
    rng = rng_for(2018, "acceptance", "metrics")
    rng_range = confidence_range(EmpiricalCdf.from_samples(rng.standard_normal(10**6)))
    step = area_validation_metric(EmpiricalCdf.from_samples(np.full(20, 1.23)), 1.23)
    theta = np.array([34.782, 4.0])
    ens = DistributionEnsemble(
        np.full(4, FAMILIES.index(ModelFamily.NORMAL)), np.tile(theta, (4, 1))
    )
    delta = avg_mean_square_distance(ens, (ModelFamily.NORMAL, theta))
    elapsed = time.perf_counter() - t0
    ok = (
        abs(rng_range - 3.9199) < 0.02
        and step == 0.0
        and delta == 0.0
        and elapsed < 5.0
    )
    report(
        7,
        ok,
        f"confidence range {rng_range:.4f} (3.9199 +/- 0.02), "
        f"step-at-truth area {step}, self-ensemble distance {delta}; "
        f"{elapsed:.1f}s < 5s",
    )


@pytest.mark.slow
def test_criterion_8_byte_identical_runs(tmp_path):
    t0 = time.perf_counter()

    def run(out: Path, workers: int) -> dict[str, str]:
        shutil.rmtree(out, ignore_errors=True)
        cfg = ExperimentConfig(
            name="accept8",
            seed=5,
            dataset_sizes=(10, 25),
            parameter_priors=("noninformative", "ABS-B"),
            model_priors=("uniform", "savvy"),
            n_k=300,
            n_d=150,
            n_propagation=3000,
            chain_steps=300,
            chain_burn_in=80,
            pre_prior_steps=300,
            pre_prior_burn_in=80,
            kde_max_components=1000,
            output_dir=str(out),
            workers=workers,
        )
        pipeline = StudyPipeline(cfg)
        assert pipeline.run_quantify().all_ok
        assert pipeline.run_propagate().all_ok
        return {
            str(f.relative_to(out)): hashlib.sha256(f.read_bytes()).hexdigest()
            for f in sorted(out.rglob("*.csv"))
        }

    first = run(tmp_path / "a", workers=1)
    second = run(tmp_path / "b", workers=1)
    threaded = run(tmp_path / "c", workers=3)
    elapsed = time.perf_counter() - t0
    ok = first == second == threaded and len(first) > 0
    report(
        8,
        ok,
        f"{len(first)} CSVs byte-identical across two runs and worker counts "
        f"1 and 3; {elapsed:.0f}s",
    )
