"""End-to-end study runner: data, priors, inference, propagation, tables.

Grid cells (dataset size x parameter prior x model prior) are independent;
each stochastic stage derives its generator from the experiment seed and
the cell coordinates, so outputs are byte-identical across repeat runs and
worker counts.  A failing cell is logged and skipped; the remaining cells
still run.
"""

from __future__ import annotations

import json
import logging
import threading
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import buckling, metrics
from .config import NONINFORMATIVE, ExperimentConfig, model_prior_probs
from .distributions import FAMILIES, Dataset, ModelFamily
from .evidence import (
    ModelPosteriorProbs,
    information_criteria,
    bic_weights,
    log_evidence_mc,
    model_posteriors,
    savvy_priors,
)
from .io import write_dataset_csv, write_table
from .mcmc import EnsembleConfig, PosteriorChain, sample_posterior
from .priors import (
    HISTORICAL_SOURCES,
    build_informative_prior,
    default_uniform_prior,
    historical_dataset,
)
from .propagation import DistributionEnsemble, draw_ensemble, mixture_density, propagate
from .seeding import rng_for

__all__ = ["StudyPipeline", "RunReport", "CellRecord"]

logger = logging.getLogger(__name__)

PROB_TABLE_HEADER = (
    "dataset_size",
    "model",
    "prior_name",
    "model_prior_name",
    "log_evidence",
    "posterior_prob",
)
MEMBER_STATS_HEADER = ("member_id", "model", "mean_psi", "var_psi", "pf")
METRICS_HEADER = (
    "dataset_size",
    "prior_name",
    "model_prior_name",
    "metric",
    "statistic",
    "value",
)


@dataclass
class CellRecord:
    size: int
    param_prior: str
    model_prior: str
    ok: bool
    detail: str = ""
    posterior: ModelPosteriorProbs | None = None
    metric_rows: list = field(default_factory=list)


@dataclass
class RunReport:
    stage: str
    cells: list[CellRecord]

    @property
    def all_ok(self) -> bool:
        return all(c.ok for c in self.cells)

    def cell(self, size: int, param_prior: str, model_prior: str) -> CellRecord:
        for c in self.cells:
            if (c.size, c.param_prior, c.model_prior) == (size, param_prior, model_prior):
                return c
        raise KeyError((size, param_prior, model_prior))


class _Memo:
    """Thread-safe build-once cache with per-key locks."""

    def __init__(self) -> None:
        self._values: dict = {}
        self._locks: dict = {}
        self._guard = threading.Lock()

    def get(self, key, builder):
        with self._guard:
            if key in self._values:
                return self._values[key]
            lock = self._locks.setdefault(key, threading.Lock())
        with lock:
            with self._guard:
                if key in self._values:
                    return self._values[key]
            value = builder()
            with self._guard:
                self._values[key] = value
            return value


class StudyPipeline:
    """Shared caches plus the quantify / propagate stages for one config."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        self._datasets = _Memo()
        self._priors = _Memo()
        self._chains = _Memo()
        self._evidence = _Memo()
        self._criteria = _Memo()
        self._ensembles = _Memo()
        self._truth = _Memo()
        # Manifest diagnostics, one entry per memoized build (each key is
        # written once, by the thread that built it).
        self._prior_stats: dict[str, dict] = {}
        self._chain_stats: dict[str, dict] = {}

    # -- shared artifacts ---------------------------------------------------

    def dataset(self, size: int) -> Dataset:
        return self._datasets.get(
            size, lambda: buckling.generate_data(buckling.TRUE_MODEL, size, self.config.seed)
        )

    def parameter_prior(self, name: str, family: ModelFamily):
        def build():
            if name == NONINFORMATIVE:
                return default_uniform_prior(family)
            cfg = EnsembleConfig(
                n_walkers=self.config.chain_walkers,
                n_steps=self.config.pre_prior_steps,
                burn_in=self.config.pre_prior_burn_in,
            )
            prior = build_informative_prior(
                family,
                historical_dataset(name),
                cfg=cfg,
                rng=rng_for(self.config.seed, "pre-prior", name, family.value),
                max_components=self.config.kde_max_components,
            )
            self._prior_stats[f"{name}/{family.value}"] = {
                "family": family.value,
                "n_components": prior.n_components,
                "bandwidths": prior.bandwidths.tolist(),
            }
            return prior

        return self._priors.get((name, family), build)

    def chain(self, size: int, param_prior: str, family: ModelFamily) -> PosteriorChain:
        def build():
            cfg = EnsembleConfig(
                n_walkers=self.config.chain_walkers,
                n_steps=self.config.chain_steps,
                burn_in=self.config.chain_burn_in,
            )
            data = self.dataset(size)
            prior = self.parameter_prior(param_prior, family)
            t0 = time.perf_counter()
            chain = sample_posterior(
                family,
                data,
                prior,
                cfg,
                rng_for(self.config.seed, "chain", size, param_prior, family.value),
            )
            self._chain_stats[f"{size}/{param_prior}/{family.value}"] = {
                "seconds": time.perf_counter() - t0,
                "acceptance_rate": float(chain.acceptance_rate),
            }
            return chain

        return self._chains.get((size, param_prior, family), build)

    def log_evidences(self, size: int, param_prior: str) -> np.ndarray:
        def build():
            data = self.dataset(size)
            return np.array(
                [
                    log_evidence_mc(
                        fam,
                        data,
                        self.parameter_prior(param_prior, fam),
                        self.config.n_k,
                        rng_for(self.config.seed, "evidence", size, param_prior, fam.value),
                    )
                    for fam in FAMILIES
                ]
            )

        return self._evidence.get((size, param_prior), build)

    def criteria(self, size: int) -> tuple[np.ndarray, np.ndarray]:
        """(AIC, BIC) vectors over the candidate set for one dataset size."""

        def build():
            data = self.dataset(size)
            pairs = [information_criteria(fam, data) for fam in FAMILIES]
            return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])

        return self._criteria.get(size, build)

    def posterior_probs(self, size: int, param_prior: str, model_prior: str) -> ModelPosteriorProbs:
        if model_prior == "savvy":
            # Information-criterion route: generalized BIC weights under
            # savvy priors, which collapse onto AIC weights.  The implied
            # log evidence is the BIC approximation -BIC/2.
            _, bics = self.criteria(size)
            ks = np.full(len(FAMILIES), 2.0)
            pi_hat = bic_weights(bics, savvy_priors(size, ks))
            return ModelPosteriorProbs(pi_hat=pi_hat, log_evidence=-bics / 2.0)
        log_ev = self.log_evidences(size, param_prior)
        return model_posteriors(log_ev, model_prior_probs(model_prior))

    def ensemble(self, size: int, param_prior: str, model_prior: str) -> DistributionEnsemble:
        def build():
            probs = self.posterior_probs(size, param_prior, model_prior)
            chains = {
                fam: self.chain(size, param_prior, fam)
                for j, fam in enumerate(FAMILIES)
                if probs.pi_hat[j] > 0.0
            }
            return draw_ensemble(
                chains,
                probs,
                self.config.n_d,
                rng_for(self.config.seed, "ensemble", size, param_prior, model_prior),
            )

        return self._ensembles.get((size, param_prior, model_prior), build)

    def true_output_stats(self) -> tuple[float, float, float]:
        """(mean psi, var psi, pf) of the true generator, by quadrature and
        root finding rather than sampling."""

        def build():
            spec = buckling.TRUE_MODEL
            m, v = buckling.response_moments(spec.family, spec.theta, self.config.plate)
            pf = buckling.pf_semianalytic(
                spec.family, spec.theta, self.config.failure_threshold, self.config.plate
            )
            return m, v, pf

        return self._truth.get("stats", build)

    # -- stages ---------------------------------------------------------------

    def gen_data(self) -> list[Path]:
        """Write the synthetic study datasets and the historical sets."""
        root = self.config.out_root / "data"
        paths = [
            write_dataset_csv(
                root / "synthetic" / f"yield_n{size}.csv", self.dataset(size)
            )
            for size in self.config.dataset_sizes
        ]
        for name in HISTORICAL_SOURCES:
            paths.append(
                write_dataset_csv(root / "historical" / f"{name}.csv", historical_dataset(name))
            )
        return paths

    def _map_cells(self, worker) -> list[CellRecord]:
        cells = self.config.grid()
        if self.config.workers == 1:
            return [worker(*cell) for cell in cells]
        with ThreadPoolExecutor(max_workers=self.config.workers) as pool:
            return list(pool.map(lambda c: worker(*c), cells))

    def _write_historical_inputs(self) -> None:
        root = self.config.out_root / "data" / "historical"
        for name in self.config.parameter_priors:
            if name != NONINFORMATIVE:
                write_dataset_csv(root / f"{name}.csv", historical_dataset(name))

    def run_quantify(self) -> RunReport:
        """Model-probability tables, chain summaries, mixture densities on
        the yield-strength grid and density-distance metrics for every cell."""
        t0 = time.perf_counter()
        self._write_historical_inputs()
        if self.config.emit_psi_table:
            self._write_psi_table()

        def worker(size: int, pp: str, mp: str) -> CellRecord:
            try:
                return self._quantify_cell(size, pp, mp)
            except Exception as exc:
                logger.error(
                    "quantify cell (%s, %s, %s) failed: %s\n%s",
                    size, pp, mp, exc, traceback.format_exc(),
                )
                return CellRecord(size, pp, mp, ok=False, detail=str(exc))

        cells = self._map_cells(worker)
        self._write_chain_summaries(cells)
        report = RunReport("quantify", cells)
        self._write_manifest(report, time.perf_counter() - t0)
        return report

    def run_propagate(self) -> RunReport:
        """Per-member response statistics, pooled CDFs and output metrics
        for every cell (quantify artifacts are computed in-line if needed)."""
        t0 = time.perf_counter()

        def worker(size: int, pp: str, mp: str) -> CellRecord:
            try:
                return self._propagate_cell(size, pp, mp)
            except Exception as exc:
                logger.error(
                    "propagate cell (%s, %s, %s) failed: %s\n%s",
                    size, pp, mp, exc, traceback.format_exc(),
                )
                return CellRecord(size, pp, mp, ok=False, detail=str(exc))

        report = RunReport("propagate", self._map_cells(worker))
        self._write_manifest(report, time.perf_counter() - t0)
        return report

    # -- per-cell work ---------------------------------------------------------

    def _quantify_cell(self, size: int, pp: str, mp: str) -> CellRecord:
        probs = self.posterior_probs(size, pp, mp)
        cell_dir = self.config.cell_dir(size, pp, mp)
        write_table(
            cell_dir / "model_probs.csv",
            PROB_TABLE_HEADER,
            [
                (size, fam.value, pp, mp, float(probs.log_evidence[j]), float(probs.pi_hat[j]))
                for j, fam in enumerate(FAMILIES)
            ],
        )

        ens = self.ensemble(size, pp, mp)
        grid = metrics.default_sigma0_grid()
        write_table(
            cell_dir / "osd_density.csv",
            ("sigma0", "mixture_density"),
            zip(grid, mixture_density(ens, grid)),
        )
        spec = buckling.TRUE_MODEL
        delta = metrics.avg_mean_square_distance(ens, (spec.family, spec.theta), grid)
        rows = [(size, pp, mp, "avg_mean_square_distance", "sigma0_density", delta)]
        write_table(cell_dir / "metrics_density.csv", METRICS_HEADER, rows)
        return CellRecord(size, pp, mp, ok=True, posterior=probs, metric_rows=rows)

    def _propagate_cell(self, size: int, pp: str, mp: str) -> CellRecord:
        ens = self.ensemble(size, pp, mp)
        result = propagate(
            ens,
            buckling.buckling_response(self.config.plate),
            self.config.n_propagation,
            rng_for(self.config.seed, "propagate", size, pp, mp),
            failure_threshold=self.config.failure_threshold,
        )
        cell_dir = self.config.cell_dir(size, pp, mp)
        write_table(
            cell_dir / "member_stats.csv",
            MEMBER_STATS_HEADER,
            [
                (i, FAMILIES[ens.family_codes[i]].value,
                 float(result.means[i]), float(result.variances[i]), float(result.pfs[i]))
                for i in range(ens.n_members)
            ],
        )

        true_mean, true_var, true_pf = self.true_output_stats()
        rows = []
        for stat_name, values, truth in (
            ("mean_psi", result.means, true_mean),
            ("var_psi", result.variances, true_var),
            ("pf", result.pfs, true_pf),
        ):
            cdf = metrics.EmpiricalCdf.from_samples(values)
            write_table(
                cell_dir / f"cdf_{stat_name}.csv",
                ("value", "cum_prob"),
                zip(cdf.values, cdf.probs),
            )
            if cdf.n >= metrics.MIN_CONFIDENCE_POINTS:
                rows.append(
                    (size, pp, mp, "confidence_range", stat_name, metrics.confidence_range(cdf))
                )
            rows.append(
                (size, pp, mp, "area_validation", stat_name,
                 metrics.area_validation_metric(cdf, truth))
            )
        write_table(cell_dir / "metrics_output.csv", METRICS_HEADER, rows)
        return CellRecord(size, pp, mp, ok=True, metric_rows=rows)

    # -- reporting ---------------------------------------------------------

    def _write_psi_table(self) -> None:
        grid = metrics.default_sigma0_grid()
        write_table(
            self.config.out_root / "psi_curve.csv",
            ("sigma0", "psi"),
            zip(grid, buckling.buckling_response(self.config.plate)(grid)),
        )

    def _write_chain_summaries(self, cells: list[CellRecord]) -> None:
        panels = sorted({(c.size, c.param_prior) for c in cells if c.ok})
        for size, pp in panels:
            rows = []
            for fam in FAMILIES:
                try:
                    ch = self.chain(size, pp, fam)
                except Exception as exc:
                    logger.error("chain summary (%s, %s, %s) failed: %s", size, pp, fam, exc)
                    continue
                mean = ch.samples.mean(axis=0)
                sd = ch.samples.std(axis=0, ddof=1)
                rows.append(
                    (size, pp, fam.value, float(mean[0]), float(sd[0]),
                     float(mean[1]), float(sd[1]), float(ch.acceptance_rate))
                )
            write_table(
                self.config.cell_dir(size, pp) / "chain_summary.csv",
                ("dataset_size", "prior_name", "model",
                 "param1_mean", "param1_sd", "param2_mean", "param2_sd",
                 "acceptance_rate"),
                rows,
            )

    def _write_manifest(self, report: RunReport, elapsed: float) -> None:
        """Run manifest: grid status, total time, and the informative priors
        and posterior chains this pipeline has built so far (memoized ones
        from an earlier stage included)."""
        path = self.config.out_root / f"manifest_{report.stage}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "config_hash": self.config.config_hash(),
            "seed": self.config.seed,
            "grid": [
                {"size": c.size, "parameter_prior": c.param_prior,
                 "model_prior": c.model_prior, "ok": c.ok, "detail": c.detail}
                for c in report.cells
            ],
            "timings": {"total_seconds": elapsed},
            "informative_priors": dict(self._prior_stats),
            "chains": dict(self._chain_stats),
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
