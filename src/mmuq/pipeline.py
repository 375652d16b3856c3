"""End-to-end study runner: data, priors, inference, propagation, tables.

Grid cells (dataset size x parameter prior x model prior) are independent;
each stochastic stage derives its generator from the experiment seed and
the cell coordinates, so outputs are byte-identical across repeat runs and
worker counts.  A failing cell is logged and skipped; the remaining cells
still run.

Every shared artifact (dataset, prior, chain, evidences, BICs,
ensemble, true output statistics) is built once per pipeline and kept in
one store, keyed by the method that builds it and its arguments; the
manifest records sit in the same store.  The unit of parallel work is a
panel, one (size, parameter prior) pair with all its model-prior cells.
With ``workers=N`` the calling process runs panels itself and keeps up to
N-1 more running at once, each in a child forked for that one panel; a
child sends back its result and the store entries it added, the caller
merges them into its own store, and a child that dies fails only its own
panel.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import time
import traceback
from collections import deque
from collections.abc import Iterable
from dataclasses import dataclass, field
from multiprocessing import Pipe
from multiprocessing.connection import wait
from pathlib import Path

import numpy as np

from . import buckling, metrics
from .config import NONINFORMATIVE, ExperimentConfig, model_prior_probs
from .distributions import FAMILIES, Dataset, ModelFamily
from .evidence import (
    ModelPosteriorProbs,
    information_criteria,
    log_evidence_mc,
    model_posteriors,
)
from .io import write_dataset_csv, write_table
from .mcmc import PosteriorChain, sample_posterior
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

# Band around 1 for a member's mean importance weight; a mean outside it
# means the mixture sample covers that member poorly.
MEAN_WEIGHT_BAND = (0.95, 1.05)


@dataclass
class CellRecord:
    size: int
    param_prior: str
    model_prior: str
    ok: bool
    detail: str = ""
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


def _memo(method):
    """``method(self, *args)`` built once per pipeline and kept in its store
    under ``(method name, *args)``."""
    name = method.__name__

    @functools.wraps(method)
    def memoized(self, *args):
        key = (name, *args)
        if key not in self._built:
            self._built[key] = method(self, *args)
        return self._built[key]

    return memoized


def _call(fn, unit: tuple):
    """``fn(*unit)``, or the exception it raised."""
    try:
        return fn(*unit)
    except Exception as exc:
        return exc


class StudyPipeline:
    """One store of shared artifacts plus the quantify / propagate stages
    for one config."""

    def __init__(self, config: ExperimentConfig):
        self.config = config
        # Every artifact built so far, keyed (method name, *args), and the
        # manifest records, keyed ("manifest", section, name).
        self._built: dict[tuple, object] = {}

    # -- shared artifacts ---------------------------------------------------

    @_memo
    def dataset(self, size: int) -> Dataset:
        return buckling.generate_data(buckling.TRUE_MODEL, size, self.config.seed)

    @_memo
    def parameter_prior(self, name: str, family: ModelFamily):
        if name == NONINFORMATIVE:
            return default_uniform_prior(family)
        prior = build_informative_prior(
            family,
            historical_dataset(name),
            cfg=self.config.pre_prior_config,
            rng=rng_for(self.config.seed, "pre-prior", name, family.value),
            max_components=self.config.kde_max_components,
        )
        self._built["manifest", "informative_priors", f"{name}/{family.value}"] = {
            "family": family.value,
            "n_components": prior.n_components,
            "bandwidths": prior.bandwidths.tolist(),
        }
        return prior

    @_memo
    def chain(self, size: int, param_prior: str, family: ModelFamily) -> PosteriorChain:
        data = self.dataset(size)
        prior = self.parameter_prior(param_prior, family)
        t0 = time.perf_counter()
        chain = sample_posterior(
            family,
            data,
            prior,
            self.config.chain_config,
            rng_for(self.config.seed, "chain", size, param_prior, family.value),
        )
        self._built["manifest", "chains", f"{size}/{param_prior}/{family.value}"] = {
            "seconds": time.perf_counter() - t0,
            "acceptance_rate": float(chain.acceptance_rate),
        }
        return chain

    @_memo
    def log_evidences(self, size: int, param_prior: str) -> np.ndarray:
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

    @_memo
    def bics(self, size: int) -> np.ndarray:
        """BIC vector over the candidate set for one dataset size."""
        data = self.dataset(size)
        return np.array([information_criteria(fam, data)[1] for fam in FAMILIES])

    def posterior_probs(self, size: int, param_prior: str, model_prior: str) -> ModelPosteriorProbs:
        """Bayes' rule over models.  Savvy cells take -BIC/2 as each model's
        log evidence, which with savvy priors gives the AIC weights; the
        other model priors use the Monte Carlo evidences."""
        if model_prior == "savvy":
            log_ev = -self.bics(size) / 2.0
        else:
            log_ev = self.log_evidences(size, param_prior)
        return model_posteriors(log_ev, model_prior_probs(model_prior, size))

    @_memo
    def ensemble(self, size: int, param_prior: str, model_prior: str) -> DistributionEnsemble:
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

    @_memo
    def true_output_stats(self) -> tuple[float, float, float]:
        """(mean psi, var psi, pf) of the true generator, by quadrature and
        root finding rather than sampling."""
        spec = buckling.TRUE_MODEL
        m, v = buckling.response_moments(spec.family, spec.theta, self.config.plate)
        pf = buckling.pf_semianalytic(
            spec.family, spec.theta, self.config.failure_threshold, self.config.plate
        )
        return m, v, pf

    # -- stages ---------------------------------------------------------------

    def gen_data(self) -> list[Path]:
        """Write the synthetic study datasets and the historical sets."""
        root = self.config.out_root / "data" / "synthetic"
        return [
            write_dataset_csv(root / f"yield_n{size}.csv", self.dataset(size))
            for size in self.config.dataset_sizes
        ] + self._write_historical(HISTORICAL_SOURCES)

    def _write_historical(self, names: Iterable[str]) -> list[Path]:
        """Write the named historical sets under ``data/historical``."""
        root = self.config.out_root / "data" / "historical"
        return [write_dataset_csv(root / f"{name}.csv", historical_dataset(name)) for name in names]

    def run_quantify(self) -> RunReport:
        """Model-probability tables, chain summaries, mixture densities on
        the yield-strength grid and density-distance metrics for every cell."""
        t0 = time.perf_counter()
        self._write_historical([p for p in self.config.parameter_priors if p != NONINFORMATIVE])
        self._write_psi_table()
        return self._run_panels("quantify", t0)

    def run_propagate(self) -> RunReport:
        """Per-member response statistics, pooled CDFs and output metrics
        for every cell (quantify artifacts are computed in-line if needed)."""
        return self._run_panels("propagate", time.perf_counter())

    # -- panels and processes ------------------------------------------------

    def _run_panels(self, stage: str, t0: float) -> RunReport:
        panels = list(dict.fromkeys((size, pp) for size, pp, _ in self.config.grid()))
        processes = self._process_count(len(panels))
        self._build_informative_priors()
        cells: list[CellRecord] = []
        panel_stats: dict[str, dict] = {}
        outcomes = self._map_units("_panel", [(stage, size, pp) for size, pp in panels])
        for (size, pp), (outcome, process) in zip(panels, outcomes):
            if isinstance(outcome, Exception):
                logger.error("%s panel (%s, %s) failed: %s", stage, size, pp, outcome)
                failed = [
                    CellRecord(size, pp, mp, ok=False, detail=str(outcome))
                    for mp in self.config.model_priors
                ]
                outcome = (failed, None)
            panel_cells, seconds = outcome
            cells += panel_cells
            panel_stats[f"{size}/{pp}"] = {"seconds": seconds, "process": process}
        report = RunReport(stage, cells)
        self._write_manifest(report, time.perf_counter() - t0, processes, panel_stats)
        return report

    def _panel(self, stage: str, size: int, pp: str) -> tuple[list[CellRecord], float]:
        """Every model-prior cell of one (size, parameter prior) panel and,
        for quantify, its chain summary; returns the cells and the seconds."""
        t0 = time.perf_counter()
        run_cell = self._quantify_cell if stage == "quantify" else self._propagate_cell
        cells = []
        for mp in self.config.model_priors:
            try:
                cells.append(run_cell(size, pp, mp))
            except Exception as exc:
                logger.error(
                    "%s cell (%s, %s, %s) failed: %s\n%s",
                    stage, size, pp, mp, exc, traceback.format_exc(),
                )
                cells.append(CellRecord(size, pp, mp, ok=False, detail=str(exc)))
        if stage == "quantify" and any(c.ok for c in cells):
            self._write_chain_summary(size, pp)
        return cells, time.perf_counter() - t0

    def _build_informative_priors(self) -> None:
        """Build every informative prior the grid needs before the panels
        run (and fork), so that each is built once per run, not once per
        size."""
        units = [
            (name, fam)
            for name in self.config.parameter_priors
            if name != NONINFORMATIVE
            for fam in FAMILIES
            if ("parameter_prior", name, fam) not in self._built
        ]
        for (name, fam), (outcome, _) in zip(units, self._map_units("parameter_prior", units)):
            if isinstance(outcome, Exception):
                # a panel that needs this prior builds it again, and its
                # cells fail with the error
                logger.error("informative prior (%s, %s) failed: %s", name, fam.value, outcome)

    def _process_count(self, n_units: int) -> int:
        """Processes that share ``n_units`` units of work: the caller and
        forked children, ``workers`` in all at most; 1 without fork."""
        return min(self.config.workers, n_units) if hasattr(os, "fork") else 1

    def _map_units(self, method: str, units: list[tuple]) -> list[tuple[object, str]]:
        """``getattr(self, method)(*unit)`` for every unit, as (result or
        raised exception, ``"caller"`` or ``"worker"``) in unit order.

        With P processes, up to P-1 units run at once, each in a child
        forked for it alone, and the caller runs the next pending unit
        between starts (with P = 1 it runs every unit).  A child inherits
        this pipeline, its store and any monkeypatching, so nothing is
        pickled on the way in; it sends its result and the store entries it
        added through a pipe, and the caller merges them into this
        pipeline's store.  A child that ends without sending fails only its
        own unit.
        """
        processes = self._process_count(len(units))
        run = getattr(self, method)
        out: list = [None] * len(units)
        pending = deque(range(len(units)))
        running: dict = {}  # receiving end of a child's pipe -> (unit index, pid)
        while pending or running:
            while pending and len(running) < processes - 1:
                i = pending.popleft()
                reader, writer = Pipe(duplex=False)
                pid = os.fork()
                if pid == 0:
                    # the child always ends in os._exit (1 if sending
                    # failed), so it runs none of the caller's atexit
                    # handlers and flushes none of the stdio buffers it
                    # inherited
                    try:
                        before = set(self._built)
                        result = _call(run, units[i])
                        writer.send(
                            (result, {k: v for k, v in self._built.items() if k not in before})
                        )
                        os._exit(0)
                    finally:
                        os._exit(1)
                writer.close()
                running[reader] = (i, pid)
            if pending:
                i = pending.popleft()
                out[i] = (_call(run, units[i]), "caller")
                ready = wait(list(running), timeout=0)
            else:
                ready = wait(list(running))
            for reader in ready:
                i, pid = running.pop(reader)
                try:
                    result, built = reader.recv()
                except (EOFError, OSError):
                    result, built = None, None
                reader.close()
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                if built is None:
                    result = ChildProcessError(
                        f"worker process {pid} terminated abruptly (exit status {status})"
                    )
                else:
                    self._built.update(built)
                out[i] = (result, "worker")
        return out

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
        return CellRecord(size, pp, mp, ok=True, metric_rows=rows)

    def _propagate_cell(self, size: int, pp: str, mp: str) -> CellRecord:
        ens = self.ensemble(size, pp, mp)
        t0 = time.perf_counter()
        result = propagate(
            ens,
            buckling.buckling_response(self.config.plate),
            self.config.n_propagation,
            rng_for(self.config.seed, "propagate", size, pp, mp),
            failure_threshold=self.config.failure_threshold,
        )
        w_min = float(np.min(result.mean_weights))
        w_max = float(np.max(result.mean_weights))
        self._built["manifest", "propagation", f"{size}/{pp}/{mp}"] = {
            "seconds": time.perf_counter() - t0,
            "mean_weight_min": w_min,
            "mean_weight_max": w_max,
        }
        lo, hi = MEAN_WEIGHT_BAND
        if not lo <= w_min <= w_max <= hi:
            logger.warning(
                "propagate cell (%s, %s, %s): member mean weights span [%.4g, %.4g], "
                "outside [%g, %g]",
                size, pp, mp, w_min, w_max, lo, hi,
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

    def _write_chain_summary(self, size: int, pp: str) -> None:
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

    def _write_manifest(
        self, report: RunReport, elapsed: float, processes: int, panels: dict[str, dict]
    ) -> None:
        """Run manifest: grid status, total time, the processes used and each
        panel's seconds and process, and the informative priors, posterior
        chains and propagate cells this pipeline has built so far (those
        of an earlier stage included)."""
        path = self.config.out_root / f"manifest_{report.stage}.json"
        path.parent.mkdir(parents=True, exist_ok=True)
        records = {"informative_priors": {}, "chains": {}, "propagation": {}}
        for key, values in self._built.items():
            if key[0] == "manifest":
                records[key[1]][key[2]] = values
        payload = {
            "config_hash": self.config.config_hash(),
            "seed": self.config.seed,
            "grid": [
                {"size": c.size, "parameter_prior": c.param_prior,
                 "model_prior": c.model_prior, "ok": c.ok, "detail": c.detail}
                for c in report.cells
            ],
            "timings": {"total_seconds": elapsed},
            "workers": processes,
            "panels": panels,
            **records,
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
