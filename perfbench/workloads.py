"""The benchmark's workloads: each maps a seed to one mmuq study config.

Every workload keeps the dataset sizes, parameter priors, model priors,
grid shape and ``kde_max_components`` that make it stress its layer; chain
step counts, ``n_k`` and ``n_d`` are scaled down from the study defaults so
that one repetition takes a few seconds.  The scale of each is stated next
to it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

# Patch sites every workload reaches: the chain cache, the posterior sampler
# behind it, the likelihood inside the sampler, the ensemble draw and CSV
# output.
_COMMON_SITES = (
    "mmuq.pipeline.StudyPipeline.chain",
    "mmuq.pipeline.sample_posterior",
    "mmuq.mcmc.run_ensemble_sampler",
    "mmuq.mcmc.log_likelihood_batch",
    "mmuq.priors.UniformBoxPrior.log_density_batch",
    "mmuq.pipeline.log_evidence_mc",
    "mmuq.evidence.log_likelihood_batch",
    "mmuq.pipeline.draw_ensemble",
    "mmuq.pipeline.write_table",
)
_QUANTIFY_SITES = (
    "mmuq.pipeline.StudyPipeline.run_quantify",
    "mmuq.pipeline.mixture_density",
    "mmuq.propagation.log_pdf_grid",
    "mmuq.metrics.avg_mean_square_distance",
    "mmuq.metrics.log_pdf_grid",
    "mmuq.buckling.buckling_response",
)
_PROPAGATE_SITES = (
    "mmuq.pipeline.StudyPipeline.run_propagate",
    "mmuq.pipeline.propagate",
    "mmuq.propagation.log_pdf_grid",
    "mmuq.propagation.sample_one_per",
    "mmuq.buckling.buckling_response",
    "mmuq.buckling.response_moments",
    "mmuq.buckling.pf_semianalytic",
    "mmuq.metrics.EmpiricalCdf.from_samples",
    "mmuq.metrics.confidence_range",
    "mmuq.metrics.area_validation_metric",
)
_SAVVY_SITES = (
    "mmuq.pipeline.information_criteria",
    "mmuq.distributions.log_likelihood_batch",
)
_KDE_SITES = (
    "mmuq.pipeline.build_informative_prior",
    "mmuq.priors.sample_posterior",
    "mmuq.priors.KdePrior.log_density_batch",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    stages: tuple[str, ...]  # StudyPipeline methods timed, in this order
    config: dict  # ExperimentConfig fields other than name, seed, output_dir
    reaches: tuple[str, ...]  # patch sites a traced repetition must see called
    avoids: tuple[str, ...] = ()  # patch sites that must stay uncalled
    # Where today's code spends its time on this workload: printed with a
    # traced run but never counted as a failure, because the optimisations
    # the benchmark exists to measure are meant to change it.
    profile: Callable[["Workload", dict], list[tuple[str, bool]]] = lambda w, r: []

    def __post_init__(self) -> None:
        object.__setattr__(self, "reaches", tuple(dict.fromkeys(self.reaches)))

    def config_for(self, seed: int, output_dir: str) -> dict:
        return {"name": self.name, "seed": seed, "output_dir": output_dir, **self.config}


def _kde_dominates(w: Workload, r: dict) -> list[tuple[str, bool]]:
    kde = r["self_s"].get("priors.KdePrior.log_density_batch", 0.0)
    share = kde / r["traced_wall_s"]
    return [
        ("KdePrior.log_density_batch has the largest self time", kde == max(r["self_s"].values())),
        (f"KdePrior.log_density_batch self time is {share:.0%} >= 70% of traced wall_s", share >= 0.7),
    ]


def _propagation_dominates(w: Workload, r: dict) -> list[tuple[str, bool]]:
    cells = r["per_layer"]["propagation.density_cells"]
    expected = 2 * w.config["n_d"] * w.config["n_propagation"]
    share = r["per_layer"]["propagation.propagate.total_s"] / r["traced_wall_s"]
    return [
        (f"propagation.density_cells = {cells:.0f} = 2 * n_d * n_propagation", cells == expected),
        (f"propagation.propagate is {share:.0%} >= 80% of traced wall_s", share >= 0.8),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="informative-quantify",
            why="ABS-B KDE prior at n=1000: the only workload whose hot path is the KDE prior density",
            stages=("run_quantify",),
            # Chains at 150 of 2000 steps.  The pre-prior chain keeps 300
            # post burn-in steps (9600 samples), so the 5000-component cap
            # binds and the KDE has 4800 kernels, against 4572 at the study
            # defaults.
            config={
                "dataset_sizes": [1000],
                "parameter_priors": ["ABS-B"],
                "model_priors": ["uniform"],
                "workers": 1,
                "kde_max_components": 5000,
                "chain_steps": 150,
                "chain_burn_in": 50,
                "pre_prior_steps": 400,
                "pre_prior_burn_in": 100,
                "n_k": 1000,
                "n_d": 500,
            },
            reaches=_COMMON_SITES + _QUANTIFY_SITES + _KDE_SITES,
            avoids=("mmuq.pipeline.propagate",),
            profile=_kde_dominates,
        ),
        Workload(
            name="noninformative-evidence",
            why="n=10^4 flat prior, three model priors on one panel: likelihood-bound chains, MC evidence, MLE route",
            stages=("run_quantify",),
            # Steps, n_k and n_d at 1/10 of the study scale.
            config={
                "dataset_sizes": [10000],
                "parameter_priors": ["noninformative"],
                "model_priors": ["uniform", "strong_correct", "savvy"],
                "workers": 1,
                "chain_steps": 200,
                "chain_burn_in": 50,
                "n_k": 1000,
                "n_d": 500,
            },
            reaches=_COMMON_SITES + _QUANTIFY_SITES + _SAVVY_SITES,
            avoids=_KDE_SITES + ("mmuq.pipeline.propagate",),
        ),
        Workload(
            name="propagate-full",
            why="one n=1000 cell propagated with n_propagation=10^5: importance-sampling propagation dominates",
            stages=("run_propagate",),
            # n_d at 1/5 of the full-scale 5000, so that propagate stays over
            # 80% of the wall time next to the n=1000 chains; n_propagation
            # unscaled.  n=1000 under the strong_correct model prior rather
            # than the issue's n=100 under uniform: see "Known defect" in
            # README.md.
            config={
                "dataset_sizes": [1000],
                "parameter_priors": ["noninformative"],
                "model_priors": ["strong_correct"],
                "workers": 1,
                "chain_steps": 200,
                "chain_burn_in": 50,
                "n_k": 1000,
                "n_d": 1000,
                "n_propagation": 100000,
            },
            reaches=_COMMON_SITES + _PROPAGATE_SITES,
            avoids=_KDE_SITES + ("mmuq.pipeline.mixture_density",),
            profile=_propagation_dominates,
        ),
        Workload(
            name="grid-2workers",
            why="2x1x3 grid quantified on 2 threads: the only workload with concurrent cells and shared caches",
            stages=("run_quantify",),
            # Steps, n_k and n_d at 1/10 of the study scale.  Quantify only:
            # propagating the n=25 cells fails on some seeds (see "Known
            # defect" in README.md).
            config={
                "dataset_sizes": [25, 1000],
                "parameter_priors": ["noninformative"],
                "model_priors": ["uniform", "strong_incorrect", "savvy"],
                "workers": 2,
                "chain_steps": 200,
                "chain_burn_in": 50,
                "n_k": 200,
                "n_d": 100,
            },
            reaches=_COMMON_SITES + _QUANTIFY_SITES + _SAVVY_SITES,
            avoids=_KDE_SITES + ("mmuq.pipeline.propagate",),
        ),
    )
}
