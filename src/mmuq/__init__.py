"""Bayesian multimodel uncertainty quantification and propagation.

Quantifies combined model-form and parameter uncertainty from small
datasets (posterior model probabilities via Monte Carlo evidence, posterior
parameter samples via an affine-invariant ensemble sampler, uniform or
data-driven KDE priors) and propagates the resulting set of distributions
through a plate-buckling response with single-loop importance sampling.
"""

from .buckling import (
    MEAN_PLATE,
    TRUE_MODEL,
    PlateConfig,
    TrueModelSpec,
    buckling_response,
    generate_data,
    pf_semianalytic,
)
from .config import ExperimentConfig, load_config, model_prior_probs
from .distributions import (
    FAMILIES,
    Dataset,
    ModelFamily,
    cdf,
    log_likelihood,
    log_pdf,
    moments,
    params_from_moments,
    pdf,
    sample,
)
from .evidence import (
    ModelPosteriorProbs,
    ModelPriorProbs,
    aic_weights,
    log_evidence_mc,
    model_posteriors,
    savvy_priors,
)
from .mcmc import EnsembleConfig, PosteriorChain, sample_posterior
from .metrics import (
    EmpiricalCdf,
    area_validation_metric,
    avg_mean_square_distance,
    confidence_range,
)
from .pipeline import StudyPipeline
from .priors import (
    KdePrior,
    UniformBoxPrior,
    build_informative_prior,
    default_uniform_prior,
    historical_dataset,
    kde_bandwidths,
)
from .propagation import (
    DistributionEnsemble,
    PropagationResult,
    draw_ensemble,
    mixture_density,
    propagate,
    sample_mixture,
)
from .seeding import rng_for

__version__ = "0.1.0"
