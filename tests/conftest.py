import numpy as np
import pytest

from mmuq.distributions import ModelFamily
from mmuq.mcmc import draw_stretch_factors


@pytest.fixture
def rng():
    return np.random.default_rng(20180421)


def generalized_bic_weights(bics, prior):
    """Reference formula: exp(-(BIC_j - BIC_min)/2) pi_j, normalized (the
    library computes it as Bayes' rule on -BIC/2)."""
    bics = np.asarray(bics, dtype=float)
    w = np.exp(-0.5 * (bics - bics.min())) * prior.pi
    return w / w.sum()


def reference_stretch_sampler(log_prob, initial, cfg, rng):
    """Reference stretch-move loop: each half-ensemble indexed by arrays,
    its proposals and updates gathered and scattered through them (the
    sampler updates slice views in place).  Draws from ``rng`` in the
    sampler's order: partners, stretch factors, acceptance uniforms."""
    walkers = np.array(initial, dtype=float)
    n_walkers, ndim = walkers.shape
    logp = log_prob(walkers)
    half = n_walkers // 2
    groups = (np.arange(half), np.arange(half, n_walkers))
    chain = np.empty((cfg.n_steps, n_walkers, ndim))
    accepted = 0
    for step in range(cfg.n_steps):
        for active, other in ((0, 1), (1, 0)):
            idx = groups[active]
            comp = groups[other]
            partners = comp[rng.integers(0, half, size=half)]
            z = draw_stretch_factors(rng, half)
            proposal = walkers[partners] + z[:, None] * (walkers[idx] - walkers[partners])
            logp_prop = log_prob(proposal)
            log_accept = (ndim - 1.0) * np.log(z) + logp_prop - logp[idx]
            take = np.log(rng.random(half)) < log_accept
            walkers[idx[take]] = proposal[take]
            logp[idx[take]] = logp_prop[take]
            accepted += int(np.count_nonzero(take))
        chain[step] = walkers
    return chain, accepted / (cfg.n_steps * n_walkers)


# Representative parameter vectors per family: one near the yield-strength
# study point, one generic.
STUDY_THETAS = {
    ModelFamily.GAMMA: (74.3, 0.468),
    ModelFamily.INVERSE_GAUSSIAN: (34.8, 2585.0),
    ModelFamily.LOGISTIC: (34.0, 2.2),
    ModelFamily.LOGLOGISTIC: (3.55, 0.065),
    ModelFamily.LOGNORMAL: (3.54242, 0.115612),
    ModelFamily.NORMAL: (34.782, 4.03),
    ModelFamily.WEIBULL: (10.2, 36.5),
}

GENERIC_THETAS = {
    ModelFamily.GAMMA: (2.0, 3.0),
    ModelFamily.INVERSE_GAUSSIAN: (2.0, 5.0),
    ModelFamily.LOGISTIC: (0.0, 1.0),
    ModelFamily.LOGLOGISTIC: (0.2, 0.15),
    ModelFamily.LOGNORMAL: (0.0, 0.6),
    ModelFamily.NORMAL: (0.0, 1.0),
    ModelFamily.WEIBULL: (1.0, 2.0),
}
