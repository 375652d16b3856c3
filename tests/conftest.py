import numpy as np
import pytest

from mmuq.distributions import ModelFamily


@pytest.fixture
def rng():
    return np.random.default_rng(20180421)


def generalized_bic_weights(bics, prior):
    """Reference formula: exp(-(BIC_j - BIC_min)/2) pi_j, normalized (the
    library computes it as Bayes' rule on -BIC/2)."""
    bics = np.asarray(bics, dtype=float)
    w = np.exp(-0.5 * (bics - bics.min())) * prior.pi
    return w / w.sum()


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
