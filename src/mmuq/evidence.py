"""Model evidences, information criteria and posterior model probabilities.

The evidence (marginal likelihood) of a model is estimated by Monte Carlo:
the likelihood averaged over draws from the parameter prior, accumulated
with log-sum-exp.  Posterior model probabilities combine log evidences with
prior model probabilities through Bayes' rule (``model_posteriors``).  With
-BIC/2 as each model's log evidence and "savvy" model priors, the same rule
gives exactly the AIC weights.

The maximized likelihood behind the BIC (``max_log_likelihood``) is found by
``_nelder_mead``, a Nelder-Mead search whose stopping test is relative to
the objective and the point, so it means the same at every sample size; the
evidence's log-sum-exp is :func:`mmuq.special.logsumexp`, scipy's formula:
mmuq imports no scipy (see ``distributions``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import (
    Dataset,
    ModelFamily,
    PARAM_DIM,
    POSITIVE_PARAMS,
    log_likelihood,
    log_likelihood_batch,
    params_from_moments,
)
from .special import logsumexp

__all__ = [
    "ModelPriorProbs",
    "ModelPosteriorProbs",
    "EvidenceUnderflowError",
    "MleError",
    "log_evidence_mc",
    "model_posteriors",
    "max_log_likelihood",
    "information_criteria",
    "aic_weights",
    "savvy_priors",
]


class EvidenceUnderflowError(RuntimeError):
    """Every prior draw had zero likelihood (prior and data incompatible)."""


class MleError(RuntimeError):
    """Maximum-likelihood search failed to converge."""


@dataclass(frozen=True)
class ModelPriorProbs:
    """Prior probabilities over the candidate model set."""

    pi: np.ndarray

    def __post_init__(self) -> None:
        pi = np.asarray(self.pi, dtype=float)
        object.__setattr__(self, "pi", pi)
        if pi.ndim != 1 or pi.size < 1:
            raise ValueError("pi must be a nonempty vector")
        if np.any(pi < 0.0):
            raise ValueError("prior model probabilities must be nonnegative")
        if abs(pi.sum() - 1.0) > 1e-12:
            raise ValueError(f"prior model probabilities sum to {pi.sum()!r}, not 1")

    @classmethod
    def uniform(cls, m: int) -> "ModelPriorProbs":
        return cls(np.full(m, 1.0 / m))


@dataclass(frozen=True)
class ModelPosteriorProbs:
    """Posterior model probabilities and the log evidences behind them."""

    pi_hat: np.ndarray
    log_evidence: np.ndarray

    def __post_init__(self) -> None:
        ph = np.asarray(self.pi_hat, dtype=float)
        le = np.asarray(self.log_evidence, dtype=float)
        object.__setattr__(self, "pi_hat", ph)
        object.__setattr__(self, "log_evidence", le)
        if ph.shape != le.shape or ph.ndim != 1:
            raise ValueError("pi_hat and log_evidence must be equal-length vectors")
        if abs(ph.sum() - 1.0) > 1e-12:
            raise ValueError("posterior model probabilities must sum to 1")


def log_evidence_mc(
    family: ModelFamily,
    data: Dataset,
    prior,
    n_k: int,
    rng: np.random.Generator,
) -> float:
    """Monte Carlo log evidence: log of the mean likelihood over ``n_k``
    parameter draws from the prior."""
    if n_k < 1:
        raise ValueError("n_k must be >= 1")
    thetas = prior.sample(rng, n_k)
    ll = log_likelihood_batch(family, thetas, data)
    if np.all(np.isneginf(ll)):
        raise EvidenceUnderflowError(
            f"all {n_k} prior draws had zero likelihood for {family} "
            f"under prior {prior!r}"
        )
    return float(logsumexp(ll) - np.log(n_k))


def model_posteriors(log_ev, prior: ModelPriorProbs) -> ModelPosteriorProbs:
    """Bayes' rule over models: pi_hat_j proportional to evidence_j * pi_j,
    computed stably by shifting out the largest log evidence."""
    log_ev = np.asarray(log_ev, dtype=float)
    if log_ev.shape != prior.pi.shape:
        raise ValueError("log_ev and prior lengths disagree")
    finite = np.isfinite(log_ev) & (prior.pi > 0.0)
    if not np.any(finite):
        raise ValueError("no model has both finite evidence and positive prior")
    shifted = np.where(finite, log_ev - np.max(log_ev[finite]), -np.inf)
    weights = np.exp(shifted) * prior.pi
    return ModelPosteriorProbs(pi_hat=weights / weights.sum(), log_evidence=log_ev)


# ---------------------------------------------------------------------------
# information criteria


def _moment_start(family: ModelFamily, data: Dataset) -> np.ndarray:
    mean = float(np.mean(data.values))
    sd = float(np.std(data.values, ddof=1)) if data.n > 1 else 0.0
    if mean <= 0.0 or sd <= 0.0:
        raise MleError(f"cannot seed MLE for {family}: degenerate sample moments")
    return params_from_moments(family, mean, sd / mean)


# Nelder-Mead stops once the simplex spans at most _NM_FTOL * max(1, |f|) in
# f and _NM_XTOL * max(1, |x|) in x at its best vertex, so the f test stays
# above a likelihood's rounding (which grows with n) at every sample size.
# The 56 MLE searches of the tests take at most 57 iterations.
_NM_FTOL = 1e-13
_NM_XTOL = 1e-8
_NM_MAXITER = 500


def _nelder_mead(func, x0: np.ndarray):
    """Minimize ``func`` from ``x0`` by the Nelder-Mead simplex method
    (Nelder & Mead 1965, Comput. J. 7:308); returns (x, f(x), iterations).

    The initial simplex steps 5% along each coordinate (0.00025 at a zero
    one); reflection, expansion, contraction and shrink coefficients are 1,
    2, 1/2 and 1/2.  The vertices are ordered by one stable sort per
    iteration.  The search stops on the relative f and x spreads above; at
    ``_NM_MAXITER`` iterations it returns its best vertex.
    """
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.array([func(v) for v in sim])
    iterations = 0
    while True:
        order = np.argsort(fsim, kind="stable")
        sim, fsim = sim[order], fsim[order]
        if iterations == _NM_MAXITER or (
            fsim[-1] - fsim[0] <= _NM_FTOL * max(1.0, abs(fsim[0]))
            and np.max(np.abs(sim[1:] - sim[0])) <= _NM_XTOL * max(1.0, np.max(np.abs(sim[0])))
        ):
            return sim[0], fsim[0], iterations
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = func(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = func(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xk = 1.5 * xbar - 0.5 * sim[-1]
                fxk = func(xk)
                accept = fxk <= fxr
            else:  # inside contraction
                xk = 0.5 * xbar + 0.5 * sim[-1]
                fxk = func(xk)
                accept = fxk < fsim[-1]
            if accept:
                sim[-1], fsim[-1] = xk, fxk
            else:  # shrink towards the best vertex
                sim[1:] = sim[0] + 0.5 * (sim[1:] - sim[0])
                fsim[1:] = [func(v) for v in sim[1:]]
        iterations += 1


def max_log_likelihood(family: ModelFamily, data: Dataset) -> tuple[np.ndarray, float]:
    """MLE parameters and maximized log likelihood via ``_nelder_mead`` from
    a moment-matched start (positive parameters searched in log space),
    stopped by its relative test: the maximum is exact to about 1e-13 of
    |ll| at every sample size."""
    start = _moment_start(family, data)
    pos = np.array(POSITIVE_PARAMS[family])
    x0 = np.where(pos, np.log(start), start)

    def negll(x: np.ndarray) -> float:
        theta = np.where(pos, np.exp(x), x)
        return -log_likelihood(family, theta, data)

    x, fun, _ = _nelder_mead(negll, x0)
    if not np.isfinite(fun):
        raise MleError(f"MLE failed for {family} on {data.label!r}: non-finite optimum")
    theta_hat = np.where(pos, np.exp(x), x)
    return theta_hat, float(-fun)


def information_criteria(family: ModelFamily, data: Dataset) -> tuple[float, float]:
    """(AIC, BIC) = (-2 ll + 2K, -2 ll + K ln n) from a single MLE solve,
    with ll the maximized log likelihood and K the parameter count."""
    _, ll = max_log_likelihood(family, data)
    return -2.0 * ll + 2.0 * PARAM_DIM, -2.0 * ll + PARAM_DIM * np.log(data.n)


def aic_weights(aics) -> np.ndarray:
    """Akaike weights: softmax of -AIC/2 after subtracting the minimum."""
    aics = np.asarray(aics, dtype=float)
    w = np.exp(-0.5 * (aics - aics.min()))
    return w / w.sum()


def savvy_priors(n: int, ks) -> ModelPriorProbs:
    """Sample-size and complexity aware model priors proportional to
    exp(K ln(n)/2 - K); Bayes' rule under these, with -BIC/2 as the log
    evidence, gives the AIC weights."""
    ks = np.asarray(ks, dtype=float)
    logw = 0.5 * ks * np.log(n) - ks
    w = np.exp(logw - logw.max())
    return ModelPriorProbs(pi=w / w.sum())
