"""Finite ensembles of (model, parameters) pairs and single-loop propagation.

The total uncertainty quantified upstream (posterior model probabilities
plus per-model posterior parameter samples) is represented by an ensemble
of sampled distributions.  The equally weighted mixture of the ensemble
members is the optimal sampling density; one Monte Carlo sample from it is
reweighted by importance sampling to give every member's output statistics
in a single pass over the physics function.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .distributions import (
    _blocks,
    _matmul,
    FAMILIES,
    ModelFamily,
    log_pdf_grid,
    sample_one_per,
)
from .evidence import ModelPosteriorProbs
from .mcmc import PosteriorChain

__all__ = [
    "DistributionEnsemble",
    "PropagationResult",
    "draw_ensemble",
    "mixture_density",
    "sample_mixture",
    "propagate",
]


@dataclass
class DistributionEnsemble:
    """Sampled (family, parameters) pairs approximating the total
    uncertainty; member order is the sampling order."""

    family_codes: np.ndarray  # (n_d,) indices into FAMILIES
    thetas: np.ndarray  # (n_d, 2)

    def __post_init__(self) -> None:
        self.family_codes = np.asarray(self.family_codes, dtype=np.int64)
        self.thetas = np.asarray(self.thetas, dtype=float)
        if self.family_codes.ndim != 1 or self.family_codes.size < 1:
            raise ValueError("ensemble needs at least one member")
        if self.thetas.shape != (self.family_codes.size, 2):
            raise ValueError("thetas must be (n_d, 2)")

    @property
    def n_members(self) -> int:
        return int(self.family_codes.size)

    def member(self, i: int) -> tuple[ModelFamily, np.ndarray]:
        return FAMILIES[self.family_codes[i]], self.thetas[i]

    def __iter__(self):
        return (self.member(i) for i in range(self.n_members))


@dataclass
class PropagationResult:
    """Per-member output statistics from one importance-sampling pass.

    ``mean_weights`` holds each member's average importance weight, which
    should sit near 1; values far from 1 flag degenerate reweighting.
    """

    x_samples: np.ndarray
    g_values: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    pfs: np.ndarray
    mean_weights: np.ndarray


def draw_ensemble(
    chain_of: Callable[[ModelFamily], PosteriorChain],
    probs: ModelPosteriorProbs,
    n_d: int,
    rng: np.random.Generator,
) -> DistributionEnsemble:
    """Draw ``n_d`` members: family by a categorical draw over the posterior
    model probabilities, parameters uniformly from that family's chain.

    ``chain_of(family)`` is asked once for each family the categorical draw
    picks, after the draw, and never for a family no member drew, however
    large its probability; an error it raises propagates.  Every member
    depends only on ``rng`` and the chains of the drawn families.
    """
    if n_d < 1:
        raise ValueError("n_d must be >= 1")
    pi_hat = probs.pi_hat
    if pi_hat.size != len(FAMILIES):
        raise ValueError("probs must cover the full candidate set")

    codes = rng.choice(len(FAMILIES), size=n_d, p=pi_hat)
    drawn = {j: chain_of(FAMILIES[j]).samples for j in np.unique(codes)}
    u = rng.random(n_d)
    thetas = np.empty((n_d, 2))
    for j, samples in drawn.items():
        sel = codes == j
        thetas[sel] = samples[np.floor(u[sel] * samples.shape[0]).astype(np.int64)]
    return DistributionEnsemble(codes, thetas)


def _by_family(ens: DistributionEnsemble) -> np.ndarray:
    """Member indices sorted stably by family: the row order of every
    ``_density_blocks`` block."""
    return np.argsort(ens.family_codes, kind="stable")


def _density_blocks(ens: DistributionEnsemble, x: np.ndarray):
    """Yield ``(cols, dens)`` over consecutive column blocks of ``x``.

    ``dens`` holds every member's density at ``x[cols]``, one row per
    member in ``_by_family`` order: one ``log_pdf_grid`` call per family,
    exponentiated in place.  Blocks are sized by ``_blocks``, so memory
    stays bounded whatever the member and point counts.
    """
    order = _by_family(ens)
    codes = ens.family_codes[order]
    thetas = ens.thetas[order]
    _, starts = np.unique(codes, return_index=True)
    runs = list(zip(starts, np.append(starts[1:], codes.size)))
    for cols in _blocks(x.size, ens.n_members):
        if len(runs) == 1:
            dens = log_pdf_grid(FAMILIES[codes[0]], thetas, x[cols])
        else:
            dens = np.empty((ens.n_members, cols.stop - cols.start))
            for lo, hi in runs:
                dens[lo:hi] = log_pdf_grid(FAMILIES[codes[lo]], thetas[lo:hi], x[cols])
        np.exp(dens, out=dens)
        yield cols, dens


def _member_mean(dens: np.ndarray) -> np.ndarray:
    """Mean over the members (rows) of a density block, 1^T dens / rows, as
    one GEMV (``_matmul``)."""
    rows = dens.shape[0]
    return _matmul(np.ones(rows), dens) / rows


def mixture_density(ens: DistributionEnsemble, x) -> np.ndarray | float:
    """Equal-weight mixture density of the ensemble members at ``x``: the
    importance-sampling density q of ``propagate``, by the same formula."""
    xa = np.asarray(x, dtype=float)
    flat = np.atleast_1d(xa).ravel()
    dens = np.empty(flat.size)
    for cols, block in _density_blocks(ens, flat):
        dens[cols] = _member_mean(block)
    return float(dens[0]) if xa.ndim == 0 else dens.reshape(xa.shape)


def sample_mixture(ens: DistributionEnsemble, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw from the mixture: pick a member uniformly, then draw from it."""
    if n < 1:
        raise ValueError("n must be >= 1")
    member = rng.integers(0, ens.n_members, size=n)
    x = np.empty(n)
    for j in range(len(FAMILIES)):
        sel = np.flatnonzero(ens.family_codes[member] == j)
        if sel.size:
            x[sel] = sample_one_per(FAMILIES[j], ens.thetas[member[sel]], rng)
    return x


def propagate(
    ens: DistributionEnsemble,
    g: Callable[[np.ndarray], np.ndarray],
    n: int,
    rng: np.random.Generator,
    failure_threshold: float = 0.6,
    x_samples: np.ndarray | None = None,
) -> PropagationResult:
    """Propagate every ensemble member through ``g`` with one sample set.

    Draws ``n`` points from the mixture, evaluates ``g`` once, and computes
    per-member mean, variance and failure probability P(g < threshold) by
    importance-sampling reweighting with weights w = p_i(x) / q(x); the
    variance is sum w (g - mean)^2 / n, which is never negative.
    ``x_samples`` reuses an existing mixture sample instead of drawing.

    Each member density is evaluated once per point: a block of points
    gives the (members x points) density matrix, q from its column means
    (one GEMV), and every member's weighted sums from one GEMM with the
    (points x 4) moment columns, each point's row divided by its q, so the
    weights p_i / q are never formed.  The sums stay in the blocks'
    family-sorted row order until the loop ends.  Memory is bounded by one
    block (``_density_blocks``) plus a few length-n arrays, not by n_d x n.
    """
    if x_samples is None:
        x = sample_mixture(ens, rng, n)
    else:
        x = np.asarray(x_samples, float)
        if x.shape != (n,):
            raise ValueError(f"x_samples has shape {x.shape}, expected ({n},) for n={n}")
    gv = np.asarray(g(x), dtype=float)
    if gv.shape != x.shape:
        raise ValueError("g must map the sample array to an equal-shape array")
    if not np.all(np.isfinite(gv)):
        bad = x[~np.isfinite(gv)][0]
        raise ValueError(f"g returned a non-finite value at x={bad!r}")

    # Columns [1, g, (g - r)^2, 1{g < threshold}], r the sample mean of g:
    # one GEMM per block gives every member's weight sum and the three
    # weighted sums at once.
    r = gv.mean()
    shifted = gv - r
    shifted *= shifted
    moments = np.column_stack([np.ones(n), gv, shifted, gv < failure_threshold])
    sorted_sums = np.zeros((ens.n_members, 4))
    for cols, dens in _density_blocks(ens, x):
        sorted_sums += _matmul(dens, moments[cols] / _member_mean(dens)[:, None])
    sums = np.empty_like(sorted_sums)
    sums[_by_family(ens)] = sorted_sums
    sums /= n
    mean_weights, means = sums[:, 0], sums[:, 1]
    # sum w (g - m)^2 / n about each member's own mean m, from the sums about
    # r; the weights are not normalized (their mean W is not 1), so this is
    # the exact expansion, and it is non-negative as the sum is.
    d = means - r
    variances = sums[:, 2] - d * (2.0 * (means - r * mean_weights) - d * mean_weights)

    return PropagationResult(
        x_samples=x,
        g_values=gv,
        means=means,
        variances=variances,
        pfs=sums[:, 3],
        mean_weights=mean_weights,
    )
