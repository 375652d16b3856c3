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
from typing import Callable, Mapping

import numpy as np

from .distributions import _BLOCK_CELLS, FAMILIES, ModelFamily, log_pdf_grid, sample_one_per
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
    posteriors: Mapping[ModelFamily, PosteriorChain],
    probs: ModelPosteriorProbs,
    n_d: int,
    rng: np.random.Generator,
) -> DistributionEnsemble:
    """Draw ``n_d`` members: family by a categorical draw over the posterior
    model probabilities, parameters uniformly from that family's chain."""
    if n_d < 1:
        raise ValueError("n_d must be >= 1")
    pi_hat = probs.pi_hat
    if pi_hat.size != len(FAMILIES):
        raise ValueError("probs must cover the full candidate set")
    for j, fam in enumerate(FAMILIES):
        if pi_hat[j] > 0.0 and (
            fam not in posteriors or posteriors[fam].samples.shape[0] == 0
        ):
            raise ValueError(f"no posterior chain for {fam} with positive probability")

    codes = rng.choice(len(FAMILIES), size=n_d, p=pi_hat)
    lengths = np.array(
        [posteriors[f].samples.shape[0] if f in posteriors else 1 for f in FAMILIES]
    )
    rows = np.floor(rng.random(n_d) * lengths[codes]).astype(np.int64)
    thetas = np.empty((n_d, 2))
    for j, fam in enumerate(FAMILIES):
        sel = codes == j
        if np.any(sel):
            thetas[sel] = posteriors[fam].samples[rows[sel]]
    return DistributionEnsemble(codes, thetas)


def _density_blocks(ens: DistributionEnsemble, x: np.ndarray):
    """Yield ``(order, cols, dens)`` over consecutive column blocks of ``x``.

    ``dens`` holds every member's density at ``x[cols]``, one row per
    member in the family-sorted ``order``: one ``log_pdf_grid`` call per
    family, exponentiated in place.  A block holds at most
    ``_BLOCK_CELLS`` cells (at least one column), so memory stays bounded
    whatever the member and point counts.
    """
    order = np.argsort(ens.family_codes, kind="stable")
    codes = ens.family_codes[order]
    thetas = ens.thetas[order]
    _, starts = np.unique(codes, return_index=True)
    runs = list(zip(starts, np.append(starts[1:], codes.size)))
    width = max(1, _BLOCK_CELLS // ens.n_members)
    for start in range(0, x.size, width):
        cols = slice(start, min(start + width, x.size))
        if len(runs) == 1:
            dens = log_pdf_grid(FAMILIES[codes[0]], thetas, x[cols])
        else:
            dens = np.empty((ens.n_members, cols.stop - cols.start))
            for lo, hi in runs:
                dens[lo:hi] = log_pdf_grid(FAMILIES[codes[lo]], thetas[lo:hi], x[cols])
        np.exp(dens, out=dens)
        yield order, cols, dens


def mixture_density(ens: DistributionEnsemble, x) -> np.ndarray | float:
    """Equal-weight mixture density of the ensemble members at ``x``."""
    xa = np.asarray(x, dtype=float)
    flat = np.atleast_1d(xa).ravel()
    dens = np.empty(flat.size)
    for _, cols, block in _density_blocks(ens, flat):
        np.sum(block, axis=0, out=dens[cols])
    dens /= ens.n_members
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
    importance-sampling reweighting with weights p_i(x) / q(x).
    ``x_samples`` reuses an existing mixture sample instead of drawing.

    Each member density is evaluated once per point: a block of points
    gives the (members x points) density matrix, q from its column means,
    and every member's weighted sums from one matrix product.  Memory is
    bounded by one block of ``_BLOCK_CELLS`` cells, not by n_d x n.
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

    # Columns [1, g, g^2, 1{g < threshold}]: one GEMM per block gives every
    # member's weight sum and the three weighted sums at once.
    moments = np.column_stack([np.ones(n), gv, gv * gv, gv < failure_threshold])
    sums = np.zeros((ens.n_members, 4))
    for order, cols, dens in _density_blocks(ens, x):
        q = np.sum(dens, axis=0)
        q /= ens.n_members
        dens /= q
        sums[order] += dens @ moments[cols]
    sums /= n
    means = sums[:, 1]

    return PropagationResult(
        x_samples=x,
        g_values=gv,
        means=means,
        variances=sums[:, 2] - means**2,
        pfs=sums[:, 3],
        mean_weights=sums[:, 0],
    )
