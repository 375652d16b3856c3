"""Finite ensembles of (model, parameters) pairs and single-loop propagation.

The total uncertainty quantified upstream (posterior model probabilities
plus per-model posterior parameter samples) is represented by an ensemble
of sampled distributions.  The equally weighted mixture of the ensemble
members is the optimal sampling density; one Monte Carlo sample from it is
reweighted by importance sampling to give every member's output statistics
in a single pass over the physics function.

Every density pass (``propagate``, ``mixture_density`` and the density
metric) evaluates each distinct member once: members that repeat a chain
row collapse into one row weighted by its multiplicity
(``_distinct_members``), each family's coefficients are computed once per
pass, not once per block of points (``_density_blocks``), and one function
(``_member_mean``) averages a block's rows over the members: q, the mixture
density and the density metric's integrals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .buckling import FAILURE_THRESHOLD
from .distributions import (
    _blocks,
    _grid_coefficients,
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


# Cells per row counted by ``sample_mixture``'s ``_blocks`` chunks: the
# parameter row copy, the draw and the sampler's temporaries.
_SAMPLE_CELLS_PER_ROW = 8


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
    # the drawn families in ascending order; np.unique would import numpy.ma
    present = np.flatnonzero(np.bincount(codes, minlength=len(FAMILIES)))
    drawn = {j: chain_of(FAMILIES[j]).samples for j in present}
    u = rng.random(n_d)
    thetas = np.empty((n_d, 2))
    for j, samples in drawn.items():
        sel = codes == j
        thetas[sel] = samples[np.floor(u[sel] * samples.shape[0]).astype(np.int64)]
    return DistributionEnsemble(codes, thetas)


def _distinct_members(
    ens: DistributionEnsemble,
) -> tuple[DistributionEnsemble, np.ndarray, np.ndarray]:
    """``(rows, counts, member_row)``: the ensemble's distinct members, each
    one row of ``rows``, with its multiplicity ``counts`` (float) and the row
    ``member_row`` of every member.

    Members are the same when their family and the bits of both parameters
    agree, so every member's density is its row's, bit for bit.  Rejected
    chain moves repeat rows and ``draw_ensemble`` draws with replacement, so
    a density pass over ``rows`` skips the repeats.  The rows are the first
    occurrences sorted stably by family, so ``_density_blocks`` runs one
    ``log_pdf_grid`` call per family, and an ensemble with no repeats is its
    own ``rows`` in that order."""
    order = np.argsort(ens.family_codes, kind="stable")
    codes = ens.family_codes[order]
    bits = ens.thetas[order].view(np.int64)
    # a dict over the members, not a sort: np.unique would import numpy.ma,
    # and lexsort and its run tests page in about 0.3 MB more numpy code
    row_of: dict[tuple[int, int, int], int] = {}
    first = []  # the position in ``order`` of each row's first member
    sorted_rows = []
    for i, member in enumerate(zip(codes.tolist(), bits[:, 0].tolist(), bits[:, 1].tolist())):
        row = row_of.setdefault(member, len(first))
        if row == len(first):
            first.append(i)
        sorted_rows.append(row)
    member_row = np.empty(order.size, dtype=np.int64)
    member_row[order] = sorted_rows
    rows = DistributionEnsemble(codes[first], ens.thetas[order[first]])
    return rows, np.bincount(member_row).astype(float), member_row


def _density_blocks(ens: DistributionEnsemble, x: np.ndarray):
    """Yield ``(cols, dens)`` over consecutive column blocks of ``x``.

    ``dens`` holds every member's density at ``x[cols]``, one row per
    member in the ensemble's own order: one ``log_pdf_grid`` call per run of
    consecutive members of one family, exponentiated in place.  Blocks are
    sized by ``_blocks``, so memory stays bounded whatever the member and
    point counts.  The passes of ``propagate``, ``mixture_density`` and the
    density metric run on an ensemble's ``_distinct_members``, whose rows
    come grouped by family, so a repeated member costs nothing and each
    family is one run.

    Each run's rows are validated, and their coefficients computed,
    once per call before the first block (an invalid row raises
    :class:`InvalidParameterError` there); every block hands them to
    ``log_pdf_grid`` through ``coef=``, so a block costs only the per-point
    features, the GEMM and the per-cell work.

    Every block is written into one buffer allocated per call, with two
    scratch planes for the term h of Logistic, Loglogistic and Weibull, so
    no block allocates (or faults in) a (members x points) array of its
    own: the next block overwrites the one just yielded.  Each block and
    scratch plane is a C-contiguous prefix view, never a column slice of a
    wider array, so the GEMM of ``log_pdf_grid`` runs on the same BLAS
    routine as on a fresh array and gives the same bits.
    """
    codes, thetas = ens.family_codes, ens.thetas
    # the first row of each run (np.unique would import numpy.ma)
    starts = np.flatnonzero(np.diff(codes, prepend=-1))
    runs = []
    for lo, hi in zip(starts, [*starts[1:], codes.size]):
        family = FAMILIES[codes[lo]]
        runs.append((lo, hi, family, _grid_coefficients(family, thetas[lo:hi])))
    rows = ens.n_members
    blocks = _blocks(x.size, rows)
    planes = np.empty((3, rows * (blocks[0].stop if blocks else 0)))
    for cols in blocks:
        cells = rows * (cols.stop - cols.start)
        dens, h, spare = (plane[:cells].reshape(rows, -1) for plane in planes)
        for lo, hi, family, coef in runs:
            scratch = (h[lo:hi], spare[lo:hi])
            log_pdf_grid(
                family, thetas[lo:hi], x[cols], out=dens[lo:hi], scratch=scratch, coef=coef
            )
        np.exp(dens, out=dens)
        yield cols, dens


def _member_mean(dens: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Mean over the members of a density block of distinct rows, c^T dens /
    n_d with c the rows' multiplicities and n_d their sum, as one GEMV
    (``_matmul``); with no repeats c is all ones."""
    return _matmul(counts, dens) / counts.sum()


def mixture_density(ens: DistributionEnsemble, x) -> np.ndarray | float:
    """Equal-weight mixture density of the ensemble members at ``x``: the
    importance-sampling density q of ``propagate``, by the same formula."""
    xa = np.asarray(x, dtype=float)
    flat = np.atleast_1d(xa).ravel()
    dens = np.empty(flat.size)
    rows, counts, _ = _distinct_members(ens)
    for cols, block in _density_blocks(rows, flat):
        dens[cols] = _member_mean(block, counts)
    return float(dens[0]) if xa.ndim == 0 else dens.reshape(xa.shape)


def sample_mixture(ens: DistributionEnsemble, rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw from the mixture: pick a member uniformly, then draw from it.

    The draws go family by family in ``FAMILIES`` order, each family's rows
    in ``_blocks`` chunks; consecutive ``sample_one_per`` calls on one
    generator give the bits of a single call, so the chunks only bound the
    memory of the per-row parameter copies."""
    if n < 1:
        raise ValueError("n must be >= 1")
    member = rng.integers(0, ens.n_members, size=n)
    codes = ens.family_codes[member]
    x = np.empty(n)
    for j, family in enumerate(FAMILIES):
        sel = np.flatnonzero(codes == j)
        for chunk in _blocks(sel.size, _SAMPLE_CELLS_PER_ROW):
            rows = sel[chunk]
            x[rows] = sample_one_per(family, ens.thetas[member[rows]], rng)
    return x


def propagate(
    ens: DistributionEnsemble,
    g: Callable[[np.ndarray], np.ndarray],
    n: int,
    rng: np.random.Generator,
    failure_threshold: float = FAILURE_THRESHOLD,
    x_samples: np.ndarray | None = None,
) -> PropagationResult:
    """Propagate every ensemble member through ``g`` with one sample set.

    Draws ``n`` points from the mixture, evaluates ``g`` once, and computes
    per-member mean, variance and failure probability P(g < threshold) by
    importance-sampling reweighting with weights w = p_i(x) / q(x); the
    variance is sum w (g - mean)^2 / n, which is never negative.
    ``x_samples`` reuses an existing mixture sample instead of drawing.
    ``n`` < 1 raises before ``g`` is called.

    Each distinct member density (``_distinct_members``) is evaluated once
    per point, its coefficients once per call: a block of points gives the
    (distinct members x points) density matrix, q = c^T dens / n_d from the
    members' multiplicities c (one GEMV), and every distinct member's
    weighted sums from one GEMM with the (points x 4) moment columns, each
    point's row divided by its q, so the weights p_i / q are never formed.
    A repeated member gets its row's sums.  Memory is x, g(x) and one block
    buffer (``_density_blocks``, whose next block overwrites the last, and
    the block's moment columns), not n_d x n or n x 4.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
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

    # Columns [1, g, (g - r)^2, 1{g < threshold}], r the sample mean of g,
    # built per block in one reused (points x 4) buffer and divided by q in
    # place: one GEMM per block gives every row's weight sum and the three
    # weighted sums at once.
    r = gv.mean()
    rows, counts, member_row = _distinct_members(ens)
    row_sums = np.zeros((rows.n_members, 4))
    buffer = np.empty((_blocks(n, rows.n_members)[0].stop, 4))  # the first, widest block
    for cols, dens in _density_blocks(rows, x):
        moments = buffer[: cols.stop - cols.start]
        g_block = gv[cols]
        moments[:, 0] = 1.0
        moments[:, 1] = g_block
        np.square(g_block - r, out=moments[:, 2])
        np.less(g_block, failure_threshold, out=moments[:, 3])
        moments /= _member_mean(dens, counts)[:, None]
        row_sums += _matmul(dens, moments)
    sums = row_sums[member_row]
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
