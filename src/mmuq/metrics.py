"""Evaluation metrics for distribution ensembles and output statistics.

Three measures: the average mean-square distance between an ensemble's
member densities and a reference density, the 95% confidence range of an
empirical CDF (difference of the 2.5% and 97.5% quantiles), and the area
validation metric (area between an empirical CDF and the step function at
the true value).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import ModelFamily, _matmul, log_pdf_grid
from .propagation import DistributionEnsemble, _density_blocks

__all__ = [
    "EmpiricalCdf",
    "CoarseGridError",
    "default_sigma0_grid",
    "avg_mean_square_distance",
    "confidence_range",
    "area_validation_metric",
]

MIN_CONFIDENCE_POINTS = 40


class CoarseGridError(RuntimeError):
    """Metric integral is not converged on the supplied grid."""


@dataclass(frozen=True)
class EmpiricalCdf:
    """Step CDF of a sample: sorted values, the k-th at cumulative probability k/n."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", v)
        if v.ndim != 1 or v.size < 1:
            raise ValueError("values must be a nonempty vector")
        if np.any(np.diff(v) < 0.0):
            raise ValueError("values must be sorted ascending")

    @classmethod
    def from_samples(cls, samples) -> "EmpiricalCdf":
        return cls(np.sort(np.asarray(samples, dtype=float)))

    @property
    def n(self) -> int:
        return int(self.values.size)

    @property
    def probs(self) -> np.ndarray:
        return np.arange(1, self.n + 1) / self.n


def default_sigma0_grid() -> np.ndarray:
    """Yield-strength grid (ksi) covering all materials with margin: 2001
    points from 15 to 65."""
    return np.linspace(15.0, 65.0, 2001)


def _trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    """Weights w with ``w @ f`` the trapezoid integral of f over ``grid``."""
    step = np.diff(grid)
    w = np.zeros(grid.size)
    w[1:] += step
    w[:-1] += step
    w *= 0.5
    return w


def _member_square_distance(
    ens: DistributionEnsemble, truth_density: np.ndarray, x: np.ndarray, weights: np.ndarray
) -> np.ndarray:
    """Sum over members of the integral of (p - truth)^2 under each column
    of the (points x k) quadrature ``weights`` on ``x``: one evaluation of
    every member density, one matrix product per density block."""
    total = np.zeros(weights.shape[1])
    for cols, dens in _density_blocks(ens, x):
        dens -= truth_density[cols]
        dens *= dens
        total += np.sum(_matmul(dens, weights[cols]), axis=0)
    return total


def avg_mean_square_distance(
    ens: DistributionEnsemble,
    truth: tuple[ModelFamily, np.ndarray],
    grid: np.ndarray | None = None,
) -> float:
    """Half the mean, over members, of the integrated squared difference
    between member density and the reference density.

    The integral uses the trapezoid rule on ``grid``, a finite, strictly
    ascending 1-D array of at least 2 points (anything else raises
    ``ValueError``).  Each density is evaluated once, on ``grid`` with every
    interval's midpoint added, and the trapezoid integral on that refined
    grid must agree within 1% (else ``CoarseGridError``).
    """
    if grid is None:
        grid = default_sigma0_grid()
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError(f"grid must be 1-D with at least 2 points, got shape {grid.shape}")
    if not np.all(np.isfinite(grid)):
        raise ValueError("grid holds non-finite values")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("grid must be strictly ascending")
    x = np.empty(2 * grid.size - 1)
    x[::2] = grid
    x[1::2] = 0.5 * (grid[:-1] + grid[1:])
    weights = np.zeros((x.size, 2))
    weights[::2, 0] = _trapezoid_weights(grid)
    weights[:, 1] = _trapezoid_weights(x)
    fam, theta = truth
    p_true = np.exp(log_pdf_grid(fam, np.asarray(theta)[None, :], x)[0])
    delta, delta_fine = 0.5 * _member_square_distance(ens, p_true, x, weights) / ens.n_members
    scale = max(abs(delta_fine), abs(delta))
    if scale > 0.0 and abs(delta_fine - delta) > 0.01 * scale:
        raise CoarseGridError(
            f"density distance changed {delta:.6g} -> {delta_fine:.6g} "
            "on refinement; use a finer grid"
        )
    return float(delta)


def confidence_range(cdf: EmpiricalCdf) -> float:
    """95% confidence range: 97.5% quantile minus 2.5% quantile, with linear
    interpolation between order statistics."""
    if cdf.n < MIN_CONFIDENCE_POINTS:
        raise ValueError(
            f"need at least {MIN_CONFIDENCE_POINTS} points for quantile resolution, "
            f"got {cdf.n}"
        )
    lo, hi = np.quantile(cdf.values, [0.025, 0.975])
    return float(hi - lo)


def area_validation_metric(cdf: EmpiricalCdf, truth: float) -> float:
    """Area between the empirical CDF and the unit step at ``truth``.

    Left of ``truth`` the CDF lies on or above the step and right of it on
    or below, so the area is exactly the mean of |v - truth| over the
    sample.
    """
    return float(np.mean(np.abs(cdf.values - truth)))
