"""Experiment configuration: the study grid, counts, seeds and file layout."""

from __future__ import annotations

import hashlib
import json
import numbers
from collections.abc import Iterable, Mapping
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .buckling import FAILURE_THRESHOLD, MEAN_PLATE, PlateConfig
from .distributions import FAMILIES, PARAM_DIM, ModelFamily
from .evidence import ModelPriorProbs, savvy_priors
from .mcmc import EnsembleConfig
from .priors import HISTORICAL_SOURCES

__all__ = [
    "ExperimentConfig",
    "PARAMETER_PRIOR_NAMES",
    "MODEL_PRIOR_NAMES",
    "NONINFORMATIVE",
    "model_prior_probs",
    "load_config",
]

NONINFORMATIVE = "noninformative"
PARAMETER_PRIOR_NAMES = (NONINFORMATIVE,) + tuple(HISTORICAL_SOURCES)
MODEL_PRIOR_NAMES = ("uniform", "strong_correct", "strong_incorrect", "savvy")

DEFAULT_SIZES = (10, 25, 50, 100, 500, 1000, 5000, 10000)

_STRONG = 0.9
_WEAK = (1.0 - _STRONG) / 6.0


def _as_int(name: str, value) -> int:
    """``value`` as an int if it is a whole number (JSON reads ``1e4`` as a
    float); otherwise a ValueError naming the field."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        if isinstance(value, numbers.Integral) or float(value).is_integer():
            return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def model_prior_probs(name: str, size: int) -> ModelPriorProbs:
    """Prior model probabilities of one named model prior for a dataset of
    ``size`` points (only "savvy" depends on it)."""
    m = len(FAMILIES)
    if name == "uniform":
        return ModelPriorProbs.uniform(m)
    if name == "savvy":
        return savvy_priors(size, np.full(m, float(PARAM_DIM)))
    if name == "strong_correct":
        favored = ModelFamily.LOGNORMAL
    elif name == "strong_incorrect":
        favored = ModelFamily.LOGLOGISTIC
    else:
        raise KeyError(f"unknown model prior {name!r}")
    pi = np.full(m, _WEAK)
    pi[FAMILIES.index(favored)] = _STRONG
    return ModelPriorProbs(pi)


@dataclass(frozen=True)
class ExperimentConfig:
    """One study run: which grid cells to compute and at what sampling cost."""

    name: str = "study"
    seed: int = 2018
    dataset_sizes: tuple[int, ...] = DEFAULT_SIZES
    parameter_priors: tuple[str, ...] = PARAMETER_PRIOR_NAMES
    model_priors: tuple[str, ...] = ("uniform",)
    n_k: int = 10_000
    n_d: int = 5000
    n_propagation: int = 100_000
    plate: PlateConfig = field(default_factory=lambda: MEAN_PLATE)
    failure_threshold: float = FAILURE_THRESHOLD
    output_dir: str = "out"
    workers: int = 1
    # ensemble-sampler settings (final inference and prior construction)
    chain_steps: int = 2000
    chain_burn_in: int = 500
    chain_walkers: int = 32
    pre_prior_steps: int = 1500
    pre_prior_burn_in: int = 500
    kde_max_components: int = 5000

    def __post_init__(self) -> None:
        # out_root is output_dir / name: the name must be one directory
        # (and a path with a NUL byte cannot be made)
        name = self.name
        if not isinstance(name, str) or name in ("", ".", "..") or "/" in name or "\0" in name:
            raise ValueError(
                f"name must be a non-empty string without '/' or NUL, not '.' or '..', got {name!r}"
            )
        if not isinstance(self.output_dir, str) or "\0" in self.output_dir:
            raise ValueError(f"output_dir must be a string without NUL, got {self.output_dir!r}")
        for f in fields(self):
            if f.type == "int":  # a string: annotations are postponed
                object.__setattr__(self, f.name, _as_int(f.name, getattr(self, f.name)))
        for axis in ("dataset_sizes", "parameter_priors", "model_priors"):
            values = getattr(self, axis)
            # a string would split into letters and a JSON object into its keys
            if isinstance(values, (str, Mapping)) or not isinstance(values, Iterable):
                raise ValueError(f"{axis} must be a list, got {values!r}")
            object.__setattr__(self, axis, tuple(values))
        object.__setattr__(
            self, "dataset_sizes", tuple(_as_int("dataset_sizes", s) for s in self.dataset_sizes)
        )
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if not self.dataset_sizes or min(self.dataset_sizes) < 1:
            raise ValueError("dataset_sizes must be nonempty positive integers")
        for p in self.parameter_priors:
            if p not in PARAMETER_PRIOR_NAMES:
                raise ValueError(f"unknown parameter prior {p!r}")
        for mp in self.model_priors:
            if mp not in MODEL_PRIOR_NAMES:
                raise ValueError(f"unknown model prior {mp!r}")
        if not self.parameter_priors or not self.model_priors:
            raise ValueError("prior selections must be nonempty")
        # a repeated entry would run, write and list the same grid cells twice
        for axis in ("dataset_sizes", "parameter_priors", "model_priors"):
            values = getattr(self, axis)
            if len(set(values)) != len(values):
                raise ValueError(f"{axis} has duplicate entries: {list(values)}")
        for count_name in ("n_k", "n_d", "n_propagation", "workers"):
            if getattr(self, count_name) < 1:
                raise ValueError(f"{count_name} must be >= 1")
        if self.kde_max_components < 2:
            raise ValueError("kde_max_components must be >= 2")
        t = self.failure_threshold
        if isinstance(t, bool) or not isinstance(t, numbers.Real) or not np.isfinite(t):
            raise ValueError(f"failure_threshold must be a finite number, got {t!r}")
        if not isinstance(self.plate, PlateConfig):
            raise ValueError(f"plate must be a PlateConfig (a JSON object), got {self.plate!r}")
        # build both sampler configs so bad walker or burn-in settings fail
        # here rather than in every grid cell
        for stage in ("chain", "pre_prior"):
            try:
                getattr(self, f"{stage}_config")
            except ValueError as err:
                raise ValueError(f"{stage} sampler settings: {err}") from None

    @property
    def chain_config(self) -> EnsembleConfig:
        """Ensemble settings for the posterior chain of every grid cell."""
        return EnsembleConfig(self.chain_walkers, self.chain_steps, self.chain_burn_in)

    @property
    def pre_prior_config(self) -> EnsembleConfig:
        """Ensemble settings for the historical-data chain behind each
        informative prior."""
        return EnsembleConfig(self.chain_walkers, self.pre_prior_steps, self.pre_prior_burn_in)

    @property
    def out_root(self) -> Path:
        return Path(self.output_dir) / self.name

    def cell_dir(self, size: int, param_prior: str, model_prior: str | None = None) -> Path:
        d = self.out_root / str(size) / param_prior
        return d if model_prior is None else d / model_prior

    def grid(self) -> list[tuple[int, str, str]]:
        return [
            (size, pp, mp)
            for size in self.dataset_sizes
            for pp in self.parameter_priors
            for mp in self.model_priors
        ]

    def to_dict(self) -> dict:
        return asdict(self)

    def config_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def load_config(path: str | Path) -> ExperimentConfig:
    """Read an ExperimentConfig from JSON; unknown keys are rejected."""
    raw = json.loads(Path(path).read_text())
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    unknown = set(raw) - set(ExperimentConfig.__dataclass_fields__)
    if unknown:
        raise ValueError(f"{path}: unknown config keys {sorted(unknown)}")
    if isinstance(raw.get("plate"), dict):
        try:
            raw["plate"] = PlateConfig(**raw["plate"])
        except TypeError as err:  # an unknown plate field
            raise ValueError(f"plate: {err}") from None
    return ExperimentConfig(**raw)
