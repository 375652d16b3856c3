"""CSV persistence for datasets and result tables."""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Iterable, Sequence

from .distributions import Dataset

__all__ = ["write_dataset_csv", "write_table"]

DATASET_HEADER = "yield_ksi"


def write_dataset_csv(path: str | Path, dataset: Dataset) -> Path:
    """One value per row under a ``yield_ksi`` header, with 17 significant
    digits so that every value reads back bit for bit."""
    return write_table(path, (DATASET_HEADER,), ([format(v, ".17g")] for v in dataset.values))


def _fmt(value) -> str:
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def write_table(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """Write a CSV with deterministic float formatting (byte-stable across
    runs and worker counts)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(header))
        for row in rows:
            writer.writerow([_fmt(v) for v in row])
    return path
