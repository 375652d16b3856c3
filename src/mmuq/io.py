"""CSV persistence for datasets and result tables."""

from __future__ import annotations

import csv
import math
from pathlib import Path
from typing import Iterable, Sequence

from .distributions import Dataset

__all__ = ["DatasetFormatError", "read_dataset_csv", "write_dataset_csv", "write_table"]

DATASET_HEADER = "yield_ksi"


class DatasetFormatError(ValueError):
    """A dataset CSV is malformed."""


def read_dataset_csv(path: str | Path) -> Dataset:
    """Parse a single-column CSV (header + one number per row) into a
    Dataset, preserving row order.  Malformed rows (not one number, or a
    non-finite one) are reported with their line number."""
    path = Path(path)
    values: list[float] = []
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DatasetFormatError(f"{path}: file is empty") from None
        if len(header) != 1:
            raise DatasetFormatError(f"{path}: expected a single column header")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 1:
                raise DatasetFormatError(f"{path}:{lineno}: expected one value per row")
            try:
                value = float(row[0])
            except ValueError:
                raise DatasetFormatError(
                    f"{path}:{lineno}: not a number: {row[0]!r}"
                ) from None
            if not math.isfinite(value):
                raise DatasetFormatError(f"{path}:{lineno}: non-finite value {row[0]!r}")
            values.append(value)
    if not values:
        raise DatasetFormatError(f"{path}: no data rows")
    return Dataset(values, label=path.stem)


def write_dataset_csv(path: str | Path, dataset: Dataset) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([DATASET_HEADER])
        for v in dataset.values:
            writer.writerow([format(v, ".17g")])
    return path


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
