"""Compare the CSVs of two mmuq output trees.

Usage: python3 tools/compare_outputs.py OLD_ROOT NEW_ROOT

Matches the CSVs under the two roots by relative path and prints one line
per CSV: ``identical`` when its bytes are the same, otherwise its path
followed, per column that differs, by the number of rows that differ and
the largest absolute and relative difference with the row (1-based, after
the header) that holds it.  A cell that is not a number counts as a text
difference.  CSVs under one root only are listed as such, and a last line
sums up.

A report, not a gate: it exits 0 whatever differs, because the last bits of
the BLAS products behind the outputs depend on the BLAS build and the CPU.
Standard library only.
"""

from __future__ import annotations

import csv
import math
import sys
from pathlib import Path


def _csvs(root: Path) -> set[str]:
    """The relative paths of the CSVs under ``root``; none if it is not a
    directory."""
    return {p.relative_to(root).as_posix() for p in root.rglob("*.csv")}


def _read(path: Path) -> list[list[str]]:
    with path.open(newline="") as fh:
        return list(csv.reader(fh))


def _number(cell: str) -> float | None:
    try:
        return float(cell)
    except ValueError:
        return None


def _difference(a: str, b: str) -> tuple[float, float] | None:
    """(absolute, relative) difference of two numeric cells, None when one
    is not a number.  Equal cells, NaN against NaN among them, differ by 0;
    a NaN or an infinity against any other number by inf."""
    x, y = _number(a), _number(b)
    if x is None or y is None:
        return None
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0, 0.0
    diff = abs(x - y)
    if not math.isfinite(diff):
        return math.inf, math.inf
    return diff, diff / max(abs(x), abs(y))


def compare_csv(old: Path, new: Path) -> list[str]:
    """The report lines of one CSV present under both roots: empty when the
    bytes are the same."""
    if old.read_bytes() == new.read_bytes():
        return []
    a, b = _read(old), _read(new)
    if not a or not b or a[0] != b[0]:
        return ["  header differs"]
    lines = [] if len(a) == len(b) else [f"  rows: {len(a) - 1} old, {len(b) - 1} new"]
    for col, name in enumerate(a[0]):
        rows = text = 0
        worst_abs = worst_rel = (0.0, 0)
        for row, (ra, rb) in enumerate(zip(a[1:], b[1:]), start=1):
            ca = ra[col] if col < len(ra) else ""
            cb = rb[col] if col < len(rb) else ""
            diff = _difference(ca, cb)
            if diff == (0.0, 0.0) or ca == cb:
                continue
            rows += 1
            if diff is None:
                text += 1
                continue
            worst_abs = max(worst_abs, (diff[0], row), key=lambda d: d[0])
            worst_rel = max(worst_rel, (diff[1], row), key=lambda d: d[0])
        if not rows:
            continue
        line = f"  {name}: {rows} of {min(len(a), len(b)) - 1} rows differ"
        if rows > text:
            line += (
                f", max abs {worst_abs[0]:.3g} (row {worst_abs[1]}),"
                f" max rel {worst_rel[0]:.3g} (row {worst_rel[1]})"
            )
        if text:
            line += f", {text} as text"
        lines.append(line)
    return lines or ["  same cells, different bytes"]


def report(old_root: Path, new_root: Path) -> list[str]:
    """The report lines for every CSV under either root."""
    old, new = _csvs(old_root), _csvs(new_root)
    lines = [f"{root} is not a directory" for root in (old_root, new_root) if not root.is_dir()]
    moved = 0
    for rel in sorted(old | new):
        if rel not in new:
            lines.append(f"only in {old_root}: {rel}")
        elif rel not in old:
            lines.append(f"only in {new_root}: {rel}")
        else:
            diff = compare_csv(old_root / rel, new_root / rel)
            moved += bool(diff)
            lines.append(rel if diff else f"identical {rel}")
            lines.extend(diff)
    both = len(old & new)
    lines.append(
        f"{moved} of {both} CSVs differ; {len(old - new)} only in {old_root}, "
        f"{len(new - old)} only in {new_root}"
    )
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    print("\n".join(report(Path(argv[0]), Path(argv[1]))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
