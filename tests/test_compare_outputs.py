"""The outputs report (``tools/compare_outputs.py``) on two small trees."""

import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"


def write(root: Path, rel: str, text: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def run(*args) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(TOOL), *map(str, args)], capture_output=True, text=True
    )


def test_report_names_each_csv_and_its_largest_differences(tmp_path):
    old, new = tmp_path / "old", tmp_path / "new"
    same = "size,value\n10,0.5\n"
    write(old, "a/model_probs.csv", same)
    write(new, "a/model_probs.csv", same)
    write(old, "a/metrics_output.csv", "stat,value,note\nmean,1.0,x\nvar,2.0,y\npf,3.0,z\n")
    write(new, "a/metrics_output.csv", "stat,value,note\nmean,1.0,x\nvar,2.5,w\npf,3.00001,z\n")
    write(old, "b/gone.csv", same)
    write(new, "b/added.csv", same)
    write(old, "b/reformatted.csv", "value\n1.0\n")
    write(new, "b/reformatted.csv", "value\n1.00\n")
    write(old, "b/header.csv", "value\n1\n")
    write(new, "b/header.csv", "other\n1\n")
    done = run(old, new)
    assert done.returncode == 0
    assert done.stdout.splitlines() == [
        "a/metrics_output.csv",
        "  value: 2 of 3 rows differ, max abs 0.5 (row 2), max rel 0.2 (row 2)",
        "  note: 1 of 3 rows differ, 1 as text",
        "identical a/model_probs.csv",
        f"only in {new}: b/added.csv",
        f"only in {old}: b/gone.csv",
        "b/header.csv",
        "  header differs",
        "b/reformatted.csv",
        "  same cells, different bytes",
        f"3 of 4 CSVs differ; 1 only in {old}, 1 only in {new}",
    ]


def test_report_exits_0_on_a_missing_root(tmp_path):
    write(tmp_path / "new", "x.csv", "value\n1\n")
    done = run(tmp_path / "missing", tmp_path / "new")
    assert done.returncode == 0
    assert done.stdout.splitlines() == [
        f"{tmp_path / 'missing'} is not a directory",
        f"only in {tmp_path / 'new'}: x.csv",
        f"0 of 0 CSVs differ; 0 only in {tmp_path / 'missing'}, 1 only in {tmp_path / 'new'}",
    ]
