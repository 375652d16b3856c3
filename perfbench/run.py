"""Run one benchmark workload, or all of them, against the mmuq tree in src/.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--trajectory FILE --label TEXT]

Each repetition runs in a fresh interpreter (rep.py), so no memoized chain,
prior or evidence and no peak-RSS reading carries over.  Repetitions repeat
until the next one would end after ``--seconds``, with at least four per
run.  The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of BENCHMARK.json
untraced, its per-layer metrics traced).  The exit code is nonzero when any
correctness check fails.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
RUN_LIMIT_S = 170  # a run, repetitions included, must end within 180 s
SEEDS_PER_RUN = 3
MIN_REPS = SEEDS_PER_RUN + 1  # one repeat of the first seed; two of each kind traced


def run_rep(workload, seed: int, trace: bool, index: int, timeout: float) -> dict:
    tag = f"{workload.name}-s{seed}-r{index}"
    out_dir = OUT / tag
    config_path = OUT / f"{tag}.json"
    shutil.rmtree(out_dir, ignore_errors=True)
    OUT.mkdir(exist_ok=True)
    config_path.write_text(json.dumps(workload.config_for(seed, str(out_dir))))
    spec = {
        "src": str(SRC),
        "config": str(config_path),
        "stages": list(workload.stages),
        "trace": trace,
        "reaches": list(workload.reaches),
        "avoids": list(workload.avoids),
    }
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "rep.py"), json.dumps(spec)],
            capture_output=True,
            text=True,
            timeout=timeout,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{tag}: repetition killed after {timeout:.0f} s") from None
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        config_path.unlink(missing_ok=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{tag}: repetition exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def study_seed(seed: int, i: int) -> int:
    """Study seed of untraced repetition ``i`` of a run with ``seed``."""
    return seed + 100_000 * (i % SEEDS_PER_RUN)


def run_workload(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Repetitions of one workload.

    Untraced, they cycle through SEEDS_PER_RUN study seeds, so the medians
    cover several ensembles (whose family mix sets the density cost and
    peak memory) and every seed that repeats checks the CSV digest.
    Traced, all use ``seed`` and alternate untraced and traced, so counts
    repeat exactly.
    """
    reps: list[dict] = []
    start = time.perf_counter()
    while True:
        i = len(reps)
        traced = trace and i % 2 == 1
        rep_seed = seed if trace else study_seed(seed, i)
        t0 = time.perf_counter()
        rep = run_rep(workload, rep_seed, traced, i, RUN_LIMIT_S - (t0 - start))
        rep.update(traced=traced, seed=rep_seed)
        reps.append(rep)
        last = time.perf_counter() - t0
        if i + 1 >= MIN_REPS and time.perf_counter() - start + last > seconds:
            break

    checks = [c for rep in reps for c in rep["checks"]]
    first: dict[int, int] = {}
    for i, rep in enumerate(reps):
        j = first.setdefault(rep["seed"], i)
        if j != i:
            checks.append(
                {
                    "name": f"CSV digest of repetition {i} matches repetition {j} (seed {rep['seed']})",
                    "ok": rep["digest"] == reps[j]["digest"],
                    "detail": rep["digest"],
                }
            )
    plain = [r for r in reps if not r["traced"]]
    traced_reps = [r for r in reps if r["traced"]]
    med = statistics.median
    result = {
        "workload": workload.name,
        "seed": seed,
        "reps": len(reps),
        "checks": checks,
        "attempted": len(checks),
        "failed": sum(not c["ok"] for c in checks),
        "env": reps[0]["env"],
        "end_to_end": {
            key: med(r[key] for r in plain) for key in ("wall_s", "setup_s", "peak_rss_mb")
        },
        "pf_oracle_err": reps[0]["pf_oracle_err"],
        "rep_wall_s": [r["wall_s"] for r in reps],
    }
    if traced_reps:
        layers = {
            key: med(r["layers"][key] for r in traced_reps) for key in traced_reps[0]["layers"]
        }
        layers["trace.overhead_s"] = (
            med(r["wall_s"] for r in traced_reps) - result["end_to_end"]["wall_s"]
        )
        layers["pipeline.cpu_per_wall"] = med(r["cpu_per_wall"] for r in traced_reps)
        layers["propagation.pf_oracle_err"] = result["pf_oracle_err"] or 0.0
        result["per_layer"] = layers
        result["traced_wall_s"] = med(r["wall_s"] for r in traced_reps)
        result["self_s"] = {
            key: med(r["self_s"][key] for r in traced_reps) for key in traced_reps[0]["self_s"]
        }
    return result


def metric_block(declared: list[dict], values: dict) -> dict:
    names = {m["name"] for m in declared}
    if names != set(values):
        raise SystemExit(
            "measured metrics differ from BENCHMARK.json: "
            f"missing {sorted(names - set(values))}, undeclared {sorted(set(values) - names)}"
        )
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def print_run(result: dict, declared: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']}: {result['reps']} repetitions")
    for check in result["checks"]:
        if not check["ok"]:
            print(f"  FAILED check: {check['name']} ({check['detail']})")
    print(f"  failed_frac = {result['failed']}/{result['attempted']} ratio")
    print("  wall_s per repetition: " + " ".join(f"{w:.3f}" for w in result["rep_wall_s"]))
    if result["pf_oracle_err"] is not None:
        print(f"  pf_oracle_err = {result['pf_oracle_err']:.6g} probability")
    for m in declared["end_to_end"]:
        print(f"  {m['name']} = {result['end_to_end'][m['name']]:.6g} {m['unit']}")
    if "per_layer" in result:
        print(f"  traced wall_s = {result['traced_wall_s']:.6g} s")
        for m in declared["per_layer"]:
            print(f"  {m['name']} = {result['per_layer'][m['name']]:.6g} {m['unit']}")
        workload = WORKLOADS[result["workload"]]
        for text, ok in workload.profile(workload, result):
            print(f"  profile of today's code: {text} [{'as expected' if ok else 'DIFFERS'}]")
    print("  env " + json.dumps(result["env"], sort_keys=True))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=2018)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trajectory", type=Path, help="with --workload all: append the results")
    parser.add_argument("--label", default="", help="label of the appended trajectory entry")
    args = parser.parse_args()

    if not (SRC / "mmuq" / "__init__.py").is_file():
        print(f"no mmuq source tree at {SRC / 'mmuq'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"] if args.seconds is None else args.seconds

    if args.workload != "all":
        result = run_workload(WORKLOADS[args.workload], args.seed, seconds, bool(args.trace))
        print_run(result, declared)
        kind = "per_layer" if args.trace else "end_to_end"
        summary = {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": metric_block(declared[kind], result[kind]),
        }
        print(json.dumps(summary))
        return 0 if summary["correct"] else 1

    results = {}
    for name, workload in WORKLOADS.items():
        untraced = run_workload(workload, args.seed, seconds, trace=False)
        traced = run_workload(workload, args.seed, seconds, trace=True)
        for r in (untraced, traced):
            print_run(r, declared)
        results[name] = {"untraced": untraced, "traced": traced}
    print(f"{'workload':24} {'wall_s':>8} {'setup_s':>8} {'peak_rss_mb':>12} "
          f"{'failed_frac':>11} {'pf_oracle_err':>13} {'trace_overhead_s':>16}")
    for name, r in results.items():
        u = r["untraced"]
        pf = "-" if u["pf_oracle_err"] is None else f"{u['pf_oracle_err']:.6f}"
        print(f"{name:24} {u['end_to_end']['wall_s']:8.3f} {u['end_to_end']['setup_s']:8.3f} "
              f"{u['end_to_end']['peak_rss_mb']:12.1f} {u['failed']:>5}/{u['attempted']:<5} "
              f"{pf:>13} {r['traced']['per_layer']['trace.overhead_s']:16.3f}")
    print("units: wall_s s, setup_s s, peak_rss_mb MB, failed_frac ratio, "
          "pf_oracle_err probability, trace_overhead_s s")
    if args.trajectory is not None:
        entries = json.loads(args.trajectory.read_text()) if args.trajectory.exists() else []
        for r in results.values():
            for run in r.values():
                run["checks"] = [c for c in run["checks"] if not c["ok"]]
        entries.append({"label": args.label, "seed": args.seed, "seconds": seconds,
                        "workloads": results})
        args.trajectory.write_text(json.dumps(entries, indent=1) + "\n")
    ok = all(r[k]["failed"] == 0 for r in results.values() for k in r)
    return 0 if ok else 1


if __name__ == "__main__":
    try:
        code = main()
    finally:
        try:
            OUT.rmdir()
        except OSError:
            pass
    sys.exit(code)
