"""One repetition of a workload in a fresh interpreter.

Usage: python3 rep.py SPEC_JSON.  The spec names the mmuq source tree, the
config file to load, the StudyPipeline stages to time and, for a traced
repetition, the patch sites that must and must not be called.  Prints one
JSON object on its last stdout line.
"""

import time

T0 = time.perf_counter()

import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

spec = json.loads(sys.argv[1])
sys.path.insert(0, spec["src"])

import mmuq  # noqa: E402
from mmuq.config import load_config  # noqa: E402
from mmuq.pipeline import StudyPipeline  # noqa: E402

if not Path(mmuq.__file__).resolve().is_relative_to(Path(spec["src"]).resolve()):
    sys.exit(f"imported mmuq from {mmuq.__file__}, not from {spec['src']}")

config = load_config(spec["config"])
pipeline = StudyPipeline(config)
for size in config.dataset_sizes:
    pipeline.dataset(size)
setup_s = time.perf_counter() - T0

import numpy as np  # noqa: E402

tracer = None
if spec["trace"]:
    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)

cpu0 = os.times()
start = time.perf_counter()
reports = [getattr(pipeline, stage)() for stage in spec["stages"]]
wall_s = time.perf_counter() - start
cpu1 = os.times()
peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
if tracer is not None:
    tracing.uninstall(tracer)

checks = []


def check(name, ok, detail=""):
    checks.append({"name": name, "ok": bool(ok), "detail": detail})


for report in reports:
    for c in report.cells:
        check(f"{report.stage} cell {c.size}/{c.param_prior}/{c.model_prior} ok", c.ok, c.detail)

root = config.out_root


def column(path, name):
    with path.open(newline="") as fh:
        return [float(row[name]) for row in csv.DictReader(fh)]


for path in sorted(root.rglob("model_probs.csv")):
    total = math.fsum(column(path, "posterior_prob"))
    check(f"{path.relative_to(root)} sums to 1", abs(total - 1.0) <= 1e-9, repr(total))

pf_oracle_err = None
for c in [c for r in reports if r.stage == "propagate" for c in r.cells if c.ok]:
    ens = pipeline.ensemble(c.size, c.param_prior, c.model_prior)
    path = config.cell_dir(c.size, c.param_prior, c.model_prior) / "member_stats.csv"
    pf = np.array(column(path, "pf"))
    oracle = np.array(
        [mmuq.pf_semianalytic(fam, theta, config.failure_threshold, config.plate) for fam, theta in ens]
    )
    err = float(np.median(np.abs(pf - oracle)))
    pf_oracle_err = err if pf_oracle_err is None else max(pf_oracle_err, err)
    check(f"{path.relative_to(root)} pf_oracle_err < 0.003", err < 0.003, repr(err))

if tracer is not None:
    for site in spec["reaches"]:
        n = tracer.site_calls[site]
        check(f"traced {site} is called", n > 0, f"{n} calls")
    for site in spec["avoids"]:
        n = tracer.site_calls[site]
        check(f"traced {site} is not called", n == 0, f"{n} calls")


def environment():
    """What the timings depend on besides the code: cores, versions, the
    BLAS build and any thread-count variables."""
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {
            k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")
        },
    }


digest = hashlib.sha256()
for path in sorted(root.rglob("*.csv")):
    digest.update(str(path.relative_to(root)).encode() + b"\0")
    digest.update(path.read_bytes())

result = {
    "setup_s": setup_s,
    "wall_s": wall_s,
    "peak_rss_mb": peak_rss_mb,
    "cpu_per_wall": (cpu1.user + cpu1.system - cpu0.user - cpu0.system) / wall_s,
    "pf_oracle_err": pf_oracle_err,
    "digest": digest.hexdigest(),
    "checks": checks,
    "env": environment(),
}
if tracer is not None:
    result["layers"], result["self_s"] = tracing.layer_metrics(tracer)
print(json.dumps(result))
