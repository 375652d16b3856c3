"""Spans and counts recorded around the public functions of each mmuq module.

The pipeline binds most names with ``from .x import y``, so every wrapper is
installed where the name is looked up (``mmuq.pipeline.propagate``,
``mmuq.mcmc.log_likelihood_batch``, ...), not where it is defined.  Spans
(name, start, end, parent, thread) stay in memory; ``layer_metrics`` turns
them into the per-layer metrics after the timed stages end.
"""

from __future__ import annotations

import functools
import importlib
import os
import threading
import time
from collections import Counter, defaultdict

import numpy as np
from scipy.special import logsumexp


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent index or None, thread ident]
        self.spans: list[list] = []
        self.site_calls: Counter = Counter()
        self.sums: defaultdict = defaultdict(float)
        self.mins: dict = {}
        self.maxs: dict = {}
        self.originals: list[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def under(self, name: str) -> bool:
        """Whether a span called ``name`` is open on this thread."""
        return any(self.spans[i][0] == name for i in self._stack())

    def add(self, key: str, value: float) -> None:
        with self._lock:
            self.sums[key] += value

    def low(self, key: str, value: float) -> None:
        with self._lock:
            self.mins[key] = min(value, self.mins.get(key, np.inf))

    def high(self, key: str, value: float) -> None:
        with self._lock:
            self.maxs[key] = max(value, self.maxs.get(key, -np.inf))

    def wrap(self, site: str, span: str, fn, observe=None):
        """``fn`` recording a span named ``span`` per call; ``observe(args,
        result)`` runs after the span closes, still inside its parent."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            with self._lock:
                self.site_calls[site] += 1
                idx = len(self.spans)
                self.spans.append(
                    [span, 0.0, 0.0, stack[-1] if stack else None, threading.get_ident()]
                )
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans[idx][1:3] = [start, end]
            if observe is not None:
                observe(args, result)
            return result

        return traced


def split_rhat(chain: np.ndarray) -> float:
    """Largest split R-hat over parameters, each walker's trace split in
    two halves; ``chain`` is (steps, walkers, ndim)."""
    half = chain.shape[0] // 2
    if half < 2:
        return float("nan")
    halves = np.concatenate([chain[:half], chain[half : 2 * half]], axis=1)
    within = halves.var(axis=0, ddof=1).mean(axis=0)
    between = half * halves.mean(axis=0).var(axis=0, ddof=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        rhat = np.sqrt(((half - 1) / half * within + between / half) / within)
    return float(np.max(rhat))


def install(tracer: Tracer) -> None:
    """Wrap every traced mmuq name; ``uninstall`` restores the originals.
    A site that no longer exists is an error, so a rename cannot silently
    zero a layer."""
    t = tracer

    def rows(args):
        """Parameter rows of a ``(family or self, thetas, ...)`` call."""
        return int(np.atleast_2d(args[1]).shape[0])

    def on_prior_density(layer_key):
        def observe(args, result):
            n = rows(args)
            t.add(layer_key + ".rows", n)
            if t.under("mcmc.sample_posterior"):
                t.add("mcmc.posterior_rows", n)

        return observe

    def on_sampler(args, result):
        chain, rate = result
        cfg = args[2]
        t.low("mcmc.acceptance_min", rate)
        t.high("mcmc.rhat_max", split_rhat(chain[cfg.burn_in :]))

    def on_likelihood(args, result):
        t.add("distributions.log_likelihood_batch.rows", rows(args))
        if t.under("evidence.log_evidence_mc") and np.any(np.isfinite(result)):
            ess = np.exp(2.0 * logsumexp(result) - logsumexp(2.0 * result))
            t.low("evidence.ess_min", float(ess))

    def on_grid(args, result):
        cells = int(result.size)
        t.add("distributions.log_pdf_grid.cells", cells)
        if t.under("propagation.propagate"):
            t.add("propagation.density_cells", cells)

    def on_propagate(args, result):
        t.low("propagation.weight_mean_min", float(np.min(result.mean_weights)))
        t.high("propagation.weight_mean_max", float(np.max(result.mean_weights)))

    def on_response(args, result):
        t.add("buckling.response_points", int(np.size(args[0])))

    def table_writer(fn):
        traced = t.wrap("mmuq.pipeline.write_table", "io.write_table", fn)

        def write_table(path, header, rows_in):
            def counted():
                n = 0
                for row in rows_in:
                    n += 1
                    yield row
                t.add("io.write_table.rows", n)

            out = traced(path, header, counted())
            t.add("io.write_table.bytes", os.path.getsize(out))
            return out

        return write_table

    def response_factory(fn):
        def buckling_response(*args, **kwargs):
            g = fn(*args, **kwargs)
            return t.wrap("mmuq.buckling.buckling_response", "buckling.response", g, on_response)

        return buckling_response

    def plain(span, observe=None):
        return lambda site, fn: t.wrap(site, span, fn, observe)

    table = {
        "mmuq.pipeline.StudyPipeline.run_quantify": plain("pipeline.run_quantify"),
        "mmuq.pipeline.StudyPipeline.run_propagate": plain("pipeline.run_propagate"),
        "mmuq.pipeline.StudyPipeline.chain": plain("pipeline.chain"),
        "mmuq.pipeline.build_informative_prior": plain("priors.build_informative_prior"),
        "mmuq.priors.KdePrior.log_density_batch": plain(
            "priors.KdePrior.log_density_batch",
            on_prior_density("priors.KdePrior.log_density_batch"),
        ),
        "mmuq.priors.UniformBoxPrior.log_density_batch": plain(
            "priors.UniformBoxPrior.log_density_batch",
            on_prior_density("priors.UniformBoxPrior.log_density_batch"),
        ),
        "mmuq.pipeline.sample_posterior": plain("mcmc.sample_posterior"),
        "mmuq.priors.sample_posterior": plain("mcmc.sample_posterior"),
        "mmuq.mcmc.run_ensemble_sampler": plain("mcmc.run_ensemble_sampler", on_sampler),
        "mmuq.mcmc.log_likelihood_batch": plain(
            "distributions.log_likelihood_batch", on_likelihood
        ),
        "mmuq.evidence.log_likelihood_batch": plain(
            "distributions.log_likelihood_batch", on_likelihood
        ),
        "mmuq.distributions.log_likelihood_batch": plain(
            "distributions.log_likelihood_batch", on_likelihood
        ),
        "mmuq.propagation.log_pdf_grid": plain("distributions.log_pdf_grid", on_grid),
        "mmuq.metrics.log_pdf_grid": plain("distributions.log_pdf_grid", on_grid),
        "mmuq.propagation.sample_one_per": plain("distributions.sample_one_per"),
        "mmuq.pipeline.log_evidence_mc": plain("evidence.log_evidence_mc"),
        "mmuq.pipeline.information_criteria": plain("evidence.information_criteria"),
        "mmuq.pipeline.propagate": plain("propagation.propagate", on_propagate),
        "mmuq.pipeline.mixture_density": plain("propagation.mixture_density"),
        "mmuq.pipeline.draw_ensemble": plain("propagation.draw_ensemble"),
        "mmuq.buckling.buckling_response": lambda site, fn: response_factory(fn),
        "mmuq.buckling.response_moments": plain("buckling.response_moments"),
        "mmuq.buckling.pf_semianalytic": plain("buckling.pf_semianalytic"),
        "mmuq.metrics.avg_mean_square_distance": plain("metrics.avg_mean_square_distance"),
        "mmuq.metrics.EmpiricalCdf.from_samples": plain("metrics.cdf"),
        "mmuq.metrics.confidence_range": plain("metrics.cdf"),
        "mmuq.metrics.area_validation_metric": plain("metrics.cdf"),
        "mmuq.pipeline.write_table": lambda site, fn: table_writer(fn),
    }
    for site, make in table.items():
        owner, attr = _resolve(site)
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fn = getattr(owner, attr)  # bound for classmethods
        wrapped = make(site, fn)
        if isinstance(original, classmethod):
            wrapped = staticmethod(wrapped)
        tracer.originals.append((owner, attr, original))
        setattr(owner, attr, wrapped)


def uninstall(tracer: Tracer) -> None:
    for owner, attr, original in reversed(tracer.originals):
        setattr(owner, attr, original)
    tracer.originals = []


def _resolve(site: str):
    parts = site.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name)
        if not hasattr(owner, parts[-1]):
            raise AttributeError(f"traced name {site} does not exist")
        return owner, parts[-1]
    raise ModuleNotFoundError(site)


def _layer(span: str) -> str:
    return span.split(".", 1)[0]


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics from the recorded spans and counts, and the self
    time of every span name.

    ``*.self_s`` is a span's duration minus its direct children's; a name's
    ``total_s`` counts only spans with no open ancestor of the same name,
    and a layer's ``total_s`` only spans with no ancestor in that layer.
    """
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_time[parent] += end - start
    self_s: defaultdict = defaultdict(float)
    total_s: defaultdict = defaultdict(float)
    layer_total: defaultdict = defaultdict(float)
    calls: Counter = Counter()
    for i, (name, start, end, parent, _) in enumerate(spans):
        dur = end - start
        self_s[name] += dur - child_time[i]
        calls[name] += 1
        ancestors = []
        while parent is not None:
            ancestors.append(spans[parent][0])
            parent = spans[parent][3]
        if name not in ancestors:
            total_s[name] += dur
        if _layer(name) not in map(_layer, ancestors):
            layer_total[_layer(name)] += dur

    s = tracer.sums
    kde = "priors.KdePrior.log_density_batch"
    metrics = {
        "pipeline.chain_requests": calls["pipeline.chain"],
        f"{kde}.calls": calls[kde],
        f"{kde}.rows": s[f"{kde}.rows"],
        f"{kde}.self_s": self_s[kde],
        "priors.build_informative_prior.total_s": total_s["priors.build_informative_prior"],
        "mcmc.sample_posterior.calls": calls["mcmc.sample_posterior"],
        "mcmc.sample_posterior.total_s": total_s["mcmc.sample_posterior"],
        "mcmc.sample_posterior.self_s": self_s["mcmc.sample_posterior"],
        "mcmc.posterior_rows": s["mcmc.posterior_rows"],
        "mcmc.acceptance_min": tracer.mins.get("mcmc.acceptance_min", 0.0),
        "mcmc.rhat_max": tracer.maxs.get("mcmc.rhat_max", 0.0),
        "distributions.log_likelihood_batch.rows": s["distributions.log_likelihood_batch.rows"],
        "distributions.log_likelihood_batch.self_s": self_s["distributions.log_likelihood_batch"],
        "distributions.log_pdf_grid.cells": s["distributions.log_pdf_grid.cells"],
        "distributions.log_pdf_grid.self_s": self_s["distributions.log_pdf_grid"],
        "distributions.sample_one_per.self_s": self_s["distributions.sample_one_per"],
        "evidence.log_evidence_mc.total_s": total_s["evidence.log_evidence_mc"],
        "evidence.ess_min": tracer.mins.get("evidence.ess_min", 0.0),
        "evidence.information_criteria.total_s": total_s["evidence.information_criteria"],
        "propagation.propagate.total_s": total_s["propagation.propagate"],
        "propagation.propagate.self_s": self_s["propagation.propagate"],
        "propagation.density_cells": s["propagation.density_cells"],
        "propagation.mixture_density.total_s": total_s["propagation.mixture_density"],
        "propagation.draw_ensemble.total_s": total_s["propagation.draw_ensemble"],
        "propagation.weight_mean_min": tracer.mins.get("propagation.weight_mean_min", 0.0),
        "propagation.weight_mean_max": tracer.maxs.get("propagation.weight_mean_max", 0.0),
        "buckling.response_points": s["buckling.response_points"],
        "buckling.total_s": layer_total["buckling"],
        "metrics.avg_mean_square_distance.total_s": total_s["metrics.avg_mean_square_distance"],
        "metrics.cdf.total_s": total_s["metrics.cdf"],
        "io.write_table.calls": calls["io.write_table"],
        "io.write_table.rows": s["io.write_table.rows"],
        "io.write_table.bytes": s["io.write_table.bytes"],
        "io.write_table.total_s": total_s["io.write_table"],
    }
    return metrics, dict(self_s)
