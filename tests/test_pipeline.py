"""Experiment runner: file contracts, grid behavior, CLI exit codes."""

import csv
import hashlib
import json
import logging
import os
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from scipy.stats import spearmanr

from conftest import generalized_bic_weights
from mmuq import distributions as distributions_module, pipeline as pipeline_module
from mmuq.buckling import PlateConfig, pf_semianalytic
from mmuq.cli import main
from mmuq.config import MODEL_PRIOR_NAMES, ExperimentConfig, load_config, model_prior_probs
from mmuq.distributions import FAMILIES, ModelFamily, params_from_moments
from mmuq.evidence import aic_weights, information_criteria, savvy_priors
from mmuq.io import write_dataset_csv
from mmuq.mcmc import DegenerateChainError, EnsembleConfig
from mmuq.pipeline import StudyPipeline
from mmuq.propagation import propagate


def read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def read_values(path: Path) -> list[float]:
    """The values of a dataset CSV written by ``write_dataset_csv``."""
    return [float(r["yield_ksi"]) for r in read_csv(path)]


@pytest.fixture(scope="session")
def study(tmp_path_factory):
    """One medium desk-scale study shared by the read-only assertions."""
    out = tmp_path_factory.mktemp("study")
    cfg = ExperimentConfig(
        name="desk",
        seed=31,
        dataset_sizes=(10, 50, 500),
        parameter_priors=("noninformative", "ABS-B"),
        model_priors=("uniform", "savvy"),
        n_k=1500,
        n_d=400,
        n_propagation=20_000,
        chain_steps=700,
        chain_burn_in=200,
        pre_prior_steps=600,
        pre_prior_burn_in=200,
        kde_max_components=2000,
        output_dir=str(out),
    )
    pipeline = StudyPipeline(cfg)
    quantify = pipeline.run_quantify()
    propagate = pipeline.run_propagate()
    return cfg, pipeline, quantify, propagate


class TestIngestDataset:
    def test_round_trip_preserves_values(self, tmp_path, rng):
        from mmuq.distributions import Dataset

        original = Dataset(rng.normal(34.0, 4.0, 17), label="rt")
        path = write_dataset_csv(tmp_path / "rt.csv", original)
        np.testing.assert_array_equal(read_values(path), original.values)


class TestQuantifyOutputs:
    def test_grid_complete_and_tables_normalized(self, study):
        cfg, _, quantify, _ = study
        assert quantify.all_ok
        for size, pp, mp in cfg.grid():
            rows = read_csv(cfg.cell_dir(size, pp, mp) / "model_probs.csv")
            assert len(rows) == 7
            assert {r["model"] for r in rows} == {f.value for f in FAMILIES}
            total = sum(float(r["posterior_prob"]) for r in rows)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_savvy_cells_reproduce_aic_weights(self, study):
        cfg, pipeline, _, _ = study
        size = 50
        rows = read_csv(cfg.cell_dir(size, "noninformative", "savvy") / "model_probs.csv")
        got = np.array([float(r["posterior_prob"]) for r in rows])
        aics = np.array(
            [information_criteria(f, pipeline.dataset(size))[0] for f in FAMILIES]
        )
        np.testing.assert_allclose(got, aic_weights(aics), atol=1e-6)

    def test_savvy_probs_are_generalized_bic_weights_bitwise(self, study):
        cfg, pipeline, _, _ = study
        for size in cfg.dataset_sizes:
            bics = pipeline.bics(size)
            probs = pipeline.posterior_probs(size, "ABS-B", "savvy")
            want = generalized_bic_weights(bics, savvy_priors(size, np.full(7, 2.0)))
            np.testing.assert_array_equal(probs.pi_hat, want)
            np.testing.assert_array_equal(probs.log_evidence, -bics / 2.0)

    def test_chain_summaries_cover_all_models(self, study):
        cfg, _, _, _ = study
        rows = read_csv(cfg.cell_dir(50, "ABS-B") / "chain_summary.csv")
        assert {r["model"] for r in rows} == {f.value for f in FAMILIES}
        for r in rows:
            assert 0.0 < float(r["acceptance_rate"]) < 1.0

    def test_density_distance_decays_with_data(self, study):
        # correct prior: the member densities tighten onto the truth
        cfg, _, quantify, _ = study
        sizes = (10, 50, 500)
        deltas = [
            quantify.cell(s, "ABS-B", "uniform").metric_rows[0][-1] for s in sizes
        ]
        rho = spearmanr(sizes, deltas).statistic
        assert rho < -0.8
        assert deltas[-1] < deltas[0]

    def test_historical_inputs_written(self, study):
        cfg, _, _, _ = study
        path = cfg.out_root / "data" / "historical" / "ABS-B.csv"
        assert len(read_values(path)) == 79

    def test_osd_density_integrates_near_one(self, study):
        cfg, _, _, _ = study
        rows = read_csv(cfg.cell_dir(500, "ABS-B", "uniform") / "osd_density.csv")
        x = np.array([float(r["sigma0"]) for r in rows])
        q = np.array([float(r["mixture_density"]) for r in rows])
        # the grid window [15, 65] carries nearly all member mass at n=500
        assert np.trapezoid(q, x) == pytest.approx(1.0, abs=0.01)


class TestPropagateOutputs:
    def test_mean_psi_cdf_brackets_truth(self, study):
        cfg, _, _, propagate = study
        rows = read_csv(cfg.cell_dir(50, "ABS-B", "uniform") / "cdf_mean_psi.csv")
        values = np.array([float(r["value"]) for r in rows])
        lo, hi = np.quantile(values, [0.025, 0.975])
        assert lo <= 0.62089 <= hi

    def test_member_stats_schema(self, study):
        cfg, _, _, _ = study
        rows = read_csv(cfg.cell_dir(10, "ABS-B", "uniform") / "member_stats.csv")
        assert len(rows) == cfg.n_d
        assert list(rows[0]) == ["member_id", "model", "mean_psi", "var_psi", "pf"]
        pfs = np.array([float(r["pf"]) for r in rows])
        assert np.all((pfs >= 0.0) & (pfs <= 1.5))

    def test_metrics_table_schema(self, study):
        cfg, _, _, propagate = study
        rows = read_csv(cfg.cell_dir(50, "ABS-B", "uniform") / "metrics_output.csv")
        metrics = {(r["metric"], r["statistic"]) for r in rows}
        for stat in ("mean_psi", "var_psi", "pf"):
            assert ("confidence_range", stat) in metrics
            assert ("area_validation", stat) in metrics
        assert all(float(r["value"]) >= 0.0 for r in rows)

    def test_per_member_pf_matches_semianalytic_oracle(self, study):
        cfg, pipeline, _, _ = study
        from mmuq.buckling import buckling_response, pf_semianalytic
        from mmuq.propagation import propagate
        from mmuq.seeding import rng_for

        ens = pipeline.ensemble(50, "ABS-B", "uniform")
        res = propagate(
            ens,
            buckling_response(cfg.plate),
            10**5,
            rng_for(cfg.seed, "pf-oracle-check"),
            failure_threshold=cfg.failure_threshold,
        )
        oracle = np.array(
            [
                pf_semianalytic(*ens.member(i), cfg.failure_threshold, cfg.plate)
                for i in range(ens.n_members)
            ]
        )
        assert np.median(np.abs(res.pfs - oracle)) < 0.003

    def test_degenerate_single_member_ensemble_gives_step_cdfs(self, tmp_path):
        cfg = ExperimentConfig(
            name="step",
            seed=9,
            dataset_sizes=(10,),
            parameter_priors=("noninformative",),
            model_priors=("uniform",),
            n_k=200,
            n_d=1,
            n_propagation=2000,
            chain_steps=250,
            chain_burn_in=60,
            output_dir=str(tmp_path),
        )
        pipeline = StudyPipeline(cfg)
        assert pipeline.run_propagate().all_ok
        rows = read_csv(cfg.cell_dir(10, "noninformative", "uniform") / "cdf_mean_psi.csv")
        assert len(rows) == 1 and float(rows[0]["cum_prob"]) == 1.0


class TestManifest:
    def test_records_informative_priors_and_chains(self, study):
        cfg, _, _, _ = study
        manifest = json.loads((cfg.out_root / "manifest_quantify.json").read_text())
        priors = manifest["informative_priors"]
        assert set(priors) == {f"ABS-B/{f.value}" for f in FAMILIES}
        for key, entry in priors.items():
            assert entry["family"] == key.split("/")[1]
            assert 1 <= entry["n_components"] <= cfg.kde_max_components
            assert len(entry["bandwidths"]) == 2
            assert all(w > 0.0 for w in entry["bandwidths"])
        chains = manifest["chains"]
        assert set(chains) == {
            f"{size}/{pp}/{f.value}"
            for size in cfg.dataset_sizes
            for pp in cfg.parameter_priors
            for f in FAMILIES
        }
        for entry in chains.values():
            assert entry["seconds"] > 0.0
            assert 0.0 < entry["acceptance_rate"] < 1.0


    def test_records_propagation_diagnostics(self, study):
        cfg, _, _, _ = study
        manifest = json.loads((cfg.out_root / "manifest_propagate.json").read_text())
        stats = manifest["propagation"]
        assert set(stats) == {
            f"{size}/{pp}/{mp}"
            for size in cfg.dataset_sizes
            for pp in cfg.parameter_priors
            for mp in cfg.model_priors
        }
        for entry in stats.values():
            assert entry["seconds"] > 0.0
            assert 0.0 < entry["mean_weight_min"] <= entry["mean_weight_max"]

    @pytest.mark.parametrize("skewed_weight", [0.5, 1.5])
    def test_mean_weight_outside_band_is_logged(
        self, skewed_weight, tmp_path, monkeypatch, caplog
    ):
        cfg = ExperimentConfig(
            name="weights",
            seed=9,
            dataset_sizes=(10,),
            parameter_priors=("noninformative",),
            model_priors=("uniform",),
            n_k=200,
            n_d=5,
            n_propagation=500,
            chain_steps=250,
            chain_burn_in=60,
            output_dir=str(tmp_path),
        )

        def skewed(*args, **kwargs):
            result = propagate(*args, **kwargs)
            result.mean_weights[0] = skewed_weight
            return result

        monkeypatch.setattr(pipeline_module, "propagate", skewed)
        with caplog.at_level(logging.WARNING, logger="mmuq.pipeline"):
            assert StudyPipeline(cfg).run_propagate().all_ok
        assert "outside [0.95, 1.05]" in caplog.text
        manifest = json.loads((cfg.out_root / "manifest_propagate.json").read_text())
        entry = manifest["propagation"]["10/noninformative/uniform"]
        assert skewed_weight in (entry["mean_weight_min"], entry["mean_weight_max"])


class TestFailureIsolation:
    def test_failing_cell_does_not_block_the_grid(self, tmp_path, monkeypatch):
        cfg = ExperimentConfig(
            name="faulty",
            seed=3,
            dataset_sizes=(10, 25),
            parameter_priors=("noninformative",),
            model_priors=("uniform",),
            n_k=200,
            n_d=50,
            chain_steps=250,
            chain_burn_in=60,
            output_dir=str(tmp_path),
        )
        original = StudyPipeline.log_evidences

        def sabotaged(self, size, param_prior):
            if size == 10:
                raise RuntimeError("boom")
            return original(self, size, param_prior)

        monkeypatch.setattr(StudyPipeline, "log_evidences", sabotaged)
        report = StudyPipeline(cfg).run_quantify()
        assert not report.cell(10, "noninformative", "uniform").ok
        assert "boom" in report.cell(10, "noninformative", "uniform").detail
        assert report.cell(25, "noninformative", "uniform").ok
        manifest = json.loads((cfg.out_root / "manifest_quantify.json").read_text())
        assert {g["ok"] for g in manifest["grid"]} == {True, False}


def csv_digests(root: Path) -> dict[str, str]:
    return {
        str(f.relative_to(root)): hashlib.sha256(f.read_bytes()).hexdigest()
        for f in sorted(root.rglob("*.csv"))
    }


def count_calls(monkeypatch, name: str, log: Path) -> None:
    """Append a line to ``log`` on every call of ``mmuq.pipeline.<name>``;
    forked workers inherit the wrapper and append to the same file."""
    original = getattr(pipeline_module, name)

    def counted(*args, **kwargs):
        with log.open("a") as fh:
            fh.write(name + "\n")
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline_module, name, counted)


# The functions behind the pipeline's stored artifacts.
BUILDERS = (
    "sample_posterior",
    "log_evidence_mc",
    "information_criteria",
    "draw_ensemble",
    "build_informative_prior",
)


def tiny_grid(out: Path, workers: int, **overrides) -> ExperimentConfig:
    fields = dict(
        name="tiny",
        seed=4,
        dataset_sizes=(10, 25),
        parameter_priors=("noninformative", "ABS-B"),
        model_priors=("uniform", "savvy"),
        n_k=200,
        n_d=40,
        n_propagation=1000,
        chain_steps=100,
        chain_burn_in=30,
        pre_prior_steps=100,
        pre_prior_burn_in=30,
        kde_max_components=200,
        output_dir=str(out),
        workers=workers,
    )
    fields.update(overrides)
    return ExperimentConfig(**fields)


@pytest.fixture(scope="module")
def serial_and_forked(tmp_path_factory):
    """The same 2-size x {noninformative, ABS-B} grid quantified and
    propagated on 1 process and on 2, counting in each stage the calls of
    every builder behind a stored artifact and recording the keys of the
    pipeline's store after it."""
    runs = {}
    for workers in (1, 2):
        out = tmp_path_factory.mktemp(f"workers{workers}")
        log = out / "calls.log"
        cfg = tiny_grid(out / "study", workers)
        counts = {}
        built = {}
        with pytest.MonkeyPatch.context() as mp:
            for name in BUILDERS:
                count_calls(mp, name, log)
            pipeline = StudyPipeline(cfg)
            for stage in ("quantify", "propagate"):
                assert getattr(pipeline, f"run_{stage}")().all_ok
                counts[stage] = Counter(log.read_text().splitlines() if log.exists() else [])
                built[stage] = set(pipeline._built)
                log.unlink(missing_ok=True)
        manifests = {
            stage: json.loads((cfg.out_root / f"manifest_{stage}.json").read_text())
            for stage in ("quantify", "propagate")
        }
        runs[workers] = (cfg, csv_digests(out / "study"), manifests, counts, built)
    return runs


class TestWorkerProcesses:
    def test_outputs_byte_identical_across_worker_counts(self, serial_and_forked):
        _, serial, serial_manifests, _, _ = serial_and_forked[1]
        _, forked, forked_manifests, _, _ = serial_and_forked[2]
        assert len(serial) > 0 and serial == forked
        for stage in ("quantify", "propagate"):
            assert set(serial_manifests[stage]["chains"]) == set(forked_manifests[stage]["chains"])
        assert set(forked_manifests["propagate"]["propagation"]) == set(
            serial_manifests["propagate"]["propagation"]
        )

    def test_informative_priors_built_once_per_run(self, tmp_path, monkeypatch):
        # Two ABS-B panels, one in the worker and one in the caller: each
        # would build all seven priors if they were not built before the fork.
        log = tmp_path / "calls.log"
        count_calls(monkeypatch, "build_informative_prior", log)
        cfg = tiny_grid(
            tmp_path / "study", 2, parameter_priors=("ABS-B",), model_priors=("uniform",)
        )
        assert StudyPipeline(cfg).run_quantify().all_ok
        assert len(log.read_text().splitlines()) == len(FAMILIES)

    def test_propagate_reuses_chains_from_workers(self, serial_and_forked):
        # After a forked quantify, every artifact a worker built is merged
        # back, so propagate builds none again.
        for workers in (1, 2):
            cfg, _, _, counts, _ = serial_and_forked[workers]
            panels = len(cfg.dataset_sizes) * len(cfg.parameter_priors)
            assert counts["quantify"]["sample_posterior"] == panels * len(FAMILIES)
            propagate = {name: counts["propagate"][name] for name in BUILDERS}
            assert propagate == dict.fromkeys(BUILDERS, 0)

    def test_store_keys_equal_across_worker_counts(self, serial_and_forked):
        # Every artifact and manifest record a worker adds (evidences
        # included, which propagate never asks for again) must reach the
        # caller's store.
        serial = serial_and_forked[1][4]
        forked = serial_and_forked[2][4]
        for stage in ("quantify", "propagate"):
            assert serial[stage] and forked[stage] == serial[stage]

    def test_worker_only_size_reaches_the_caller(self, tmp_path):
        # With one parameter prior the worker runs the n=10 panel alone, so
        # bics(10) and the n=10 evidences exist in the caller only if
        # the worker's store entries are merged back.
        keys = {}
        for workers in (1, 2):
            cfg = tiny_grid(tmp_path / str(workers), workers, parameter_priors=("noninformative",))
            pipeline = StudyPipeline(cfg)
            assert pipeline.run_quantify().all_ok
            keys[workers] = set(pipeline._built)
        assert ("bics", 10) in keys[2] and keys[2] == keys[1]

    def test_manifest_records_processes_and_panels(self, serial_and_forked):
        for workers in (1, 2):
            cfg, _, manifests, _, _ = serial_and_forked[workers]
            for manifest in manifests.values():
                assert manifest["workers"] == workers
                panels = manifest["panels"]
                assert set(panels) == {
                    f"{size}/{pp}" for size in cfg.dataset_sizes for pp in cfg.parameter_priors
                }
                assert all(p["seconds"] > 0.0 for p in panels.values())
                processes = {p["process"] for p in panels.values()}
                assert processes == ({"caller"} if workers == 1 else {"caller", "worker"})

    @pytest.mark.parametrize(
        "bad_size, process, detail",
        [(10, "worker", "terminated abruptly"), (25, "caller", "boom")],
    )
    def test_dead_worker_fails_only_its_panel(
        self, bad_size, process, detail, tmp_path, monkeypatch
    ):
        # The first panel goes to the worker and the second to the caller.
        cfg = tiny_grid(
            tmp_path, 2, parameter_priors=("noninformative",), model_priors=("uniform",)
        )
        caller = os.getpid()
        original = StudyPipeline.log_evidences

        def sabotaged(self, size, param_prior):
            if size == bad_size:
                if os.getpid() != caller:
                    os._exit(1)
                raise RuntimeError("boom")
            return original(self, size, param_prior)

        monkeypatch.setattr(StudyPipeline, "log_evidences", sabotaged)
        report = StudyPipeline(cfg).run_quantify()
        bad = report.cell(bad_size, "noninformative", "uniform")
        assert not bad.ok and detail in bad.detail
        good_size = 25 if bad_size == 10 else 10
        assert report.cell(good_size, "noninformative", "uniform").ok
        manifest = json.loads((cfg.out_root / "manifest_quantify.json").read_text())
        assert {g["ok"] for g in manifest["grid"]} == {True, False}
        assert manifest["panels"][f"{bad_size}/noninformative"]["process"] == process

    def test_dead_worker_leaves_its_running_sibling_alone(self, tmp_path, monkeypatch):
        # Two children run the n=10 and n=25 panels and the caller the n=50
        # one.  The n=10 child dies while the n=25 child is still inside
        # log_evidences; only the n=10 panel may fail.
        cfg = tiny_grid(
            tmp_path, 3, dataset_sizes=(10, 25, 50),
            parameter_priors=("noninformative",), model_priors=("uniform",),
        )
        original = StudyPipeline.log_evidences

        def sabotaged(self, size, param_prior):
            if size == 10:
                os._exit(1)
            if size == 25:
                time.sleep(1.0)
            return original(self, size, param_prior)

        monkeypatch.setattr(StudyPipeline, "log_evidences", sabotaged)
        report = StudyPipeline(cfg).run_quantify()
        bad = report.cell(10, "noninformative", "uniform")
        assert not bad.ok and "terminated abruptly" in bad.detail
        assert report.cell(25, "noninformative", "uniform").ok
        assert report.cell(50, "noninformative", "uniform").ok
        manifest = json.loads((cfg.out_root / "manifest_quantify.json").read_text())
        assert manifest["panels"]["10/noninformative"] == {"seconds": None, "process": "worker"}
        assert manifest["panels"]["25/noninformative"]["process"] == "worker"
        assert manifest["panels"]["50/noninformative"]["process"] == "caller"


class TestChainsOnDemand:
    def test_failing_chain_of_an_undrawn_family_fails_no_cell(
        self, tmp_path, monkeypatch, caplog
    ):
        # At n=25 Weibull keeps a small positive probability but none of
        # the 40 members draws it, so only the chain summary asks for its
        # chain.
        cfg = tiny_grid(
            tmp_path, 1, dataset_sizes=(25,),
            parameter_priors=("noninformative",), model_priors=("uniform",),
        )
        original = pipeline_module.sample_posterior

        def sabotaged(family, *args):
            if family is ModelFamily.WEIBULL:
                raise DegenerateChainError("stuck chain")
            return original(family, *args)

        monkeypatch.setattr(pipeline_module, "sample_posterior", sabotaged)
        assert StudyPipeline(cfg).run_propagate().all_ok
        pipeline = StudyPipeline(cfg)
        with caplog.at_level(logging.ERROR, logger="mmuq.pipeline"):
            assert pipeline.run_quantify().all_ok
        weibull = FAMILIES.index(ModelFamily.WEIBULL)
        assert pipeline.posterior_probs(25, "noninformative", "uniform").pi_hat[weibull] > 0.0
        assert weibull not in pipeline.ensemble(25, "noninformative", "uniform").family_codes
        rows = read_csv(cfg.cell_dir(25, "noninformative") / "chain_summary.csv")
        assert {r["model"] for r in rows} == {f.value for f in FAMILIES} - {"Weibull"}
        assert "chain summary" in caplog.text and "stuck chain" in caplog.text

    @pytest.mark.parametrize("workers", [1, 2])
    def test_propagate_only_builds_the_drawn_chains_alone(
        self, workers, serial_and_forked, tmp_path
    ):
        cfg = tiny_grid(tmp_path / "study", workers)
        pipeline = StudyPipeline(cfg)
        assert pipeline.run_propagate().all_ok
        drawn = {
            f"{size}/{pp}/{FAMILIES[j].value}"
            for size, pp, mp in cfg.grid()
            for j in np.unique(pipeline.ensemble(size, pp, mp).family_codes)
        }
        built = {f"{k[1]}/{k[2]}/{k[3].value}" for k in pipeline._built if k[0] == "chain"}
        manifest = json.loads((cfg.out_root / "manifest_propagate.json").read_text())
        assert built == drawn == set(manifest["chains"])
        panels = len(cfg.dataset_sizes) * len(cfg.parameter_priors)
        assert len(drawn) < panels * len(FAMILIES)
        # the same propagate CSVs as after a quantify that built every chain
        after_quantify = serial_and_forked[1][1]
        alone = csv_digests(tmp_path / "study")
        assert len(alone) == 5 * len(list(cfg.grid()))
        assert alone == {k: after_quantify[k] for k in alone}


def classic_rhat(samples: np.ndarray, walkers: int) -> np.ndarray:
    """Gelman-Rubin R-hat of each parameter across the walkers of a
    step-major (steps x walkers, 2) sample."""
    chains = samples.reshape(-1, walkers, 2)
    steps = chains.shape[0]
    within = chains.var(axis=0, ddof=1).mean(axis=0)
    between = steps * chains.mean(axis=0).var(axis=0, ddof=1)
    return np.sqrt(((steps - 1) / steps * within + between / steps) / within)


class TestGammaChainMixes:
    # Open defect: under the noninformative prior the Gamma walkers do not
    # mix; R-hat (shape, scale) reads (20.5, 12.4), (116.3, 9.8) and
    # (70.7, 14.9) at these sizes.  A sampler that mixes flips this.
    @pytest.mark.xfail(raises=AssertionError, reason="the Gamma chain does not mix")
    @pytest.mark.parametrize("n", [100, 1000, 10**4])
    def test_noninformative_gamma_rhat(self, n):
        pipeline = StudyPipeline(ExperimentConfig())
        chain = pipeline.chain(n, "noninformative", ModelFamily.GAMMA)
        rhat = classic_rhat(chain.samples, pipeline.config.chain_walkers)
        assert np.all(rhat < 1.05), rhat


class TestCli:
    def write_config(self, tmp_path) -> Path:
        cfg = {
            "name": "cli",
            "seed": 12,
            "dataset_sizes": [10],
            "parameter_priors": ["noninformative"],
            "model_priors": ["uniform"],
            "n_k": 150,
            "n_d": 40,
            "n_propagation": 1500,
            "chain_steps": 250,
            "chain_burn_in": 60,
            "output_dir": str(tmp_path / "out"),
        }
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        return path

    def test_quantify_exit_zero_and_single_cell_table(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        assert main(["quantify", "--config", str(config)]) == 0
        rows = read_csv(tmp_path / "out" / "cli" / "10" / "noninformative" / "uniform" / "model_probs.csv")
        assert len(rows) == 7
        assert sum(float(r["posterior_prob"]) for r in rows) == pytest.approx(1.0, abs=1e-9)
        assert "ok" in capsys.readouterr().out

    def test_gen_data_writes_datasets(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        assert main(["gen-data", "--config", str(config)]) == 0
        data = tmp_path / "out" / "cli" / "data"
        assert len(read_values(data / "synthetic" / "yield_n10.csv")) == 10
        assert len(read_values(data / "historical" / "ASTM-A7.csv")) == 58

    def test_flag_overrides(self, tmp_path):
        config = self.write_config(tmp_path)
        out2 = tmp_path / "other"
        assert main(["quantify", "--config", str(config), "--out", str(out2), "--seed", "77"]) == 0
        assert (out2 / "cli" / "10" / "noninformative" / "uniform" / "model_probs.csv").exists()

    def assert_rejected(self, capsys, argv, match):
        """``main`` exits 2 with one ``mmuq: ...`` line naming the fault."""
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("mmuq: ") and err.count("\n") == 1
        assert match in err

    def test_rejected_config_writes_nothing(self, tmp_path, capsys):
        config = self.write_config(tmp_path)
        config.write_text(json.dumps({**json.loads(config.read_text()), "n_d": 100.5}))
        self.assert_rejected(capsys, ["quantify", "--config", str(config)], "n_d must be an integer")
        assert not (tmp_path / "out").exists()

    def test_rejected_config_exits_2_without_traceback(self, tmp_path):
        # the installed script's path: sys.exit(main()) in a fresh process;
        # a rejected config, and a config path that cannot be read
        config = self.write_config(tmp_path)
        config.write_text(json.dumps({**json.loads(config.read_text()), "n_d": 100.5}))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        for path, message in (
            (config, "n_d must be an integer"),
            (tmp_path / "missing.json", "No such file or directory"),
            (tmp_path, "Is a directory"),
        ):
            run = subprocess.run(
                [sys.executable, "-m", "mmuq.cli", "quantify", "--config", str(path)],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert run.returncode == 2, run.stderr
            assert "Traceback" not in run.stderr
            assert run.stderr.startswith("mmuq: ") and run.stderr.count("\n") == 1
            assert message in run.stderr
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["quantify", "propagate", "gen-data"])
    def test_out_naming_a_file_exits_2_with_one_line(self, command, tmp_path, capsys):
        # it used to exit 1 with a NotADirectoryError traceback; propagate
        # only after running every cell
        config = self.write_config(tmp_path)
        out = tmp_path / "a_file"
        out.write_text("keep")
        self.assert_rejected(capsys, [command, "--config", str(config), "--out", str(out)],
                             "Not a directory")
        assert out.read_text() == "keep"

    def test_nul_in_name_exits_2_without_traceback(self, tmp_path):
        # the installed script's path; the name used to load and then fail
        # with "ValueError: embedded null byte" at the first mkdir
        config = self.write_config(tmp_path)
        config.write_text(json.dumps({**json.loads(config.read_text()), "name": "a\0b"}))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        run = subprocess.run(
            [sys.executable, "-m", "mmuq.cli", "quantify", "--config", str(config)],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert run.returncode == 2, run.stderr
        assert "Traceback" not in run.stderr
        assert run.stderr.startswith("mmuq: ") and run.stderr.count("\n") == 1
        assert "name must be a non-empty string without '/' or NUL" in run.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "bad, match",
        [
            ({"failure_threshold": float("nan")}, "failure_threshold must be a finite number"),
            ({"plate": {"b": float("nan")}}, "plate b must be a finite positive number"),
        ],
        ids=["failure_threshold", "plate"],
    )
    def test_rejected_threshold_or_plate_writes_nothing(self, bad, match, tmp_path, capsys):
        # a NaN threshold used to exit 0 from propagate with every pf 0
        config = self.write_config(tmp_path)
        config.write_text(json.dumps({**json.loads(config.read_text()), **bad}))
        for stage in ("quantify", "propagate"):
            self.assert_rejected(capsys, [stage, "--config", str(config)], match)
        assert not (tmp_path / "out").exists()

    def test_single_process_propagate_loads_neither_multiprocessing_nor_numpy_ma(self, tmp_path):
        # multiprocessing is imported only to fork, and the propagate stage
        # runs no np.unique or np.quantile, which import numpy.ma
        cfg = {
            "name": "lazy", "dataset_sizes": [100], "parameter_priors": ["noninformative"],
            "model_priors": ["strong_correct"], "chain_steps": 200, "chain_burn_in": 50,
            "n_k": 500, "n_d": 100, "n_propagation": 2000,
        }
        config = tmp_path / "lazy.json"
        config.write_text(json.dumps(cfg))
        script = """
import json, sys
from mmuq.cli import main
code = main(["propagate", "--config", sys.argv[1], "--out", sys.argv[2]])
loaded = sorted(
    m for m in sys.modules
    if m.split(".")[0] == "multiprocessing" or m.split(".")[:2] == ["numpy", "ma"]
)
print(json.dumps([code, loaded]))
"""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        run = subprocess.run(
            [sys.executable, "-c", script, str(config), str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout.splitlines()[-1]) == [0, []]
        assert list((tmp_path / "out").rglob("metrics_output.csv"))

    def test_study_never_imports_scipy(self, tmp_path, monkeypatch):
        # mmuq's own Brent root, Nelder-Mead and special functions stand in
        # for scipy's: a study, and the pf oracle on every family, must run
        # with scipy unimportable
        cfg = {
            "name": "lean", "dataset_sizes": [100],
            "parameter_priors": ["noninformative", "ABS-B"], "model_priors": ["uniform", "savvy"],
            "chain_steps": 200, "chain_burn_in": 50, "pre_prior_steps": 300,
            "pre_prior_burn_in": 100, "kde_max_components": 2000,
            "n_k": 500, "n_d": 100, "n_propagation": 2000,
        }
        config = tmp_path / "lean.json"
        config.write_text(json.dumps(cfg))
        script = """
import json, sys
sys.modules["scipy"] = None  # any scipy import now raises ImportError
from mmuq import FAMILIES, distributions, evidence, special
from mmuq.buckling import pf_semianalytic
from mmuq.cli import main

reached = set()
for module, name in (
    (distributions, "_brentq"), (evidence, "_nelder_mead"), (evidence, "logsumexp"),
    *((special, f) for f in ("gammaln", "gamma", "ndtr", "log_ndtr", "gammainc", "expit")),
):
    def spy(*args, _real=getattr(module, name), _name=name, **kwargs):
        reached.add(_name)
        return _real(*args, **kwargs)
    setattr(module, name, spy)
codes = [main([stage, "--config", sys.argv[1], "--out", sys.argv[2]])
         for stage in ("quantify", "propagate")]
pf = [pf_semianalytic(f, distributions.params_from_moments(f, 34.782, 0.116), 0.6) for f in FAMILIES]
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy" and sys.modules[m] is not None)
print(json.dumps([codes, sorted(reached), pf, scipy]))
"""
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        run = subprocess.run(
            [sys.executable, "-c", script, str(config), str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert run.returncode == 0, run.stderr
        codes, reached, pf, scipy_modules = json.loads(run.stdout.splitlines()[-1])
        assert codes == [0, 0]
        assert reached == sorted(
            ["_brentq", "_nelder_mead", "logsumexp", "gammaln", "gamma", "ndtr", "log_ndtr", "gammainc", "expit"]
        )
        assert scipy_modules == []
        # the oracle's pf, the same on scipy.special: its bits where the cdf
        # runs on ports only, within gammainc's and log_ndtr's accuracy
        monkeypatch.setattr(distributions_module, "special", scipy.special)
        want = [
            pf_semianalytic(f, params_from_moments(f, 34.782, 0.116), 0.6) for f in FAMILIES
        ]
        assert all(0.0 < p < 1.0 for p in want), want
        np.testing.assert_allclose(pf, want, rtol=1e-10, atol=0.0)
        for family, got, oracle in zip(FAMILIES, pf, want):
            if family not in (ModelFamily.GAMMA, ModelFamily.INVERSE_GAUSSIAN):
                assert got == oracle, family

    def test_partial_failure_exit_code(self, tmp_path, monkeypatch):
        config = self.write_config(tmp_path)

        def explode(self, size, param_prior):
            raise RuntimeError("dead cell")

        monkeypatch.setattr(StudyPipeline, "log_evidences", explode)
        assert main(["quantify", "--config", str(config)]) == 2


class TestConfig:
    def test_json_round_trip(self, tmp_path):
        cfg = ExperimentConfig(dataset_sizes=(10, 25), model_priors=("uniform", "savvy"))
        path = tmp_path / "c.json"
        path.write_text(json.dumps(cfg.to_dict()))
        back = load_config(path)
        assert back == cfg
        assert back.config_hash() == cfg.config_hash()

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"seed": 1, "bogus": 2}))
        with pytest.raises(ValueError, match="bogus"):
            load_config(path)

    def test_invalid_selections_rejected(self):
        with pytest.raises(ValueError):
            ExperimentConfig(parameter_priors=("ABS-Q",))
        with pytest.raises(ValueError):
            ExperimentConfig(model_priors=())
        with pytest.raises(ValueError):
            ExperimentConfig(dataset_sizes=())

    @pytest.mark.parametrize(
        "bad",
        [
            {"dataset_sizes": [25, 25]},
            {"dataset_sizes": [10, 25, 10]},
            {"parameter_priors": ["noninformative", "noninformative"]},
            {"model_priors": ["uniform", "savvy", "uniform"]},
        ],
    )
    def test_duplicate_selections_rejected(self, bad, tmp_path):
        # each duplicate used to be a repeated grid cell, run and written
        # twice and listed twice in the manifest
        axis = next(iter(bad))
        with pytest.raises(ValueError, match=f"{axis} has duplicate"):
            ExperimentConfig(**bad)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ValueError, match=f"{axis} has duplicate"):
            load_config(path)

    @pytest.mark.parametrize(
        "bad",
        [
            {"model_priors": "uniform"},
            {"parameter_priors": "ABS-B"},
            {"dataset_sizes": 100},
            {"dataset_sizes": 100.0},
            {"model_priors": {"uniform": 1}},
            {"parameter_priors": {"ABS-B": 1}},
            {"model_priors": None},
            {"dataset_sizes": None},
        ],
        ids=["model_priors", "parameter_priors", "dataset_sizes-int", "dataset_sizes-float",
             "model_priors-object", "parameter_priors-object", "model_priors-null",
             "dataset_sizes-null"],
    )
    def test_grid_axis_given_a_scalar_rejected(self, bad, tmp_path):
        # a string used to be split into one-letter names ("unknown model
        # prior 'u'"), a JSON object taken as its keys, and a number or null
        # to fail with a TypeError
        axis = next(iter(bad))
        with pytest.raises(ValueError, match=f"{axis} must be a list"):
            ExperimentConfig(**bad)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ValueError, match=f"{axis} must be a list"):
            load_config(path)

    @pytest.mark.parametrize(
        "bad, match",
        [
            ({"failure_threshold": float("nan")}, "failure_threshold must be a finite number"),
            ({"failure_threshold": float("inf")}, "failure_threshold must be a finite number"),
            ({"failure_threshold": "0.6"}, "failure_threshold must be a finite number"),
            ({"failure_threshold": None}, "failure_threshold must be a finite number"),
            ({"failure_threshold": True}, "failure_threshold must be a finite number"),
            ({"plate": [1, 2]}, "plate must be a PlateConfig"),
            ({"plate": 5}, "plate must be a PlateConfig"),
            ({"plate": None}, "plate must be a PlateConfig"),
        ],
        ids=["threshold-nan", "threshold-inf", "threshold-string", "threshold-null",
             "threshold-bool", "plate-list", "plate-number", "plate-null"],
    )
    def test_bad_threshold_or_plate_rejected(self, bad, match, tmp_path):
        # a NaN threshold used to run with every pf 0, a string or null one
        # to fail every propagate cell; a list or number plate raised a
        # TypeError that did not name it, and a null plate took the default
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(**bad)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ValueError, match=match):
            load_config(path)

    @pytest.mark.parametrize(
        "bad, match",
        [
            ({"name": 5}, "name must be a non-empty string"),
            ({"name": None}, "name must be a non-empty string"),
            ({"name": ""}, "name must be a non-empty string"),
            ({"name": "."}, "name must be a non-empty string"),
            ({"name": ".."}, "name must be a non-empty string"),
            ({"name": "a/b"}, "name must be a non-empty string"),
            ({"name": "/abs"}, "name must be a non-empty string"),
            ({"name": "a\0b"}, "name must be a non-empty string without '/' or NUL"),
            ({"output_dir": 5}, "output_dir must be a string"),
            ({"output_dir": None}, "output_dir must be a string"),
            ({"output_dir": ["out"]}, "output_dir must be a string"),
            ({"output_dir": "o\0ut"}, "output_dir must be a string without NUL"),
        ],
        ids=["name-number", "name-null", "name-empty", "name-dot", "name-dotdot",
             "name-nested", "name-absolute", "name-nul", "output_dir-number",
             "output_dir-null", "output_dir-list", "output_dir-nul"],
    )
    def test_bad_name_or_output_dir_rejected(self, bad, match, tmp_path):
        # a number or null used to load and then fail at Path(output_dir) / name
        # with a TypeError; a name with a '/' or of '..' left the output root,
        # and one with a NUL byte loaded and then failed at the first mkdir
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(**bad)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ValueError, match=match):
            load_config(path)

    @pytest.mark.parametrize(
        "plate, match",
        [
            ({"b": float("nan")}, "plate b must be a finite positive number"),
            ({"E": float("inf")}, "plate E must be a finite positive number"),
            ({"t": "0.75"}, "plate t must be a finite positive number"),
            ({"eta": None}, "plate eta must be a finite positive number"),
            ({"thickness": 0.75}, "plate: .*thickness"),
        ],
        ids=["nan", "inf", "string", "null", "unknown-field"],
    )
    def test_bad_plate_field_rejected(self, plate, match, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"plate": plate}))
        with pytest.raises(ValueError, match=match):
            load_config(path)

    def test_plate_object_loads(self, tmp_path):
        plate = PlateConfig(b=30.0, t=0.5)
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"plate": {"b": 30.0, "t": 0.5}, "failure_threshold": 1}))
        cfg = load_config(path)
        assert cfg.plate == plate and cfg.failure_threshold == 1

    def test_default_config_hash_unchanged(self):
        assert ExperimentConfig().config_hash().startswith("da06ba2b")

    @pytest.mark.parametrize(
        "name",
        ["seed", "n_k", "n_d", "n_propagation", "workers", "chain_steps", "chain_burn_in",
         "chain_walkers", "pre_prior_steps", "pre_prior_burn_in", "kde_max_components",
         "dataset_sizes"],
    )
    def test_integer_fields_take_whole_numbers_only(self, name, tmp_path):
        # each of these used to pass construction and then fail every grid
        # cell, or (dataset_sizes) run a truncated size without a word
        default = getattr(ExperimentConfig(), name)
        value = default[-1] if name == "dataset_sizes" else default
        field = (lambda v: [v]) if name == "dataset_sizes" else (lambda v: v)
        # JSON reads 1e4 or 10000.0 as a float
        path = tmp_path / "c.json"
        path.write_text(json.dumps({name: field(float(value))}))
        loaded = load_config(path)
        want = ExperimentConfig(**{name: field(value)})
        assert loaded == want and loaded.config_hash() == want.config_hash()
        for bad in (value + 0.5, float("nan"), float("inf"), str(value), True):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                ExperimentConfig(**{name: field(bad)})

    @pytest.mark.parametrize(
        "bad, match",
        [
            ({"kde_max_components": 1}, "kde_max_components"),
            ({"kde_max_components": 0}, "kde_max_components"),
            ({"kde_max_components": -1}, "kde_max_components"),
            ({"kde_max_components": -2}, "kde_max_components"),
            ({"chain_walkers": 7}, "chain sampler"),
            ({"chain_walkers": 2}, "chain sampler"),
            ({"chain_burn_in": 0}, "chain sampler"),
            ({"chain_steps": 500}, "chain sampler"),
            ({"pre_prior_burn_in": 1500}, "pre_prior sampler"),
        ],
    )
    def test_bad_sampler_settings_rejected_at_construction(self, bad, match, tmp_path):
        # these used to be accepted and then fail every grid cell at run time
        with pytest.raises(ValueError, match=match):
            ExperimentConfig(**bad)
        path = tmp_path / "c.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ValueError, match=match):
            load_config(path)

    def test_sampler_configs_follow_fields(self):
        cfg = ExperimentConfig(
            chain_walkers=16,
            chain_steps=300,
            chain_burn_in=100,
            pre_prior_steps=400,
            pre_prior_burn_in=50,
        )
        assert cfg.chain_config == EnsembleConfig(n_walkers=16, n_steps=300, burn_in=100)
        assert cfg.pre_prior_config == EnsembleConfig(n_walkers=16, n_steps=400, burn_in=50)

    def test_model_prior_tables(self):
        uni = model_prior_probs("uniform", 50)
        np.testing.assert_allclose(uni.pi, np.full(7, 1 / 7), rtol=1e-12)
        sc = model_prior_probs("strong_correct", 50)
        assert sc.pi[4] == pytest.approx(0.9)  # Lognormal slot
        si = model_prior_probs("strong_incorrect", 50)
        assert si.pi[3] == pytest.approx(0.9)  # Loglogistic slot
        assert sc.pi.sum() == pytest.approx(1.0, abs=1e-15)
        for size in (10, 1000):
            for name in MODEL_PRIOR_NAMES:
                assert model_prior_probs(name, size).pi.shape == (7,)
            # every family has K = 2 parameters
            np.testing.assert_array_equal(
                model_prior_probs("savvy", size).pi, savvy_priors(size, np.full(7, 2.0)).pi
            )
        with pytest.raises(KeyError):
            model_prior_probs("flat", 50)
