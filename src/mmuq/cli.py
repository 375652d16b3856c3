"""Command-line entry point for the study runner.

Subcommands: ``quantify`` (model probabilities, chain summaries, density
metrics), ``propagate`` (response statistics and output metrics) and
``gen-data`` (write the synthetic and historical datasets).  Flags override
config-file values.  Exit code 0 means every grid cell succeeded; 2 means
some cells failed (see the log and the run manifest), the config file could
not be read or was rejected (nothing is written), or a stage could not
write under the output root (an ``OSError``, such as an ``--out`` that
names a file); the last two print one ``mmuq: <reason>`` line on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import sys

from .config import ExperimentConfig, load_config
from .pipeline import StudyPipeline

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmuq",
        description="Bayesian multimodel uncertainty quantification and propagation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("quantify", "model probabilities, chain summaries and density metrics"),
        ("propagate", "response statistics, CDFs and output metrics"),
        ("gen-data", "write synthetic and historical datasets"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", help="JSON experiment config")
        cmd.add_argument("--seed", type=int, help="override the experiment seed")
        cmd.add_argument("--out", help="override the output directory")
        cmd.add_argument(
            "--workers",
            type=int,
            metavar="N",
            help="processes running (size, parameter prior) panels: this one "
            "plus up to N-1 forked children, one per panel; outputs do not "
            "depend on it",
        )
    return parser


def _config_from_args(args: argparse.Namespace) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.out is not None:
        overrides["output_dir"] = args.out
    if args.workers is not None:
        overrides["workers"] = args.workers
    return dataclasses.replace(cfg, **overrides) if overrides else cfg


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        cfg = _config_from_args(args)
    except (ValueError, OSError) as err:  # nothing has been written
        print(f"mmuq: {err}", file=sys.stderr)
        return 2
    pipeline = StudyPipeline(cfg)
    try:
        if args.command == "gen-data":
            for path in pipeline.gen_data():
                print(path)
            return 0
        report = pipeline.run_quantify() if args.command == "quantify" else pipeline.run_propagate()
    except OSError as err:  # the output root cannot be written
        print(f"mmuq: {err}", file=sys.stderr)
        return 2
    for cell in report.cells:
        status = "ok" if cell.ok else f"FAILED: {cell.detail}"
        print(f"{report.stage} n={cell.size} {cell.param_prior}/{cell.model_prior}: {status}")
    return 0 if report.all_ok else 2


if __name__ == "__main__":
    sys.exit(main())
