"""Command-line interface: the paper's tables/figures plus the serving layer.

Usage::

    python -m repro.experiments.cli table1
    python -m repro.experiments.cli fig3 --profile quick
    python -m repro.experiments.cli all --profile paper --output results/
    python -m repro.experiments.cli serve --dataset wustl_iiot --detector iforest
    python -m repro.experiments.cli registry list --registry ./models
    python -m repro.experiments.cli trace ./run/trace.jsonl --budget score=50

Each experiment prints its formatted table; ``--output`` additionally writes
one text file per experiment.  The ``serve`` and ``registry`` subcommands are
handled by :mod:`repro.serve.cli` (fit or load a detector, stream a drifted
:class:`~repro.datasets.streaming.FlowStream` through a
:class:`~repro.serve.service.DetectionService`, manage model snapshots); the
``repro`` console script maps to this entry point.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Callable

from repro.experiments.config import ExperimentConfig
from repro.experiments.fig1_known_unknown import format_fig1, run_fig1
from repro.experiments.fig3_cl_comparison import format_fig3, run_fig3
from repro.experiments.fig4_nd_comparison import format_fig4, run_fig4
from repro.experiments.fig5_prauc import format_fig5, run_fig5
from repro.experiments.table1_datasets import format_table1, run_table1
from repro.experiments.table2_improvement import format_table2, run_table2
from repro.experiments.table3_ablation import format_table3, run_table3
from repro.experiments.table4_overhead import format_table4, run_table4

__all__ = ["EXPERIMENTS", "build_config", "main"]

#: Experiment id -> (runner, formatter).
EXPERIMENTS: dict[str, tuple[Callable, Callable]] = {
    "table1": (run_table1, format_table1),
    "fig1": (run_fig1, format_fig1),
    "fig3": (run_fig3, format_fig3),
    "table2": (run_table2, format_table2),
    "fig4": (run_fig4, format_fig4),
    "fig5": (run_fig5, format_fig5),
    "table3": (run_table3, format_table3),
    "table4": (run_table4, format_table4),
}

_PROFILES = {
    "quick": ExperimentConfig.quick,
    "default": ExperimentConfig,
    "paper": ExperimentConfig.paper,
}


def build_config(args: argparse.Namespace) -> ExperimentConfig:
    """Translate CLI arguments into an :class:`ExperimentConfig`."""
    overrides: dict[str, object] = {}
    if args.scale is not None:
        overrides["scale"] = args.scale
    if args.epochs is not None:
        overrides["epochs"] = args.epochs
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.datasets:
        overrides["datasets"] = tuple(args.datasets)
    if args.experiences is not None:
        overrides["n_experiences_override"] = args.experiences
    return _PROFILES[args.profile](**overrides)


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments", description="Regenerate the CND-IDS paper's tables and figures."
    )
    parser.add_argument(
        "experiment",
        choices=[*EXPERIMENTS, "all"],
        help="which table/figure to regenerate ('all' runs every one)",
    )
    parser.add_argument("--profile", choices=sorted(_PROFILES), default="default")
    parser.add_argument("--scale", type=float, default=None, help="dataset scale override")
    parser.add_argument("--epochs", type=int, default=None, help="training epochs override")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--datasets", nargs="*", default=None, help="dataset subset")
    parser.add_argument("--experiences", type=int, default=None, help="override the experience count")
    parser.add_argument("--output", type=Path, default=None, help="directory for result text files")
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns the process exit code."""
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    if argv and argv[0] in ("serve", "registry", "trace"):
        # The serving subsystem owns its own argument surface; importing it
        # lazily keeps the experiment-only path light.
        from repro.serve.cli import main as serve_main

        return serve_main(argv)
    args = _parser().parse_args(argv)
    config = build_config(args)
    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]

    for name in names:
        runner, formatter = EXPERIMENTS[name]
        rows = runner(config)
        text = formatter(rows)
        print(text)
        print()
        if args.output is not None:
            args.output.mkdir(parents=True, exist_ok=True)
            (args.output / f"{name}.txt").write_text(text + "\n")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess in tests
    raise SystemExit(main())
