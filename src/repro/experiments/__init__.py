"""Experiment harness regenerating every table and figure of the paper.

Each ``figN_*`` / ``tableN_*`` module exposes a ``run_*`` function returning a
list of row dictionaries plus a ``format_*`` helper that renders the same
rows/series the paper reports.  :data:`repro.experiments.cli.EXPERIMENTS`
pairs each with the name of its committed result file, and
:func:`repro.experiments.cli.run_experiment` is the one writer of those
files: ``repro all --seed 0 --output benchmarks/results`` and the bench tests
under ``benchmarks/`` both call it.
"""

from repro.experiments.config import ExperimentConfig
from repro.experiments.fig1_known_unknown import format_fig1, run_fig1
from repro.experiments.fig3_cl_comparison import format_fig3, run_fig3
from repro.experiments.fig4_nd_comparison import format_fig4, run_fig4
from repro.experiments.fig5_prauc import format_fig5, run_fig5
from repro.experiments.protocol import (
    MethodRunResult,
    StaticDetectorResult,
    measure_inference_time,
    run_continual_method,
    run_static_detector,
)
from repro.experiments.reporting import format_table
from repro.experiments.table1_datasets import format_table1, run_table1
from repro.experiments.table2_improvement import format_table2, run_table2
from repro.experiments.table3_ablation import format_table3, run_table3
from repro.experiments.table4_overhead import format_table4, run_table4

__all__ = [
    "ExperimentConfig",
    "MethodRunResult",
    "StaticDetectorResult",
    "run_continual_method",
    "run_static_detector",
    "measure_inference_time",
    "format_table",
    "run_table1",
    "format_table1",
    "run_fig1",
    "format_fig1",
    "run_fig3",
    "format_fig3",
    "run_table2",
    "format_table2",
    "run_fig4",
    "format_fig4",
    "run_fig5",
    "format_fig5",
    "run_table3",
    "format_table3",
    "run_table4",
    "format_table4",
]
