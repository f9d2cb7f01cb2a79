"""Store the quality each workload must reproduce per seed in ``reference.json``.

The correctness checks compare a run's quality with the values stored here:

* ``train-cndids``: avg F1, avg PR-AUC and forward transfer of each scenario
  it trains.  A run with ``--seed n`` trains the scenarios of seeds ``3n``,
  ``3n + 1`` and ``3n + 2``;
* ``serve-cndids``, ``serve-iforest``, ``refit-iforest``: the alert F1 and
  PR-AUC of pass 0 over the stream of ``--seed``.

The file always covers ``--seed`` 0 to ``REFERENCE_SEEDS - 1`` of every
workload.  Regenerate it only when a change is meant to move quality::

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import run  # noqa: E402  (pins the thread pools before numpy loads)
from workloads import (  # noqa: E402
    REFERENCE_PATH,
    REFERENCE_SEEDS,
    SERVE_SPECS,
    TRAIN_SCALE,
    TRAIN_SCENARIOS,
    build_stream_inputs,
    build_train_scenario,
    run_serve_pass,
    run_train_repeat,
)

from repro.experiments.config import ExperimentConfig  # noqa: E402


def main() -> int:
    reference: dict[str, dict[str, dict[str, float]]] = {"train-cndids": {}}
    for seed in range(REFERENCE_SEEDS * TRAIN_SCENARIOS):
        config = ExperimentConfig(scale=TRAIN_SCALE, seed=seed)
        quality = run_train_repeat(config, build_train_scenario(config)).quality
        reference["train-cndids"][str(seed)] = quality
        print(f"train-cndids scenario seed {seed}: {quality}", flush=True)
    run.OUT_DIR.mkdir(exist_ok=True)
    for name, spec in SERVE_SPECS.items():
        reference[name] = {}
        for seed in range(REFERENCE_SEEDS):
            ref: dict = {}
            with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as workdir:
                served = run_serve_pass(spec, build_stream_inputs(spec, seed), Path(workdir), 0, ref)
            if served.failed:
                raise RuntimeError(f"{name} seed {seed}: {served.failed} failed checks")
            reference[name][str(seed)] = {"alert_f1": ref["alert_f1"], "pr_auc": ref["pr_auc"]}
            print(f"{name} seed {seed}: {reference[name][str(seed)]}", flush=True)
    REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
