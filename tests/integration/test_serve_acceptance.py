"""Acceptance path of the serving subsystem.

A fitted RandomForest, IsolationForest and LOF detector are saved, reloaded
in a *fresh Python process*, and served over a drifted ``FlowStream`` via
``DetectionService``; the streamed scores must equal in-process scoring, the
drift monitor must fire on the injected shift, and the registry must resolve
latest/pinned versions.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.datasets.registry import load_dataset
from repro.datasets.streaming import FlowStream
from repro.novelty import IsolationForest, LocalOutlierFactor
from repro.serve import DetectionService, DriftMonitor, ModelRegistry
from repro.supervised import RandomForestClassifier

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

# Runs in a fresh interpreter: loads every snapshot, scores the shipped
# query matrix, writes the scores back for bit-exact comparison.
_FRESH_PROCESS_SCRIPT = """
import sys
import numpy as np
from repro.serve.snapshot import load_snapshot

workdir = sys.argv[1]
X = np.load(workdir + "/query.npy")
out = {}
for name, attr in (("rf", "predict_proba"), ("iforest", "score_samples"), ("lof", "score_samples")):
    model = load_snapshot(workdir + "/" + name)
    out[name] = getattr(model, attr)(X)
np.savez(workdir + "/fresh_scores.npz", **out)
"""


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("wustl_iiot", scale=0.0015, seed=0)


def test_acceptance_fresh_process_scoring_and_streaming(dataset, tmp_path):
    normal = dataset.normal_data()
    X_labeled, y_labeled = dataset.X, dataset.y

    rf = RandomForestClassifier(n_estimators=10, max_depth=6, random_state=0)
    rf.fit(X_labeled, y_labeled)
    iforest = IsolationForest(n_estimators=25, random_state=0).fit(normal)
    lof = LocalOutlierFactor(n_neighbors=8, random_state=0).fit(normal)

    # --- save all three and ship a query matrix to a fresh process ------------
    stream = FlowStream(dataset, batch_size=150, drift_strength=2.5, random_state=0)
    X_query = stream.X  # the exact (drifted, shuffled) stream contents
    rf.save(tmp_path / "rf")
    iforest.save(tmp_path / "iforest")
    lof.save(tmp_path / "lof")
    np.save(tmp_path / "query.npy", X_query)

    env = dict(os.environ)
    env["PYTHONPATH"] = (
        f"{SRC_DIR}{os.pathsep}{env['PYTHONPATH']}" if env.get("PYTHONPATH") else str(SRC_DIR)
    )
    result = subprocess.run(
        [sys.executable, "-c", _FRESH_PROCESS_SCRIPT, str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    with np.load(tmp_path / "fresh_scores.npz") as fresh:
        np.testing.assert_array_equal(fresh["rf"], rf.predict_proba(X_query))
        np.testing.assert_array_equal(fresh["iforest"], iforest.score_samples(X_query))
        np.testing.assert_array_equal(fresh["lof"], lof.score_samples(X_query))

    # --- serve the drifted stream through the service -------------------------
    monitor = DriftMonitor(window=1024, threshold=0.5, min_samples=128)
    monitor.set_reference(iforest.score_samples(normal), normal)
    service = DetectionService(
        IsolationForest.load(tmp_path / "iforest"),
        threshold="auto",
        drift_monitor=monitor,
        micro_batch_size=1 << 20,  # one chunk per stream batch: bit-exact
    )
    streamed = np.concatenate([r.scores for r in service.process(stream)])
    batched = np.concatenate(
        [iforest.score_samples(batch_X) for batch_X, _ in stream]
    )
    np.testing.assert_array_equal(streamed, batched)
    assert service.report().n_drift_events >= 1  # injected shift is flagged


def test_acceptance_registry_latest_and_pinned(dataset, tmp_path):
    normal = dataset.normal_data()
    registry = ModelRegistry(tmp_path)
    v1_model = IsolationForest(n_estimators=10, random_state=0).fit(normal)
    v2_model = IsolationForest(n_estimators=20, random_state=1).fit(normal)
    registry.publish(v1_model, "ids")
    registry.publish(v2_model, "ids")

    latest = registry.load("ids", "latest")
    np.testing.assert_array_equal(
        latest.score_samples(normal[:64]), v2_model.score_samples(normal[:64])
    )
    registry.pin("ids", 1)
    pinned = registry.load("ids")  # default resolution follows the pin
    np.testing.assert_array_equal(
        pinned.score_samples(normal[:64]), v1_model.score_samples(normal[:64])
    )
