"""Tier-1 smoke of the serving subsystem on a tiny synthetic stream.

Marked ``serve`` so the suite slice is selectable (``pytest -m serve``); it is
*not* excluded from the default run — tier-1 exercises the full
fit -> publish -> load -> stream -> drift -> alert path in well under a
second because everything runs at the smallest dataset scale.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.datasets.streaming import FlowStream
from repro.novelty import IsolationForest
from repro.serve import (
    DetectionService,
    DriftMonitor,
    LifecycleEvent,
    LifecycleManager,
    ListSink,
    ModelRegistry,
    NoRefit,
)
from repro.serve.cli import DETECTOR_FACTORIES, main
from repro.serve.sinks import read_events

pytestmark = pytest.mark.serve


def _subprocess_env() -> dict:
    env = dict(os.environ)
    src_dir = str(Path(__file__).resolve().parents[2] / "src")
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = f"{src_dir}{os.pathsep}{existing}" if existing else src_dir
    return env


def test_end_to_end_serving_path(tiny_dataset, tmp_path):
    normal = tiny_dataset.normal_data()
    detector = IsolationForest(n_estimators=15, random_state=0).fit(normal)

    registry = ModelRegistry(tmp_path / "registry")
    info = registry.publish(detector, "smoke", metadata={"dataset": tiny_dataset.name})
    served = registry.load("smoke")

    monitor = DriftMonitor(window=512, threshold=0.5, min_samples=64)
    monitor.set_reference(detector.score_samples(normal), normal)
    sink = ListSink()
    service = DetectionService(
        served,
        threshold="rolling",
        drift_monitor=monitor,
        sinks=[sink],
        micro_batch_size=128,
        lifecycle=LifecycleManager(
            NoRefit(), registry=registry, model_name="smoke", sinks=[sink]
        ),
    )
    stream = FlowStream(tiny_dataset, batch_size=100, drift_strength=2.5, random_state=0)
    report = service.run(stream)

    assert report.n_samples == tiny_dataset.n_samples
    assert report.throughput_samples_per_sec > 0
    assert report.n_drift_events >= 1  # injected drift must be noticed
    assert sink.events  # alerts and/or drift events reached the sink
    decisions = [e for e in sink.events if isinstance(e, LifecycleEvent)]
    assert len(decisions) == report.n_drift_events
    assert info.version == 1


def test_cli_serve_smoke(tmp_path):
    """The `serve` subcommand of the experiments CLI works end to end."""
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.experiments.cli",
            "serve",
            "--dataset",
            "wustl_iiot",
            "--scale",
            "0.0015",
            "--detector",
            "mahalanobis",
            "--drift-strength",
            "2.0",
            "--registry",
            str(tmp_path / "registry"),
            "--publish",
            "--alerts",
            str(tmp_path / "events.jsonl"),
        ],
        capture_output=True,
        text=True,
        timeout=300,
        env=_subprocess_env(),
    )
    assert result.returncode == 0, result.stderr
    assert "processed" in result.stdout
    assert "published mahalanobis-wustl_iiot v1" in result.stdout
    assert (tmp_path / "events.jsonl").is_file()


@pytest.mark.parametrize("name", sorted(DETECTOR_FACTORIES))
def test_cli_serves_and_publishes_every_detector(name, tmp_path, capsys):
    """Each `--detector` choice fits, publishes, serves and logs its alerts."""
    from repro.datasets.registry import load_dataset

    registry_dir, alerts = tmp_path / "registry", tmp_path / "alerts.jsonl"
    assert main([
        "serve", "--dataset", "wustl_iiot", "--scale", "0.0015",
        "--detector", name, "--registry", str(registry_dir), "--publish",
        "--alerts", str(alerts),
    ]) == 0
    out = capsys.readouterr().out
    assert f"published {name}-wustl_iiot v1" in out
    n_alerts = int(out.split("alerts: ")[1].split()[0])
    records = read_events(alerts)
    assert sum(record["type"] == "alert" for record in records) == n_alerts
    # the published model is the factory's detector, fitted on the clean flows
    dataset = load_dataset("wustl_iiot", scale=0.0015, seed=0)
    expected = DETECTOR_FACTORIES[name]().fit(dataset.normal_data())
    loaded = ModelRegistry(registry_dir).load(f"{name}-wustl_iiot")
    assert type(loaded) is type(expected)
    np.testing.assert_array_equal(
        loaded.score_samples(dataset.X), expected.score_samples(dataset.X)
    )


def test_cli_registry_smoke(tmp_path, tiny_dataset):
    registry_dir = tmp_path / "registry"
    detector = IsolationForest(n_estimators=5, random_state=0).fit(
        tiny_dataset.normal_data()
    )
    registry = ModelRegistry(registry_dir)
    registry.publish(detector, "ids")
    registry.publish(detector, "ids")
    env = _subprocess_env()
    base = [sys.executable, "-m", "repro.experiments.cli", "registry"]

    pin = subprocess.run(
        [*base, "pin", "ids", "1", "--registry", str(registry_dir)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert pin.returncode == 0 and "pinned ids to v1" in pin.stdout
    listing = subprocess.run(
        [*base, "list", "--registry", str(registry_dir)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert listing.returncode == 0 and "ids: v1..v2, pinned v1" in listing.stdout
    show = subprocess.run(
        [*base, "show", "ids", "--registry", str(registry_dir)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert show.returncode == 0 and "IsolationForest" in show.stdout


def test_scores_survive_registry_round_trip(tiny_dataset, tmp_path):
    normal = tiny_dataset.normal_data()
    detector = IsolationForest(n_estimators=15, random_state=0).fit(normal)
    registry = ModelRegistry(tmp_path)
    registry.publish(detector, "ids")
    loaded = registry.load("ids")
    np.testing.assert_array_equal(
        loaded.score_samples(tiny_dataset.X), detector.score_samples(tiny_dataset.X)
    )
