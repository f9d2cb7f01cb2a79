"""The serve event schema, checked by running it.

One ``repro serve`` run with a registry, online refit and three injected
faults (a raising sink, NaN rows, a torn registry write) writes every record
type of the serving stack: ``alert``, ``drift``, ``quarantined_rows``,
``sink_disabled`` and ``lifecycle`` into ``<run-dir>/events.jsonl``, and
``lifecycle`` and ``registry_recover`` into the registry's
``history.jsonl``.  The records must agree with the code that writes them
and with the code that reads them:

* every record is a JSON object with a ``"type"``;
* every class in :mod:`repro.serve` whose ``to_dict()`` writes a
  ``"type"`` (found by importing every module) produced records in the run;
* every type the run report's timeline (``report._TIMELINE_TYPES``) and
  ``repro registry history`` read is produced, with every key they read;
* every record survives :class:`~repro.serve.sinks.JsonlSink` →
  :func:`~repro.serve.sinks.read_events` unchanged;
* a class's own line encoder (``to_json_line``, the template an
  :class:`~repro.serve.service.Alert` writes its line from) counts as a
  writer of that class's records, and each line it wrote is the sink's
  generic encoding of the same object's ``to_dict()``.

The same run shows that ``repro serve`` wraps each sink once: the service
and the lifecycle manager share one :class:`~repro.serve.faults.ResilientSink`
per sink, so a failing sink is disabled once and stays disabled.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import pkgutil
from collections import defaultdict

import pytest

import repro.serve
from repro.serve.cli import main
from repro.serve.service import Alert
from repro.serve.sinks import _ENCODER, JsonlSink, read_events
from repro.serve.telemetry import report

pytestmark = pytest.mark.serve

MODEL = "iforest-wustl_iiot"
FAULTS = "sink_raise@every=1;nan_rows@rate=0.05;torn_write"
#: Record types written to the run directory and to the registry lineage.
EVENT_TYPES = {"alert", "drift", "quarantined_rows", "sink_disabled", "lifecycle"}
HISTORY_TYPES = {"lifecycle", "registry_recover"}
#: Keys the readers of each type read: the run report's timeline
#: (``report._TIMELINE_KEYS``, ``row_indices``) and lifecycle section
#: (``action``, ``swapped``, ``published_version``), and
#: ``repro registry history`` (``version_dir``/``reason`` of a recovery;
#: ``action``, ``swapped``, ``published_version``, ``epoch`` of a decision).
CONSUMED_KEYS = {
    "alert": {"batch_index"},
    "drift": {"batch_index"},
    "quarantined_rows": {"batch_index", "reason", "row_indices"},
    "sink_disabled": {"sink", "n_errors", "reason"},
    "lifecycle": {"action", "swapped", "published_version", "epoch", "reason"},
    "registry_recover": {"version_dir", "reason"},
}


def _classes_with_to_dict() -> list[type]:
    """Every class defined in a :mod:`repro.serve` module with its own
    ``to_dict``, found by importing every module of the package."""
    classes = []
    for info in pkgutil.walk_packages(repro.serve.__path__, "repro.serve."):
        module = importlib.import_module(info.name)
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and value.__module__ == module.__name__
                and "to_dict" in vars(value)
            ):
                classes.append(value)
    return classes


def _writes_type(cls: type) -> bool:
    return '"type"' in inspect.getsource(cls.to_dict)


def _recording(to_dict, outputs: list):
    @functools.wraps(to_dict)
    def wrapper(self):
        payload = to_dict(self)
        outputs.append(payload)
        return payload

    return wrapper


def _recording_lines(to_json_line, outputs: list, lines: list):
    """Record each line as a record of its class, and the object it encodes."""

    @functools.wraps(to_json_line)
    def wrapper(self):
        line = to_json_line(self)
        outputs.append(json.loads(line))
        lines.append((self, line))
        return line

    return wrapper


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """Serve once; returns the files' records and every ``to_dict`` output."""
    root = tmp_path_factory.mktemp("event_schema")
    outputs: dict[type, list[dict]] = defaultdict(list)
    lines: dict[type, list[tuple]] = defaultdict(list)
    with pytest.MonkeyPatch.context() as patch:
        for cls in _classes_with_to_dict():
            patch.setattr(cls, "to_dict", _recording(cls.to_dict, outputs[cls]))
            if "to_json_line" in vars(cls):
                patch.setattr(
                    cls,
                    "to_json_line",
                    _recording_lines(cls.to_json_line, outputs[cls], lines[cls]),
                )
        rc = main(
            [
                "serve",
                "--scale", "0.01",
                "--drift-strength", "4",
                "--threshold", "rolling",
                "--registry", str(root / "registry"),
                "--publish",
                "--refit", "full",
                "--inject-faults", FAULTS,
                "--alerts", str(root / "alerts.jsonl"),
                "--run-dir", str(root / "run"),
            ]
        )
    assert rc == 0
    history_path = root / "registry" / MODEL / "history.jsonl"
    return {
        "root": root,
        "events": read_events(root / "run" / "events.jsonl"),
        "history": read_events(history_path),
        "summary": json.loads((root / "run" / "run_summary.json").read_text()),
        "outputs": outputs,
        "lines": lines,
    }


def _records(run) -> list[dict]:
    return [*run["events"], *run["history"]]


def _types(records) -> set:
    return {record.get("type") for record in records}


def test_every_record_is_an_object_with_a_type(run):
    records = _records(run)
    assert records
    for record in records:
        assert isinstance(record, dict)
        assert isinstance(record.get("type"), str), record


def test_the_run_writes_every_type(run):
    assert _types(run["events"]) == EVENT_TYPES
    assert _types(run["history"]) == HISTORY_TYPES


def test_every_type_writing_class_shows_up_in_the_run(run):
    written = _types(_records(run))
    types = set()
    for cls in _classes_with_to_dict():
        if _writes_type(cls):
            produced = run["outputs"][cls]
            assert produced, f"{cls.__qualname__} wrote no record in the run"
            types |= _types(produced)
    assert types == written


def test_the_readers_types_are_produced(run):
    written = _types(_records(run))
    assert report._TIMELINE_TYPES <= written
    assert HISTORY_TYPES <= _types(run["history"])
    assert set(CONSUMED_KEYS) == EVENT_TYPES | HISTORY_TYPES


def test_every_key_the_readers_read_is_present(run):
    # Each key the timeline carries is declared for some type, so the check
    # below covers it.
    assert set(report._TIMELINE_KEYS) <= set().union(*CONSUMED_KEYS.values())
    for record in _records(run):
        missing = CONSUMED_KEYS[record["type"]] - set(record)
        assert not missing, f"{record['type']} record lacks {sorted(missing)}"


def test_registry_history_prints_every_record(run, capsys):
    capsys.readouterr()
    registry = str(run["root"] / "registry")
    assert main(["registry", "history", MODEL, "--registry", registry]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(run["history"]) + 1
    assert any("registry_recover: quarantined v1" in line for line in lines)
    assert not [line for line in lines if "None" in line or "?" in line]


def test_every_record_round_trips_through_the_jsonl_log(run, tmp_path):
    emitted = [
        payload
        for cls, produced in run["outputs"].items()
        if _writes_type(cls)
        for payload in produced
    ]
    sink = JsonlSink(tmp_path / "round_trip.jsonl")
    for record in [*emitted, *_records(run)]:
        sink.append(record)
    sink.close()
    assert read_events(tmp_path / "round_trip.jsonl") == [*emitted, *_records(run)]


def test_every_written_record_is_a_to_dict_output(run):
    emitted = {
        json.dumps(payload, sort_keys=True)
        for produced in run["outputs"].values()
        for payload in produced
    }
    for record in _records(run):
        assert json.dumps(record, sort_keys=True) in emitted


def test_every_alert_line_is_the_encoded_to_dict_of_its_alert(run):
    """The alert template writes exactly what the generic encoder would."""
    lines = run["lines"][Alert]
    alerts = [record for record in run["events"] if record["type"] == "alert"]
    assert alerts and len(lines) >= len(alerts)
    assert set(run["lines"]) == {Alert}
    for alert, line in lines:
        assert line == _ENCODER.encode(alert.to_dict()) + "\n"


def test_a_quarantined_version_number_is_never_published_again(run):
    """The torn ``v1`` is quarantined; every refit publishes a new number.

    Numbering from the live versions alone published the first refit as
    ``v1`` again, so the lineage named two different models ``v1``.
    """
    quarantined = {
        int(record["version_dir"][1:])
        for record in run["history"]
        if record["type"] == "registry_recover"
    }
    published = [
        record["published_version"]
        for record in run["history"]
        if record["type"] == "lifecycle" and record["published_version"] is not None
    ]
    assert quarantined == {1}
    assert published
    assert not quarantined & set(published)
    assert len(published) == len(set(published))


def test_each_sink_is_disabled_once(run):
    """The service and the lifecycle manager share one wrapper per sink.

    With a wrapper each, the raising sink was disabled twice (two
    ``sink_disabled`` records) and retried in between.
    """
    disabled = [e for e in run["events"] if e.get("type") == "sink_disabled"]
    assert [e["sink"] for e in disabled] == ["RaisingSink"]
    assert run["summary"]["service_report"]["n_disabled_sinks"] == 1
    assert not (run["root"] / "alerts.jsonl").exists()
