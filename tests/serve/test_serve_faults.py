"""Fault-tolerance chaos suite: the degraded run must equal the fault-free one.

Every failure class the serving stack claims to survive is injected here
deterministically (:class:`repro.serve.faults.FaultInjector`) and the
degraded service is held to the acceptance bar: with a sink raising on every
emit and a 5% NaN-row stream, the service must complete the stream with
scores and alerts identical to a fault-free run on the same stream with the
poisoned rows deleted — while recording ``sink_disabled`` /
``quarantined_rows`` events for the operator.  Torn registry writes and the
satellite error paths (truncated lineage, poisoned
drift references, graceful SIGINT/SIGTERM) are covered alongside.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.datasets.streaming import FlowStream
from repro.novelty import IsolationForest
from repro.serve import (
    Alert,
    DetectionService,
    DriftMonitor,
    FaultInjected,
    FaultInjector,
    ListSink,
    ModelRegistry,
    QuarantinedRows,
    RaisingSink,
    RegistryRecovery,
    ResilientSink,
    SinkDisabled,
    SnapshotError,
    call_with_retry,
    emit_resilient,
    load_snapshot,
    save_snapshot,
    wrap_sinks,
)
from repro.serve.lifecycle import LifecycleManager, NoRefit, WindowBuffer
from repro.serve.lifecycle.manager import LifecycleEvent

pytestmark = pytest.mark.serve


@pytest.fixture(scope="module")
def fitted(tiny_dataset):
    normal = tiny_dataset.normal_data()
    detector = IsolationForest(n_estimators=10, random_state=0).fit(normal)
    return tiny_dataset, normal, detector


@pytest.fixture(scope="module")
def batches(tiny_dataset):
    """The acceptance stream, materialized so every run sees identical bytes."""
    stream = FlowStream(
        tiny_dataset, batch_size=64, drift_strength=2.0, random_state=0
    )
    return [np.asarray(X, dtype=np.float64) for X, _ in stream]


def _alert_tuples(events):
    return [
        (a.batch_index, a.sample_index, a.score, a.threshold)
        for a in events
        if isinstance(a, Alert)
    ]


def _delete_poisoned(injector, batch_list):
    """The fault-free reference stream: poisoned rows deleted outright."""
    return [
        np.delete(X, injector.poisoned_rows(i, X.shape[0]), axis=0)
        for i, X in enumerate(batch_list)
    ]


class _AlwaysRaises:
    def __init__(self):
        self.n_calls = 0

    def emit(self, event):
        self.n_calls += 1
        raise IOError("pager offline")

    def close(self):
        raise IOError("pager offline")


class _FailsFirstN:
    def __init__(self, n):
        self.remaining = n
        self.events = []

    def emit(self, event):
        if self.remaining > 0:
            self.remaining -= 1
            raise IOError("transient")
        self.events.append(event)

    def close(self):
        pass


# -- sink fault isolation ----------------------------------------------------------
class TestResilientSink:
    def test_transient_failure_is_retried_within_one_emit(self):
        inner = _FailsFirstN(1)
        sink = ResilientSink(inner, retries=1, max_consecutive_errors=3)
        assert sink.emit("event") is None
        assert inner.events == ["event"]
        assert sink.consecutive_errors_ == 0
        assert sink.n_errors_ == 1  # the failed first try is still counted

    def test_disabled_after_consecutive_failed_emits(self):
        sink = ResilientSink(_AlwaysRaises(), retries=0, max_consecutive_errors=3)
        assert sink.emit("a") is None
        assert sink.emit("b") is None
        notice = sink.emit("c")
        assert isinstance(notice, SinkDisabled)
        assert notice.sink == "_AlwaysRaises"
        assert notice.n_errors == 3
        assert sink.disabled_
        # Once disabled, events are dropped silently — no second notice.
        assert sink.emit("d") is None
        assert sink.n_dropped_ == 4

    def test_success_resets_the_consecutive_count(self):
        inner = _FailsFirstN(2)  # two failed emits, then healthy forever
        sink = ResilientSink(inner, retries=0, max_consecutive_errors=3)
        sink.emit("a")
        sink.emit("b")
        assert sink.consecutive_errors_ == 2
        sink.emit("c")  # delivered: the sink recovered
        assert sink.consecutive_errors_ == 0
        assert not sink.disabled_
        for event in "defg":
            sink.emit(event)
        assert inner.events == ["c", "d", "e", "f", "g"]

    def test_close_failures_are_swallowed(self):
        sink = ResilientSink(_AlwaysRaises())
        with pytest.warns(UserWarning):
            sink.close()  # must not raise
        assert isinstance(sink.last_error_, IOError)

    def test_close_failure_warns_with_the_sink_and_error(self):
        class _CloseRaises(ListSink):
            def close(self):
                raise OSError("pager offline")

        inner = _CloseRaises()
        sink = ResilientSink(inner)
        sink.emit("a")
        assert sink.n_errors_ == 0
        with pytest.warns(
            UserWarning, match=r"closing _CloseRaises failed: OSError\('pager offline'\)"
        ):
            sink.close()
        assert sink.n_errors_ == 1
        assert not sink.disabled_
        assert inner.events == ["a"]

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError, match="retries"):
            ResilientSink(ListSink(), retries=-1)
        with pytest.raises(ValueError, match="max_consecutive_errors"):
            ResilientSink(ListSink(), max_consecutive_errors=0)

    def test_wrap_sinks_is_idempotent(self):
        wrapped = wrap_sinks([ListSink()])
        rewrapped = wrap_sinks(wrapped)
        assert rewrapped[0] is wrapped[0]
        assert not isinstance(rewrapped[0].inner, ResilientSink)

    def test_emit_resilient_broadcasts_the_disabling_to_survivors(self):
        healthy = ListSink()
        sinks = [
            ResilientSink(_AlwaysRaises(), retries=0, max_consecutive_errors=1),
            ResilientSink(healthy),
        ]
        disabled = emit_resilient(sinks, "event")
        assert len(disabled) == 1
        # The healthy sink saw the event *and* learned the other sink died.
        assert healthy.events[0] == "event"
        assert isinstance(healthy.events[1], SinkDisabled)

    def test_events_are_strict_json(self):
        for event in (
            QuarantinedRows(batch_index=1, row_indices=(0, 3), reason="nan"),
            RegistryRecovery(
                name="ids", version_dir="v2", reason="torn", quarantined_to="x"
            ),
            SinkDisabled(sink="JsonlSink", n_errors=3, reason="full disk"),
        ):
            payload = json.dumps(event.to_dict(), allow_nan=False)
            assert json.loads(payload)["type"]


class _BatchSink:
    """A sink that takes batches; its first ``fail`` batch calls raise."""

    def __init__(self, fail=0):
        self.fail = fail
        self.n_calls = 0
        self.batches = []
        self.events = []

    def emit(self, event):
        self.events.append(event)

    def emit_many(self, events):
        self.n_calls += 1
        if self.fail:
            self.fail -= 1
            raise IOError("disk full")
        self.batches.append(list(events))

    def close(self):
        pass


class TestResilientSinkBatches:
    def test_a_batch_is_one_emit_many_call(self):
        inner = _BatchSink()
        sink = ResilientSink(inner)
        assert sink.emit_many(["a", "b", "c"]) is None
        assert inner.batches == [["a", "b", "c"]]
        assert inner.events == []

    def test_a_failed_batch_is_retried_as_a_unit(self):
        inner = _BatchSink(fail=1)
        sink = ResilientSink(inner, retries=1)
        assert sink.emit_many(["a", "b"]) is None
        assert inner.batches == [["a", "b"]]
        assert (sink.n_errors_, sink.consecutive_errors_, sink.n_dropped_) == (1, 0, 0)

    def test_a_batch_that_still_fails_is_one_error_and_drops_every_event(self):
        inner = _BatchSink(fail=100)
        sink = ResilientSink(inner, retries=1, max_consecutive_errors=2)
        assert sink.emit_many(list("abc")) is None
        assert (sink.n_errors_, sink.consecutive_errors_, sink.n_dropped_) == (2, 1, 3)
        notice = sink.emit_many(list("de"))
        assert isinstance(notice, SinkDisabled)
        assert notice.n_errors == 4 and sink.disabled_
        assert sink.n_dropped_ == 5
        # Disabled: later batches are dropped without reaching the sink.
        assert sink.emit_many(list("fg")) is None
        assert sink.n_dropped_ == 7 and inner.n_calls == 4

    def test_a_sink_without_emit_many_keeps_per_event_semantics(self):
        inner = _FailsFirstN(2)
        sink = ResilientSink(inner, retries=0, max_consecutive_errors=3)
        assert sink.emit_many(list("abcd")) is None
        assert inner.events == ["c", "d"]
        assert (sink.n_errors_, sink.consecutive_errors_, sink.n_dropped_) == (2, 0, 2)

        broken = _AlwaysRaises()
        sink = ResilientSink(broken, retries=0, max_consecutive_errors=3)
        notice = sink.emit_many(list("abcde"))
        assert isinstance(notice, SinkDisabled) and notice.n_errors == 3
        assert broken.n_calls == 3  # disabled on the third event
        assert sink.n_dropped_ == 5

    def test_emit_resilient_sends_the_notice_after_the_batch(self):
        healthy = ListSink()
        sinks = [
            ResilientSink(_BatchSink(fail=100), retries=0, max_consecutive_errors=1),
            ResilientSink(healthy),
        ]
        disabled = emit_resilient(sinks, "a", "b", "c")
        assert len(disabled) == 1
        assert healthy.events[:3] == ["a", "b", "c"]
        assert healthy.events[3] is disabled[0]

    def test_service_reports_a_disabled_batch_sink_to_the_survivors(
        self, fitted, batches
    ):
        _, _, detector = fitted
        healthy = ListSink()
        broken = _BatchSink(fail=10**6)
        service = DetectionService(
            detector, threshold="auto", sinks=[broken, healthy]
        )
        report = service.run(batches)
        assert report.n_alerts and report.n_disabled_sinks == 1
        notices = [e for e in healthy.events if isinstance(e, SinkDisabled)]
        assert len(notices) == 1 and notices[0].sink == "_BatchSink"
        assert _alert_tuples(healthy.events)
        assert broken.batches == []


# -- retrying I/O ------------------------------------------------------------------
class TestCallWithRetry:
    def test_retries_transient_oserror_then_succeeds(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) < 3:
                raise OSError("transient")
            return "ok"

        delays: list[float] = []
        assert call_with_retry(flaky, attempts=3, sleep=delays.append) == "ok"
        assert len(calls) == 3
        assert len(delays) == 2
        assert delays[1] > delays[0] > 0  # exponential backoff

    def test_jitter_is_deterministic_per_seed(self):
        def run(seed):
            delays: list[float] = []

            def always_fails():
                raise OSError("nope")

            with pytest.raises(OSError):
                call_with_retry(
                    always_fails, attempts=4, jitter_seed=seed, sleep=delays.append
                )
            return delays

        assert run(3) == run(3)
        assert run(3) != run(4)

    def test_exhausted_budget_reraises_the_last_error(self):
        def always_fails():
            raise OSError("persistent")

        with pytest.raises(OSError, match="persistent"):
            call_with_retry(always_fails, attempts=2, sleep=lambda _: None)

    def test_non_transient_errors_propagate_immediately(self):
        calls = []

        def corrupt():
            calls.append(1)
            raise ValueError("corrupt snapshot")

        with pytest.raises(ValueError):
            call_with_retry(corrupt, attempts=5, sleep=lambda _: None)
        assert len(calls) == 1  # corruption does not heal by rereading

    def test_rejects_bad_configuration(self):
        with pytest.raises(ValueError, match="attempts"):
            call_with_retry(lambda: None, attempts=0)
        with pytest.raises(ValueError, match="backoff"):
            call_with_retry(lambda: None, backoff=-1.0)


# -- fault injector ----------------------------------------------------------------
class TestFaultInjectorSpec:
    def test_parses_the_acceptance_chaos_mix(self):
        injector = FaultInjector.from_spec(
            "sink_raise@every=1;nan_rows@rate=0.05", seed=7
        )
        assert injector.sink_raise_every == 1
        assert injector.nan_rate == 0.05
        assert injector.seed == 7
        assert not injector.torn_write
        for part in ("sink raises", "NaN rows"):
            assert part in injector.describe()

    def test_parses_every_clause_form(self):
        injector = FaultInjector.from_spec(
            "sink_raise@every=3; stall@batch=2,seconds=0.5;"
            "nan_rows@every=4,rows=2; torn_write"
        )
        assert injector.sink_raise_every == 3
        assert injector.stall_batch == 2
        assert injector.stall_seconds == 0.5
        assert injector.nan_every == 4
        assert injector.nan_rows == 2
        assert injector.torn_write

    def test_empty_spec_arms_nothing(self):
        injector = FaultInjector.from_spec("")
        assert injector.describe() == "no faults armed"

    @pytest.mark.parametrize(
        "spec, match",
        [
            ("disk_full", "unknown fault"),
            # a name outside the grammar is rejected before its parameters
            # are parsed
            ("worker_crash@every=1", "unknown fault"),
            ("worker_crash@round=1,every=2", "unknown fault"),
            ("worker_hang@round=0", "unknown fault"),
            ("worker_hang@seconds=1", "unknown fault"),
            ("sink_raise@every", "malformed parameter"),
            ("stall", "needs batch="),
            ("sink_raise@every=0", "at least 1"),
            ("nan_rows@rate=1.5", "in \\[0, 1\\]"),
            ("nan_rows", "exactly one of rate= or every="),
            ("nan_rows@rate=0.1,every=2", "exactly one of rate= or every="),
            ("sink_raise@every=1,color=red", "unknown parameter"),
        ],
    )
    def test_bad_specs_raise_valueerror(self, spec, match):
        with pytest.raises(ValueError, match=match):
            FaultInjector.from_spec(spec)

    def test_poisoned_rows_is_a_pure_function_of_seed_and_position(self):
        a = FaultInjector(seed=5, nan_rate=0.2)
        b = FaultInjector(seed=5, nan_rate=0.2)
        for batch_index in range(6):
            np.testing.assert_array_equal(
                a.poisoned_rows(batch_index, 100), b.poisoned_rows(batch_index, 100)
            )
        assert FaultInjector(seed=5, nan_rate=0.0).poisoned_rows(0, 100).size == 0
        assert a.poisoned_rows(0, 0).size == 0

    def test_corrupt_stream_poisons_exactly_the_announced_rows(self, batches):
        injector = FaultInjector(seed=3, nan_rate=0.1)
        originals = [X.copy() for X in batches[:4]]
        corrupted = list(injector.corrupt_stream(batches[:4]))
        for i, (X, original) in enumerate(zip(corrupted, originals)):
            rows = injector.poisoned_rows(i, original.shape[0])
            nan_rows = np.flatnonzero(~np.isfinite(X).all(axis=1))
            np.testing.assert_array_equal(nan_rows, rows)
            # The source batches are never mutated — only copies are poisoned.
            np.testing.assert_array_equal(batches[i], original)

    def test_corrupt_stream_preserves_label_tuples(self):
        injector = FaultInjector(seed=0, nan_every=1, nan_rows=1)
        X = np.zeros((4, 2))
        y = np.arange(4)
        out = list(injector.corrupt_stream([(X, y)]))
        assert isinstance(out[0], tuple)
        np.testing.assert_array_equal(out[0][1], y)

    def test_raising_sink_raises_every_nth_emit(self):
        inner = ListSink()
        sink = RaisingSink(inner, every=2)
        sink.emit("a")
        with pytest.raises(FaultInjected):
            sink.emit("b")
        sink.emit("c")
        assert inner.events == ["a", "c"]
        assert sink.n_raised_ == 1


# -- poison-row quarantine (sequential service) ------------------------------------
class TestQuarantine:
    def test_alerts_identical_to_stream_with_poisoned_rows_deleted(
        self, fitted, batches
    ):
        _, _, detector = fitted
        injector = FaultInjector(seed=11, nan_rate=0.05)

        ref_sink = ListSink()
        reference = DetectionService(detector, threshold="auto", sinks=[ref_sink])
        for X in _delete_poisoned(injector, batches):
            reference.process_batch(X)

        sink = ListSink()
        service = DetectionService(detector, threshold="auto", sinks=[sink])
        results = list(service.process(injector.corrupt_stream(batches)))

        assert _alert_tuples(ref_sink.events)  # the comparison must bite
        assert _alert_tuples(sink.events) == _alert_tuples(ref_sink.events)
        total_poisoned = sum(
            injector.poisoned_rows(i, X.shape[0]).size for i, X in enumerate(batches)
        )
        assert total_poisoned > 0
        assert service.report().n_quarantined == total_poisoned
        quarantine_events = [
            e for e in sink.events if isinstance(e, QuarantinedRows)
        ]
        assert sum(e.n_rows for e in quarantine_events) == total_poisoned
        for event in quarantine_events:
            np.testing.assert_array_equal(
                np.asarray(event.row_indices),
                injector.poisoned_rows(event.batch_index, batches[event.batch_index].shape[0]),
            )
            assert event.reason == "non-finite feature values"
        # Quarantined rows are excluded by index from the scored stream.
        ref_scores = [
            detector.score_samples(X) for X in _delete_poisoned(injector, batches)
        ]
        for result, expected in zip(results, ref_scores):
            np.testing.assert_array_equal(result.scores, expected)

    def test_quarantined_rows_never_reach_threshold_drift_or_refit(self, fitted):
        _, normal, detector = fitted
        monitor = DriftMonitor(window=256, min_samples=16)
        lifecycle = LifecycleManager(NoRefit(), buffer=WindowBuffer(512))
        service = DetectionService(
            detector,
            threshold=float("inf"),  # every clean row is below-threshold
            drift_monitor=monitor,
            lifecycle=lifecycle,
        )
        X = normal[:64].copy()
        X[::4] = np.nan  # 16 poison rows
        result = service.process_batch(X)
        assert result.quarantined == tuple(range(0, 64, 4))
        assert result.scores.shape[0] == 48
        # Rolling window, drift window and refit buffer all saw 48 rows only.
        assert service._rolling.count == 48
        assert monitor._scores.count == 48
        assert np.isfinite(monitor._scores.values()).all()
        assert lifecycle.buffer.count == 48
        assert np.isfinite(lifecycle.buffer.values()).all()

    def test_quarantined_rows_do_not_consume_sample_indices(self, fitted):
        _, normal, detector = fitted
        service = DetectionService(detector, threshold=-np.inf)  # alert on all
        X = normal[:10].copy()
        X[0] = np.nan
        result = service.process_batch(X)
        assert [a.sample_index for a in result.alerts] == list(range(9))
        next_result = service.process_batch(normal[10:12])
        assert [a.sample_index for a in next_result.alerts] == [9, 10]

    def test_wrong_width_batch_raises_by_default(self, fitted):
        _, normal, detector = fitted
        service = DetectionService(detector, threshold="auto")
        service.process_batch(normal[:8])
        with pytest.raises(ValueError, match="features"):
            service.process_batch(normal[:8, :-1])

    def test_fully_poisoned_batch_keeps_the_report_strict_json(self, fitted):
        _, normal, detector = fitted
        service = DetectionService(detector, threshold="rolling")
        X = np.full((5, normal.shape[1]), np.nan)
        result = service.process_batch(X)
        assert result.scores.size == 0
        assert len(result.quarantined) == 5
        json.dumps(service.report().to_dict(), allow_nan=False)


# -- chaos acceptance --------------------------------------------------------------
class TestChaosAcceptance:
    def test_full_chaos_mix_matches_fault_free_sequential_run(self, fitted, batches):
        _, _, detector = fitted
        injector = FaultInjector.from_spec(
            "sink_raise@every=1;nan_rows@rate=0.05", seed=7
        )

        ref_sink = ListSink()
        reference = DetectionService(detector, threshold="auto", sinks=[ref_sink])
        ref_results = [
            reference.process_batch(X) for X in _delete_poisoned(injector, batches)
        ]

        healthy = ListSink()
        service = DetectionService(
            detector,
            threshold="auto",
            sinks=injector.wrap_sinks([ListSink()]) + [healthy],
        )
        results = list(service.process(injector.corrupt_stream(batches)))
        report = service.report()

        # Identical outcome: same alerts (stream sample indices), same scores,
        # same epochs — the faults were absorbed, not reflected in the output.
        assert _alert_tuples(ref_sink.events)
        assert _alert_tuples(healthy.events) == _alert_tuples(ref_sink.events)
        assert len(results) == len(ref_results)
        for result, ref_result in zip(results, ref_results):
            np.testing.assert_array_equal(result.scores, ref_result.scores)
            np.testing.assert_array_equal(result.predictions, ref_result.predictions)
            assert result.model_epoch == 0
        assert report.n_batches == len(batches)
        assert report.n_samples == reference.report().n_samples

        # Every degradation left its auditable event: the raising sink was
        # disabled mid-stream, and the quarantine ledger is exact.
        assert report.n_disabled_sinks >= 1
        assert any(isinstance(e, SinkDisabled) for e in healthy.events)
        total_poisoned = sum(
            injector.poisoned_rows(i, X.shape[0]).size for i, X in enumerate(batches)
        )
        assert total_poisoned > 0
        assert report.n_quarantined == total_poisoned
        quarantined = [e for e in healthy.events if isinstance(e, QuarantinedRows)]
        assert sum(e.n_rows for e in quarantined) == total_poisoned
        for event in quarantined:
            np.testing.assert_array_equal(
                np.asarray(event.row_indices),
                injector.poisoned_rows(
                    event.batch_index, batches[event.batch_index].shape[0]
                ),
            )
        json.dumps(report.to_dict(), allow_nan=False)


class TestRegistryCrashSafety:
    def test_torn_artifact_write_is_quarantined_and_previous_version_serves(
        self, fitted, tmp_path
    ):
        _, normal, detector = fitted
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(detector, "ids")
        v2 = registry.publish(detector, "ids")
        torn = FaultInjector.tear_version(v2.path)
        assert "sha mismatch" in torn

        recovered_registry = ModelRegistry(tmp_path / "registry")
        assert len(recovered_registry.recovered_) == 1
        event = recovered_registry.recovered_[0]
        assert event.name == "ids" and event.version_dir == "v2"
        assert "sha256 mismatch" in event.reason
        assert Path(event.quarantined_to).is_dir()
        assert ".corrupt" in event.quarantined_to

        # The previous good version keeps serving, and the loaded model works.
        info = recovered_registry.resolve("ids")
        assert info.version == 1
        model = recovered_registry.load("ids")
        np.testing.assert_array_equal(
            model.score_samples(normal[:16]), detector.score_samples(normal[:16])
        )
        # The quarantine is on the audit trail.
        records = recovered_registry.history("ids")
        assert any(r.get("type") == "registry_recover" for r in records)

    def test_missing_manifest_is_quarantined(self, fitted, tmp_path):
        _, _, detector = fitted
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(detector, "ids")
        v2 = registry.publish(detector, "ids")
        (v2.path / "manifest.json").unlink()

        recovered_registry = ModelRegistry(tmp_path / "registry")
        assert len(recovered_registry.recovered_) == 1
        assert "manifest.json missing" in recovered_registry.recovered_[0].reason
        assert recovered_registry.resolve("ids").version == 1

    def test_orphaned_tmp_publish_dir_is_swept(self, fitted, tmp_path):
        _, _, detector = fitted
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(detector, "ids")
        orphan = tmp_path / "registry" / "ids" / ".tmp-v2-4242"
        orphan.mkdir()
        (orphan / "manifest.json").write_text("{}")

        recovered_registry = ModelRegistry(tmp_path / "registry")
        assert len(recovered_registry.recovered_) == 1
        assert "orphaned temp" in recovered_registry.recovered_[0].reason
        assert not orphan.exists()
        assert recovered_registry.versions("ids") == [1]

    def test_publish_never_reuses_a_quarantined_version_number(self, fitted, tmp_path):
        _, _, detector = fitted
        root = tmp_path / "registry"
        registry = ModelRegistry(root)
        registry.publish(detector, "ids")  # v1
        FaultInjector.tear_version(registry.publish(detector, "ids").path)

        registry = ModelRegistry(root)  # quarantines v2 -> .corrupt/v2
        assert registry.versions("ids") == [1]
        assert registry.publish(detector, "ids").version == 3
        FaultInjector.tear_version(registry.publish(detector, "ids").path)  # v4

        registry = ModelRegistry(root)
        assert registry.versions("ids") == [1, 3]
        assert registry.publish(detector, "ids").version == 5
        corrupt = sorted(p.name for p in (root / "ids" / ".corrupt").iterdir())
        assert corrupt == ["v2", "v4"]

    def test_quarantine_name_collisions_get_numeric_suffixes(self, fitted, tmp_path):
        _, _, detector = fitted
        root = tmp_path / "registry"
        ModelRegistry(root).publish(detector, "ids")  # v1
        for _ in range(2):
            # A publisher that died again under a recycled pid leaves the
            # same temp name; the second casualty cannot shadow the first.
            (root / "ids" / ".tmp-v2-4242").mkdir()
            ModelRegistry(root)
        corrupt = sorted(p.name for p in (root / "ids" / ".corrupt").iterdir())
        assert corrupt == [".tmp-v2-4242", ".tmp-v2-4242.1"]

    def test_publish_retries_transient_io_errors(self, fitted, tmp_path, monkeypatch):
        _, _, detector = fitted
        import repro.serve.registry as registry_module

        failures = {"left": 1}
        real_save = registry_module.save_snapshot

        def flaky_save(model, path, **kwargs):
            if failures["left"] > 0:
                failures["left"] -= 1
                raise OSError("transient disk hiccup")
            return real_save(model, path, **kwargs)

        monkeypatch.setattr(registry_module, "save_snapshot", flaky_save)
        registry = ModelRegistry(tmp_path / "registry")
        info = registry.publish(detector, "ids")
        assert info.version == 1
        assert registry.resolve("ids").version == 1
        assert failures["left"] == 0

    def test_resolve_error_paths(self, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        with pytest.raises(KeyError, match="no published versions"):
            registry.resolve("ghost")
        with pytest.raises(KeyError, match="no pinned version"):
            registry.resolve("ghost", "pinned")
        with pytest.raises(ValueError, match="invalid model name"):
            registry.resolve("../escape")
        with pytest.raises(ValueError, match="unrecognised version selector"):
            registry.resolve("ghost", "vlatest")
        assert registry.models() == []
        assert registry.versions("ghost") == []

    def test_missing_version_raises_keyerror(self, fitted, tmp_path):
        _, _, detector = fitted
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish(detector, "ids")
        with pytest.raises(KeyError, match="no version v9"):
            registry.resolve("ids", 9)


class TestHistoryLineage:
    def test_append_leaves_no_temp_files_behind(self, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        registry.append_history("ids", {"action": "refit"})
        leftovers = [
            p.name
            for p in (tmp_path / "registry" / "ids").iterdir()
            if ".tmp-" in p.name
        ]
        assert leftovers == []

    def test_history_of_unknown_model_is_empty(self, tmp_path):
        registry = ModelRegistry(tmp_path / "registry")
        assert registry.history("ghost") == []


# -- snapshot error paths ----------------------------------------------------------
class TestSnapshotErrorPaths:
    def test_load_with_missing_arrays_file_raises_snapshot_error(
        self, fitted, tmp_path
    ):
        _, _, detector = fitted
        path = tmp_path / "snap"
        save_snapshot(detector, path)
        (path / "arrays.npz").unlink()
        with pytest.raises(SnapshotError, match="missing artifact"):
            load_snapshot(path)

    def test_load_with_corrupted_arrays_raises_snapshot_error(self, fitted, tmp_path):
        _, _, detector = fitted
        path = tmp_path / "snap"
        save_snapshot(detector, path)
        FaultInjector.tear_version(path)
        with pytest.raises(SnapshotError, match="sha256"):
            load_snapshot(path)

    def test_snapshot_write_leaves_no_temp_files(self, fitted, tmp_path):
        _, _, detector = fitted
        path = tmp_path / "snap"
        save_snapshot(detector, path)
        assert not [p.name for p in path.iterdir() if ".tmp" in p.name]
        load_snapshot(path)  # round-trips after the atomic rename


# -- drift monitor poison guards ---------------------------------------------------
class TestDriftMonitorPoisonGuards:
    def test_non_finite_reference_is_rejected(self):
        monitor = DriftMonitor()
        with pytest.raises(ValueError, match="non-finite"):
            monitor.set_reference(scores=np.array([0.1, np.nan, 0.3]))
        with pytest.raises(ValueError, match="non-finite"):
            monitor.set_reference(X=np.array([[0.0, 1.0], [np.inf, 2.0]]))

    def test_non_finite_rows_never_enter_the_windows(self):
        monitor = DriftMonitor(window=64, min_samples=8, cooldown=0)
        scores = np.array([0.1, np.nan, 0.2, np.inf, 0.3])
        X = np.ones((5, 2))
        X[2] = np.nan  # a finite score whose features are poisoned
        report = monitor.update(scores, X)
        assert report.n_samples_seen == 2  # rows 0 and 4 survive both filters
        assert monitor._scores.count == 2
        assert np.isfinite(monitor._scores.values()).all()
        assert np.isfinite(monitor._features.values()).all()

    def test_bootstrap_reference_uses_only_finite_samples(self):
        monitor = DriftMonitor(window=64, min_samples=4, track_features=False)
        monitor.update(np.array([np.nan, np.nan, np.nan]))
        assert monitor._score_ref is None  # poison alone cannot bootstrap
        report = monitor.update(np.array([1.0, 1.1, 0.9, 1.0]))
        assert monitor._score_ref is not None
        assert np.isfinite(monitor._score_ref[0])
        assert np.isfinite(report.score_shift)

    def test_all_nan_batch_is_a_no_op(self):
        monitor = DriftMonitor(window=64, min_samples=2, track_features=False)
        monitor.update(np.array([1.0, 1.0, 1.0]))
        before = monitor._n_seen
        report = monitor.update(np.full(10, np.nan))
        assert monitor._n_seen == before
        assert not report.drifted


# -- lifecycle lineage isolation ---------------------------------------------------
class _FlakyRegistry:
    """append_history fails ``n_failures`` times, then persists in memory."""

    def __init__(self, n_failures):
        self.n_failures = n_failures
        self.records = []

    def append_history(self, name, payload):
        if self.n_failures > 0:
            self.n_failures -= 1
            raise OSError("disk full")
        self.records.append((name, payload))


class TestLifecycleRecordIsolation:
    def test_persistent_history_failure_warns_and_keeps_the_event(self):
        sink = ListSink()
        manager = LifecycleManager(
            NoRefit(), registry=_FlakyRegistry(10**6), model_name="ids", sinks=[sink]
        )
        event = LifecycleEvent(action="reload", policy="reload")
        with pytest.warns(UserWarning, match="failed to persist"):
            manager.record(event)
        assert manager.events == [event]  # in-memory lineage survives
        assert sink.events == [event]  # and the sinks still heard about it

    def test_transient_history_failure_is_retried_silently(self, recwarn):
        registry = _FlakyRegistry(1)
        manager = LifecycleManager(NoRefit(), registry=registry, model_name="ids")
        manager.record(LifecycleEvent(action="reload", policy="reload"))
        assert len(registry.records) == 1
        assert not [w for w in recwarn if issubclass(w.category, UserWarning)]


# -- graceful shutdown -------------------------------------------------------------
class TestGracefulShutdown:
    def test_keyboard_interrupt_returns_130_and_flushes_sinks(self, fitted):
        from repro.serve.cli import _serve_stream

        _, normal, detector = fitted
        sink = ListSink()
        service = DetectionService(detector, threshold="auto", sinks=[sink])

        def interrupted_stream():
            yield normal[:32]
            yield normal[32:64]
            raise KeyboardInterrupt

        assert _serve_stream(service, interrupted_stream()) == 130
        assert service.n_batches_ == 2  # the partial report covers real work
        report = service.report()
        assert report.n_samples == 64
        json.dumps(report.to_dict(), allow_nan=False)

    def test_sigterm_returns_143_and_restores_the_previous_handler(self, fitted):
        from repro.serve.cli import _serve_stream

        _, normal, detector = fitted
        service = DetectionService(detector, threshold="auto")

        def terminated_stream():
            yield normal[:32]
            os.kill(os.getpid(), signal.SIGTERM)
            yield normal[32:64]  # the handler fires before this is scored
            raise AssertionError("SIGTERM was swallowed")

        sentinel_calls = []
        previous = signal.signal(
            signal.SIGTERM, lambda *_: sentinel_calls.append(1)
        )
        try:
            assert _serve_stream(service, terminated_stream()) == 143
            handler = signal.getsignal(signal.SIGTERM)
            assert handler is not signal.SIG_DFL
            os.kill(os.getpid(), signal.SIGTERM)
            assert sentinel_calls  # the pre-existing handler is back in charge
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert service.n_batches_ >= 1

    def test_cli_rejects_a_bad_fault_spec_before_any_training(self, tmp_path):
        env = dict(os.environ)
        src_dir = str(Path(__file__).resolve().parents[2] / "src")
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = (
            f"{src_dir}{os.pathsep}{existing}" if existing else src_dir
        )
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.experiments.cli",
                "serve",
                "--dataset",
                "wustl_iiot",
                "--scale",
                "0.001",
                "--inject-faults",
                "disk_full",
            ],
            capture_output=True,
            text=True,
            timeout=120,
            env=env,
        )
        assert result.returncode != 0
        assert "unknown fault" in result.stderr
        assert "Traceback" not in result.stderr
