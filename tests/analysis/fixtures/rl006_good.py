"""Known-good RL006 twin (pretend path: repro/serve/service.py)."""

from contextlib import contextmanager


@contextmanager
def trace_span(stage, **kwargs):
    yield


def run_pipeline():
    with trace_span("batch"):
        pass
    with trace_span("quarantine_scan"):
        pass
    with trace_span("score"):
        pass
    with trace_span("threshold_update"):
        pass
    with trace_span("drift_check"):
        pass
    with trace_span("sink_emit"):
        pass
