"""Known-bad RL006 twin (pretend path: repro/serve/service.py)."""  # BAD: 'score' missing

from contextlib import contextmanager


@contextmanager
def trace_span(stage, **kwargs):
    yield


def run_pipeline(stage_name):
    with trace_span("batch"):
        pass
    with trace_span("quarantine_scan"):
        pass
    with trace_span("threshold_update"):
        pass
    with trace_span("drift_check"):
        pass
    with trace_span("sink_emit"):
        pass
    with trace_span("scoer"):  # BAD: undeclared stage (typo)
        pass
    with trace_span(stage_name):  # BAD: stage name not a literal
        pass
