"""Layer tracing from outside the library: wrap public callables, keep spans.

:class:`LayerTracer` replaces a callable (a class method or a module-level
function) with a timing wrapper that records one span per call.  Each span
knows the span that was open when it started, so a layer's *self* time is its
duration minus the durations of the wrapped calls nested inside it.  Spans
stay in memory and are written once, by :meth:`LayerTracer.write_spans`,
after the measurement ends.

Every wrapped callable runs on the calling (main) thread: the library's
thread pools run native kernels and NumPy blocks, never a wrapped callable.
"""

from __future__ import annotations

import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

__all__ = ["LayerTracer"]


class LayerTracer:
    """Install timing wrappers around named layers and aggregate their spans."""

    def __init__(self) -> None:
        #: One ``(layer, parent_span_id, start_s, duration_s)`` per call.
        self.spans: list[tuple[str, int, float, float]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        #: Inclusive seconds keyed by ``(layer, parent_layer)``; the parent is
        #: ``None`` for a call made outside every wrapped layer.
        self.inclusive_s: dict[tuple[str, str | None], float] = defaultdict(float)
        self._stack: list[list] = []  # [span_id, layer, child_seconds]
        self._patches: list[tuple[Any, str, Any]] = []
        #: Calls made while inactive pass straight through, unrecorded (the
        #: correctness checks between measured passes score data too).
        self.active = False

    def wrap(
        self,
        owner: Any,
        attr: str,
        layer: str,
        on_call: Callable[[tuple, Any], None] | None = None,
    ) -> None:
        """Time every call of ``owner.attr`` as ``layer``.

        ``on_call(args, result)`` runs after a successful call, outside the
        timed interval, to record counts (rows, chosen k, ...).
        """
        # A class must define the method itself: patching an inherited one
        # would shadow it on the subclass only and hide the other callers.
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer, stack, spans = self, self._stack, self.spans
        self_s, calls, inclusive_s = self.self_s, self.calls, self.inclusive_s

        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return original(*args, **kwargs)
            parent = stack[-1] if stack else None
            frame = [len(spans), layer, 0.0]
            spans.append((layer, -1 if parent is None else parent[0], 0.0, 0.0))
            stack.append(frame)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                spans[frame[0]] = (layer, spans[frame[0]][1], start, duration)
                self_s[layer] += duration - frame[2]
                calls[layer] += 1
                inclusive_s[(layer, None if parent is None else parent[1])] += duration
                if parent is not None:
                    parent[2] += duration
            if on_call is not None:
                on_call(args, result)
            return result

        traced.__name__ = getattr(original, "__name__", attr)
        traced.__doc__ = getattr(original, "__doc__", None)
        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def close(self) -> None:
        """Restore every wrapped callable, newest first."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def __enter__(self) -> "LayerTracer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def total_self_s(self) -> float:
        return sum(self.self_s.values())

    def write_spans(self, path: Path) -> None:
        """Write the in-memory spans as JSONL (one span per line)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((span[2] for span in self.spans), default=0.0)
        with open(path, "w") as handle:
            for span_id, (layer, parent, start, duration) in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "parent": parent,
                            "layer": layer,
                            "start_ms": round(1e3 * (start - origin), 6),
                            "dur_ms": round(1e3 * duration, 6),
                        }
                    )
                    + "\n"
                )
