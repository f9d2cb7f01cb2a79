"""Known-good RL004 twin: literal 'type' keys, delegation allowed."""

from dataclasses import dataclass


@dataclass
class GoodEvent:
    batch_index: int

    def to_dict(self):
        return {"type": "good", "batch_index": self.batch_index}


@dataclass
class WrapperEvent:
    inner: GoodEvent
    round_index: int = 0

    def to_dict(self):
        payload = self.inner.to_dict()
        payload["round_index"] = self.round_index
        return payload


@dataclass
class BatchedEvent:
    sample_index: int

    def to_dict(self):
        return {"type": "batched", "sample_index": self.sample_index}


class Emitter:
    def __init__(self, sinks):
        self.sinks = sinks

    def _emit(self, *events):
        for sink in self.sinks:
            sink.emit_many(events)

    def run(self):
        self._emit(GoodEvent(batch_index=0))
        self._emit(WrapperEvent(inner=GoodEvent(batch_index=1)))
        batch = tuple(BatchedEvent(sample_index=i) for i in range(3))
        self._emit(*batch)
