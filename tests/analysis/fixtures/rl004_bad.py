"""Known-bad RL004 snippets: emitted events with broken to_dict schemas."""

from dataclasses import asdict, dataclass


@dataclass
class NoDict:  # BAD: emitted through sinks but defines no to_dict
    batch_index: int


@dataclass
class MissingType:
    batch_index: int

    def to_dict(self):  # BAD: no 'type' discriminator key
        return {"batch_index": self.batch_index}


@dataclass
class Opaque:
    batch_index: int

    def to_dict(self):  # BAD: keys not statically literal
        return asdict(self)


@dataclass
class BatchedMissingType:
    sample_index: int

    def to_dict(self):  # BAD: emitted only as a starred batch, no 'type' key
        return {"sample_index": self.sample_index}


class Emitter:
    def __init__(self, sinks):
        self.sinks = sinks

    def _emit(self, *events):
        for sink in self.sinks:
            sink.emit_many(events)

    def run(self):
        self._emit(NoDict(batch_index=0))
        self._emit(MissingType(batch_index=1))
        self._emit(Opaque(batch_index=2))
        batch = tuple(BatchedMissingType(sample_index=i) for i in range(3))
        self._emit(*batch)
