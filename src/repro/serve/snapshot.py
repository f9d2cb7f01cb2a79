"""Pickle-free model snapshots: a versioned JSON manifest plus one ``.npz``.

A snapshot is a directory::

    <snapshot>/
        manifest.json   # format version, root class, object graph, metadata
        arrays.npz      # every ndarray of the model state, keyed by the graph

``manifest.json`` stores the model as an explicit object graph: a flat list of
``{"t": "obj", "cls": "module:QualName", "attrs": {...}}`` entries referenced
by index, so shared objects (a random generator passed down to sub-estimators,
sub-detectors of an ensemble) stay shared after loading.  Arrays are stored in
the ``.npz`` and referenced by key.  Nothing is ever ``eval``-ed or unpickled:
loading imports classes by name — restricted to this package — allocates them
with ``cls.__new__`` and fills ``__dict__`` from the manifest.

Caches that are cheap to rebuild or only serve the retained naive reference
implementations (linked tree nodes, layer activation caches, lazily compiled
single-tree forests) are declared *transient* via a ``_snapshot_transient_``
class attribute and round-trip as ``None``; every scoring path used in
deployment works on the persisted arrays alone and reproduces the original
scores bit for bit.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
from datetime import datetime, timezone
from pathlib import Path
from typing import Any

import numpy as np

from repro._version import __version__

__all__ = [
    "SNAPSHOT_FORMAT_VERSION",
    "SnapshotError",
    "save_snapshot",
    "load_snapshot",
    "read_manifest",
]

#: Format version written to every manifest; the loader rejects anything newer.
SNAPSHOT_FORMAT_VERSION = 1

MANIFEST_NAME = "manifest.json"
ARRAYS_NAME = "arrays.npz"

#: Only classes from these top-level packages may be instantiated on load.
_ALLOWED_PACKAGES = ("repro",)


class SnapshotError(ValueError):
    """Raised when model state cannot be serialized or a snapshot is invalid."""


def _sha256_file(path: Path) -> str:
    """Streaming SHA-256 of a file (bounded memory for large array stores)."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _transient_attrs(cls: type) -> frozenset:
    """Union of ``_snapshot_transient_`` declarations across the class MRO."""
    names: set[str] = set()
    for base in cls.__mro__:
        names.update(getattr(base, "_snapshot_transient_", ()) or ())
    return frozenset(names)


def _class_path(cls: type) -> str:
    return f"{cls.__module__}:{cls.__qualname__}"


def _resolve_class(path: str) -> type:
    module_name, _, qualname = path.partition(":")
    package = module_name.split(".", 1)[0]
    if package not in _ALLOWED_PACKAGES or not qualname:
        raise SnapshotError(f"snapshot references a disallowed class {path!r}")
    try:
        module = importlib.import_module(module_name)
    except ModuleNotFoundError as exc:
        # A missing module the reference names (or a parent of it) is an
        # unknown class; an import failing inside an existing module is not.
        if exc.name is None or not f"{module_name}.".startswith(f"{exc.name}."):
            raise
        raise SnapshotError(f"snapshot references unknown class {path!r}") from exc
    obj: Any = module
    for part in qualname.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            raise SnapshotError(f"snapshot references unknown class {path!r}")
    if not isinstance(obj, type):
        raise SnapshotError(f"snapshot class reference {path!r} is not a class")
    return obj


def _jsonify_rng_state(value: Any) -> Any:
    """Bit-generator state with any ndarray leaves made JSON-safe."""
    if isinstance(value, dict):
        return {k: _jsonify_rng_state(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        return {"__nd__": value.tolist(), "dtype": str(value.dtype)}
    if isinstance(value, np.generic):
        return value.item()
    return value


def _restore_rng_state(value: Any) -> Any:
    if isinstance(value, dict):
        if "__nd__" in value:
            return np.asarray(value["__nd__"], dtype=value["dtype"])
        return {k: _restore_rng_state(v) for k, v in value.items()}
    return value


class _Encoder:
    """Walk a model's object graph into JSON specs plus an array store."""

    def __init__(self) -> None:
        self.arrays: dict[str, np.ndarray] = {}
        self.objects: list[dict[str, Any]] = []
        self._object_memo: dict[int, int] = {}
        self._array_memo: dict[int, str] = {}
        self._path: list[str] = []

    def encode(self, value: Any) -> Any:
        if value is None or isinstance(value, (bool, str)):
            return value
        if isinstance(value, (int, float)):
            return value
        if isinstance(value, np.generic):
            return {"t": "np", "dtype": str(value.dtype), "v": value.item()}
        if isinstance(value, np.ndarray):
            return self._encode_array(value)
        if isinstance(value, (list, tuple)):
            kind = "list" if isinstance(value, list) else "tuple"
            items = []
            for i, item in enumerate(value):
                self._path.append(f"[{i}]")
                items.append(self.encode(item))
                self._path.pop()
            return {"t": kind, "v": items}
        if isinstance(value, dict):
            encoded: dict[str, Any] = {}
            for key, item in value.items():
                if not isinstance(key, str):
                    self._fail(f"dict key {key!r} is not a string")
                self._path.append(f"[{key!r}]")
                encoded[key] = self.encode(item)
                self._path.pop()
            return {"t": "dict", "v": encoded}
        if isinstance(value, np.random.Generator):
            return self._encode_object(value, self._rng_entry)
        if type(value).__module__.split(".", 1)[0] in _ALLOWED_PACKAGES:
            return self._encode_object(value, self._instance_entry)
        self._fail(f"cannot serialize a value of type {type(value).__name__}")
        raise AssertionError  # pragma: no cover - _fail always raises

    def _encode_array(self, value: np.ndarray) -> dict[str, Any]:
        if value.dtype == object:
            self._fail("object-dtype arrays are not serializable without pickle")
        key = self._array_memo.get(id(value))
        if key is None:
            key = f"a{len(self.arrays)}"
            self.arrays[key] = value
            self._array_memo[id(value)] = key
        return {"t": "nd", "k": key}

    def _encode_object(self, value: Any, make_entry) -> dict[str, Any]:
        index = self._object_memo.get(id(value))
        if index is None:
            index = len(self.objects)
            self._object_memo[id(value)] = index
            self.objects.append({})  # reserve the slot before recursing
            self.objects[index] = make_entry(value)
        return {"t": "ref", "i": index}

    def _rng_entry(self, rng: np.random.Generator) -> dict[str, Any]:
        bit_generator = rng.bit_generator
        return {
            "t": "rng",
            "bg": type(bit_generator).__name__,
            "state": _jsonify_rng_state(bit_generator.state),
        }

    def _instance_entry(self, value: Any) -> dict[str, Any]:
        cls = type(value)
        if not hasattr(value, "__dict__"):
            self._fail(f"instances of {cls.__name__} carry no __dict__")
        transient = _transient_attrs(cls)
        attrs: dict[str, Any] = {}
        for name, attr in vars(value).items():
            self._path.append(f".{name}")
            attrs[name] = None if name in transient else self.encode(attr)
            self._path.pop()
        return {"t": "obj", "cls": _class_path(cls), "attrs": attrs}

    def _fail(self, message: str) -> None:
        location = "".join(self._path) or "<root>"
        raise SnapshotError(f"at {location}: {message}")


class _Decoder:
    """Rebuild the object graph encoded by :class:`_Encoder`."""

    def __init__(self, objects: list[dict[str, Any]], arrays: dict[str, np.ndarray]) -> None:
        self._specs = objects
        self._arrays = arrays
        # Phase 1: allocate every instance so references (including any
        # cycles) resolve before attributes are filled in.
        self._instances: list[Any] = [self._allocate(spec) for spec in objects]
        for spec, instance in zip(objects, self._instances):
            if spec.get("t") == "obj":
                attrs = {
                    name: self.decode(attr_spec)
                    for name, attr_spec in spec["attrs"].items()
                }
                instance.__dict__.update(attrs)

    @staticmethod
    def _allocate(spec: dict[str, Any]) -> Any:
        kind = spec.get("t")
        if kind == "obj":
            cls = _resolve_class(spec["cls"])
            return cls.__new__(cls)
        if kind == "rng":
            bit_generator_cls = getattr(np.random, spec["bg"], None)
            if bit_generator_cls is None or not isinstance(bit_generator_cls, type):
                raise SnapshotError(f"unknown bit generator {spec['bg']!r}")
            bit_generator = bit_generator_cls()
            bit_generator.state = _restore_rng_state(spec["state"])
            return np.random.Generator(bit_generator)
        raise SnapshotError(f"unknown object entry kind {kind!r}")

    def decode(self, spec: Any) -> Any:
        if spec is None or isinstance(spec, (bool, int, float, str)):
            return spec
        if not isinstance(spec, dict):
            raise SnapshotError(f"malformed state spec of type {type(spec).__name__}")
        kind = spec.get("t")
        if kind == "ref":
            return self._instances[spec["i"]]
        if kind == "nd":
            try:
                return self._arrays[spec["k"]]
            except KeyError as exc:
                raise SnapshotError(f"missing array {spec['k']!r} in snapshot") from exc
        if kind == "np":
            return np.dtype(spec["dtype"]).type(spec["v"])
        if kind == "list":
            return [self.decode(item) for item in spec["v"]]
        if kind == "tuple":
            return tuple(self.decode(item) for item in spec["v"])
        if kind == "dict":
            return {key: self.decode(item) for key, item in spec["v"].items()}
        raise SnapshotError(f"unknown state spec kind {kind!r}")


def save_snapshot(
    model: Any,
    path: str | Path,
    *,
    metadata: dict[str, Any] | None = None,
    overwrite: bool = False,
) -> Path:
    """Persist ``model`` under the directory ``path`` and return that path.

    Parameters
    ----------
    model:
        Any estimator from this package (novelty detectors, tree ensembles,
        continual methods).
    path:
        Snapshot directory; created (with parents) if missing.
    metadata:
        Optional JSON-serializable extra information stored in the manifest
        (e.g. training dataset, operator notes).
    overwrite:
        Refuse to clobber an existing snapshot unless set.
    """
    path = Path(path)
    manifest_path = path / MANIFEST_NAME
    if manifest_path.exists() and not overwrite:
        raise FileExistsError(f"snapshot already exists at {path} (pass overwrite=True)")
    encoder = _Encoder()
    state = encoder.encode(model)
    manifest = {
        "format_version": SNAPSHOT_FORMAT_VERSION,
        "repro_version": __version__,
        "class": _class_path(type(model)),
        # Audit metadata: when the artifact was written. Never read back into
        # a scoring or decision path; identical snapshots differ only here.
        "created_at": datetime.now(timezone.utc).isoformat(),
        "metadata": metadata or {},
        "state": state,
        "objects": encoder.objects,
        "arrays_file": ARRAYS_NAME if encoder.arrays else None,
    }
    try:
        manifest_text = json.dumps(manifest, indent=2, sort_keys=True)
    except (TypeError, ValueError) as exc:
        raise SnapshotError(f"snapshot metadata is not JSON-serializable: {exc}") from exc
    path.mkdir(parents=True, exist_ok=True)
    if encoder.arrays:
        with open(path / ARRAYS_NAME, "wb") as handle:
            np.savez_compressed(handle, **encoder.arrays)
        # Content hash per artifact, written after the artifact so the
        # manifest vouches for the exact bytes on disk; load_snapshot
        # verifies it and refuses silently corrupted model state.
        manifest["artifacts"] = {
            ARRAYS_NAME: {"sha256": _sha256_file(path / ARRAYS_NAME)}
        }
        manifest_text = json.dumps(manifest, indent=2, sort_keys=True)
    # The manifest is written last and atomically: a crash mid-save leaves
    # either no manifest (the snapshot is invisible to the registry and
    # quarantined by its recovery scan) or a complete one that vouches for
    # the artifact bytes — never a torn file that parses as garbage.
    tmp_path = path / (MANIFEST_NAME + ".tmp")
    tmp_path.write_text(manifest_text + "\n")
    os.replace(tmp_path, manifest_path)
    return path


def read_manifest(path: str | Path) -> dict[str, Any]:
    """Return the parsed ``manifest.json`` of a snapshot directory."""
    manifest_path = Path(path) / MANIFEST_NAME
    if not manifest_path.is_file():
        raise FileNotFoundError(f"no snapshot manifest at {manifest_path}")
    manifest = json.loads(manifest_path.read_text())
    version = manifest.get("format_version")
    if not isinstance(version, int) or version < 1:
        raise SnapshotError(f"snapshot at {path} has an invalid format version {version!r}")
    if version > SNAPSHOT_FORMAT_VERSION:
        raise SnapshotError(
            f"snapshot at {path} uses format version {version}, but this build "
            f"only understands up to {SNAPSHOT_FORMAT_VERSION}"
        )
    return manifest


def load_snapshot(path: str | Path, *, expected_class: type | None = None) -> Any:
    """Rebuild the model stored at ``path``.

    Parameters
    ----------
    path:
        Snapshot directory written by :func:`save_snapshot`.
    expected_class:
        When given, the loaded object must be an instance of this class
        (subclasses allowed); ``TypeError`` is raised otherwise.
    """
    path = Path(path)
    manifest = read_manifest(path)
    for artifact_name, info in (manifest.get("artifacts") or {}).items():
        artifact_path = path / artifact_name
        if not artifact_path.is_file():
            raise SnapshotError(
                f"snapshot at {path} is missing artifact {artifact_name!r} "
                "listed in its manifest"
            )
        expected = info.get("sha256")
        if expected is not None:
            actual = _sha256_file(artifact_path)
            if actual != expected:
                raise SnapshotError(
                    f"snapshot artifact {artifact_name!r} at {path} is corrupted: "
                    f"sha256 {actual} does not match the manifest's {expected} "
                    "(re-publish the model or restore the file from backup)"
                )
    arrays: dict[str, np.ndarray] = {}
    if manifest.get("arrays_file"):
        with np.load(path / manifest["arrays_file"], allow_pickle=False) as stored:
            try:
                arrays = {key: stored[key] for key in stored.files}
            except ValueError as exc:  # an object array, which only pickle can load
                raise SnapshotError(f"snapshot at {path} refused: {exc}") from exc
    decoder = _Decoder(manifest.get("objects", []), arrays)
    model = decoder.decode(manifest["state"])
    if expected_class is not None and not isinstance(model, expected_class):
        raise TypeError(
            f"snapshot at {path} holds a {type(model).__name__}, "
            f"expected {expected_class.__name__}"
        )
    return model
