"""Directory-backed model registry: named, versioned snapshots on disk.

Layout::

    <root>/
        <name>/
            v1/            # snapshot (manifest.json + arrays.npz)
            v2/
            pin.json       # {"version": 1} when a version is pinned
            history.jsonl  # lifecycle event lineage (one JSON object per line)

Versions are monotonically increasing integers assigned by :meth:`publish`;
a number the recovery scan quarantined is never assigned again.
``resolve``/``load`` accept an explicit version, ``"latest"``, ``"pinned"``,
or ``None`` (pinned when a pin exists, otherwise latest) — so a deployment can
follow the newest model by default but be frozen to a known-good version with
one :meth:`pin` call, without touching the serving code.

Crash safety
------------
:meth:`publish` is atomic: it saves into a hidden ``.tmp-*`` directory and
``os.replace``-renames it into place, so a ``kill -9`` at any point leaves
either the old version set or the new one, never a half-written version.
:meth:`append_history` appends one line through
:class:`~repro.serve.sinks.JsonlSink` and fsyncs it; :meth:`history` reads
with :func:`~repro.serve.sinks.read_events`, which drops a torn trailing
record with a warning, and the next append cuts that torn tail off first.
Concurrent writers on one model are serialized through an ``flock``-based
lock file (POSIX; a no-op where :mod:`fcntl` is unavailable).  On
construction a recovery scan (:meth:`recover`) quarantines whatever an
earlier crash may have left behind — orphaned temp directories, version
directories with a missing/unreadable manifest or a SHA-256 mismatch against
their artifacts — into ``<name>/.corrupt/``, records a ``registry_recover``
lineage event, and lets ``resolve`` keep serving the newest intact version.
"""

from __future__ import annotations

import json
import os
import re
import shutil
from contextlib import closing, contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

try:
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.serve.faults import RegistryRecovery, call_with_retry
from repro.serve.sinks import JsonlSink, read_events
from repro.serve.snapshot import (
    _sha256_file,
    load_snapshot,
    read_manifest,
    save_snapshot,
)

__all__ = ["ModelRegistry", "SnapshotInfo"]

_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]*$")
_VERSION_DIR = re.compile(r"^v(\d+)$")
#: A live ``v{N}`` or a quarantined ``.corrupt/v{N}[.k]``: numbers ``publish`` skips.
_USED_VERSION = re.compile(r"^v(\d+)(?:\.\d+)?$")
_PIN_FILE = "pin.json"
_HISTORY_FILE = "history.jsonl"
_LOCK_FILE = ".lock"
_CORRUPT_DIR = ".corrupt"
_TMP_PREFIX = ".tmp-"


@dataclass(frozen=True)
class SnapshotInfo:
    """A resolved registry entry."""

    name: str
    version: int
    path: Path

    @property
    def manifest(self) -> dict[str, Any]:
        """Parsed snapshot manifest (class, creation time, metadata)."""
        return read_manifest(self.path)


def _check_name(name: str) -> str:
    if not _NAME_PATTERN.match(name):
        raise ValueError(
            f"invalid model name {name!r}: use letters, digits, '.', '_' or '-'"
        )
    return name


class ModelRegistry:
    """Store and resolve named, versioned model snapshots under one directory.

    Parameters
    ----------
    root:
        Registry directory; created (with parents) if missing.
    recover:
        Run the startup recovery scan (see :meth:`recover`); the quarantined
        entries, if any, are kept in :attr:`recovered_`.  Disable only in
        tests that stage corruption deliberately.
    """

    def __init__(self, root: str | Path, *, recover: bool = True) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.recovered_: list[RegistryRecovery] = self.recover() if recover else []

    # -- write serialization -----------------------------------------------------
    @contextmanager
    def _writer_lock(self, name: str) -> Iterator[None]:
        """Exclusive per-model writer lock (``flock`` on ``<name>/.lock``).

        Serializes publishes/appends from concurrent processes on POSIX; a
        no-op where :mod:`fcntl` is unavailable — the atomic renames and
        one-line appends then still keep writes whole, just not in order.
        """
        model_dir = self.root / name
        model_dir.mkdir(parents=True, exist_ok=True)
        if fcntl is None:  # pragma: no cover - non-POSIX platforms
            yield
            return
        with open(model_dir / _LOCK_FILE, "w") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    # -- queries ---------------------------------------------------------------
    def models(self) -> list[str]:
        """Sorted names that have at least one published version.

        Directories that are not valid model names (editor droppings,
        ``__pycache__``, ...) are skipped rather than treated as corruption.
        """
        return sorted(
            entry.name
            for entry in self.root.iterdir()
            if entry.is_dir()
            and _NAME_PATTERN.match(entry.name)
            and self.versions(entry.name)
        )

    def versions(self, name: str) -> list[int]:
        """Ascending published versions of ``name`` (empty when unknown)."""
        model_dir = self.root / _check_name(name)
        if not model_dir.is_dir():
            return []
        found = []
        for entry in model_dir.iterdir():
            match = _VERSION_DIR.match(entry.name)
            if match and (entry / "manifest.json").is_file():
                found.append(int(match.group(1)))
        return sorted(found)

    def latest_version(self, name: str) -> int:
        versions = self.versions(name)
        if not versions:
            raise KeyError(f"no published versions of model {name!r} in {self.root}")
        return versions[-1]

    def pinned_version(self, name: str) -> int | None:
        """The pinned version of ``name``, or ``None`` when nothing is pinned."""
        pin_path = self.root / _check_name(name) / _PIN_FILE
        if not pin_path.is_file():
            return None
        return int(json.loads(pin_path.read_text())["version"])

    def resolve(self, name: str, version: int | str | None = None) -> SnapshotInfo:
        """Resolve a version selector to a concrete :class:`SnapshotInfo`.

        ``version`` may be an int, ``"v3"``-style string, ``"latest"``,
        ``"pinned"``, or ``None`` (pinned when a pin exists, else latest).
        """
        name = _check_name(name)
        if version is None:
            pinned = self.pinned_version(name)
            resolved = pinned if pinned is not None else self.latest_version(name)
        elif version == "latest":
            resolved = self.latest_version(name)
        elif version == "pinned":
            pinned = self.pinned_version(name)
            if pinned is None:
                raise KeyError(f"model {name!r} has no pinned version")
            resolved = pinned
        else:
            if isinstance(version, str):
                match = _VERSION_DIR.match(version)
                if not match and not version.isdigit():
                    raise ValueError(f"unrecognised version selector {version!r}")
                resolved = int(match.group(1)) if match else int(version)
            else:
                resolved = int(version)
        path = self.root / name / f"v{resolved}"
        if not (path / "manifest.json").is_file():
            raise KeyError(f"model {name!r} has no version v{resolved} in {self.root}")
        return SnapshotInfo(name=name, version=resolved, path=path)

    # -- lifecycle lineage -----------------------------------------------------
    def history_path(self, name: str) -> Path:
        """Path of ``name``'s lineage file (may not exist yet)."""
        return self.root / _check_name(name) / _HISTORY_FILE

    def append_history(self, name: str, payload: dict[str, Any]) -> Path:
        """Append one lineage record (a JSON-serializable dict) for ``name``.

        The lifecycle manager persists every :class:`LifecycleEvent` here
        (``LifecycleEvent.to_dict()``), next to the versions the events
        produced, so an operator can audit *why* each version was published
        — or a candidate rejected — after the serving process has exited.
        The file is append-only and survives :meth:`gc` (pruning old model
        artifacts must not erase the audit trail).  The record goes through
        :class:`~repro.serve.sinks.JsonlSink` under the writer lock, and the
        sink is closed (fsynced) before the lock is released.  A failed write
        leaves the file at its last complete record, and transient
        ``OSError``\\ s are retried with backoff.
        """
        name = _check_name(name)
        path = self.history_path(name)

        def _write() -> None:
            with closing(JsonlSink(path)) as sink:
                sink.append(payload)

        with self._writer_lock(name):
            call_with_retry(_write)
        return path

    def history(self, name: str) -> list[dict[str, Any]]:
        """Replay ``name``'s lineage records, oldest first (empty when none).

        Read with :func:`~repro.serve.sinks.read_events`: a torn trailing
        record is skipped with a warning, corruption anywhere before it
        raises ``ValueError``.
        """
        path = self.history_path(name)
        return read_events(path) if path.is_file() else []

    # -- recovery --------------------------------------------------------------
    @staticmethod
    def _diagnose(version_dir: Path) -> str | None:
        """Why ``version_dir`` is unservable, or ``None`` when it is intact."""
        try:
            manifest = read_manifest(version_dir)
        except FileNotFoundError:
            return "manifest.json missing (crash before the manifest write)"
        except ValueError as exc:  # SnapshotError and json decode errors
            return f"unreadable manifest: {exc}"
        for artifact_name, info in (manifest.get("artifacts") or {}).items():
            artifact_path = version_dir / artifact_name
            if not artifact_path.is_file():
                return f"artifact {artifact_name!r} missing"
            expected = info.get("sha256")
            if expected is not None and _sha256_file(artifact_path) != expected:
                return f"artifact {artifact_name!r} sha256 mismatch (torn write)"
        return None

    def _quarantine(self, name: str, entry: Path, reason: str) -> RegistryRecovery:
        corrupt_dir = self.root / name / _CORRUPT_DIR
        corrupt_dir.mkdir(exist_ok=True)
        target = corrupt_dir / entry.name
        suffix = 0
        while target.exists():
            suffix += 1
            target = corrupt_dir / f"{entry.name}.{suffix}"
        os.replace(entry, target)
        return RegistryRecovery(
            name=name,
            version_dir=entry.name,
            reason=reason,
            quarantined_to=str(target),
        )

    def recover(self, name: str | None = None) -> list[RegistryRecovery]:
        """Quarantine partial/corrupt versions into ``<name>/.corrupt/``.

        Scans one model (or all of them) for what a crash mid-publish can
        leave behind — orphaned ``.tmp-*`` publish directories, and version
        directories whose manifest is missing/unreadable or whose artifacts
        fail their manifest SHA-256 — and moves each offender aside so
        ``resolve``/``latest_version`` keep serving the newest *intact*
        version.  Every quarantine appends a ``registry_recover`` lineage
        record and is returned as a
        :class:`~repro.serve.faults.RegistryRecovery` event.  Runs on every
        :class:`ModelRegistry` construction by default.
        """
        if name is not None:
            names = [_check_name(name)]
        else:
            names = sorted(
                entry.name
                for entry in self.root.iterdir()
                if entry.is_dir() and _NAME_PATTERN.match(entry.name)
            )
        recovered: list[RegistryRecovery] = []
        for model_name in names:
            model_dir = self.root / model_name
            if not model_dir.is_dir():
                continue
            with self._writer_lock(model_name):
                for entry in sorted(model_dir.iterdir()):
                    if not entry.is_dir():
                        continue
                    if entry.name.startswith(_TMP_PREFIX):
                        recovered.append(
                            self._quarantine(
                                model_name,
                                entry,
                                "orphaned temp publish directory "
                                "(crash mid-publish)",
                            )
                        )
                        continue
                    if _VERSION_DIR.match(entry.name):
                        reason = self._diagnose(entry)
                        if reason is not None:
                            recovered.append(
                                self._quarantine(model_name, entry, reason)
                            )
        # Outside the lock: append_history takes the same flock, and flock
        # is per open-file-description, so nesting would deadlock.
        for event in recovered:
            self.append_history(event.name, event.to_dict())
        return recovered

    # -- mutation --------------------------------------------------------------
    def publish(
        self, model: Any, name: str, *, metadata: dict[str, Any] | None = None
    ) -> SnapshotInfo:
        """Save ``model`` as the next version of ``name`` and return its info.

        Atomic: the snapshot is written into a hidden ``.tmp-*`` sibling and
        renamed into ``v{N}`` in one ``os.replace`` — a reader (or a crash)
        never observes a half-written version, and the recovery scan sweeps
        any orphaned temp directory a dead publisher left behind.  Transient
        ``OSError``\\ s during the snapshot write are retried with backoff.
        """
        name = _check_name(name)
        with self._writer_lock(name):
            version = self._next_version(name)
            path = self.root / name / f"v{version}"
            tmp = self.root / name / f"{_TMP_PREFIX}v{version}-{os.getpid()}"
            try:
                call_with_retry(
                    lambda: save_snapshot(
                        model, tmp, metadata=metadata, overwrite=True
                    )
                )
                os.replace(tmp, path)
            except BaseException:
                shutil.rmtree(tmp, ignore_errors=True)
                raise
        return SnapshotInfo(name=name, version=version, path=path)

    def _next_version(self, name: str) -> int:
        """One above every number ``name`` has used, quarantined ones included.

        Numbering from :meth:`versions` alone would give a version that
        :meth:`recover` moved to ``.corrupt/`` to the next, different model,
        and the lineage would then name two models by one number.
        """
        model_dir = self.root / name
        used = [0]
        for directory in (model_dir, model_dir / _CORRUPT_DIR):
            if directory.is_dir():
                for entry in directory.iterdir():
                    match = _USED_VERSION.match(entry.name)
                    if match:
                        used.append(int(match.group(1)))
        return max(used) + 1

    def load(self, name: str, version: int | str | None = None) -> Any:
        """Load the model behind ``resolve(name, version)``.

        Transient ``OSError``\\ s are retried with backoff; corruption
        (:class:`~repro.serve.snapshot.SnapshotError`) is not — a bad
        snapshot will not heal by rereading it.
        """
        info = self.resolve(name, version)
        return call_with_retry(lambda: load_snapshot(info.path))

    def pin(self, name: str, version: int | str) -> SnapshotInfo:
        """Pin ``name`` to a published version; ``resolve(name)`` now returns it."""
        info = self.resolve(name, version)
        pin_path = self.root / info.name / _PIN_FILE
        pin_path.write_text(json.dumps({"version": info.version}) + "\n")
        return info

    def unpin(self, name: str) -> None:
        """Remove the pin of ``name`` (a no-op when nothing is pinned)."""
        pin_path = self.root / _check_name(name) / _PIN_FILE
        if pin_path.is_file():
            pin_path.unlink()

    def delete_version(self, name: str, version: int | str) -> None:
        """Delete one published version (refuses to delete a pinned version)."""
        info = self.resolve(name, version)
        if self.pinned_version(name) == info.version:
            raise ValueError(
                f"model {name!r} is pinned to v{info.version}; unpin before deleting"
            )
        shutil.rmtree(info.path)

    def gc(self, name: str | None = None, *, keep: int = 3) -> list[SnapshotInfo]:
        """Prune old versions, keeping the newest ``keep`` per model.

        An online-refit lifecycle publishes a new version per accepted
        candidate, so registries grow without bound; ``gc`` is the retention
        policy.  A pinned version is always kept (on top of the newest
        ``keep``), so freezing a deployment to a known-good model survives
        any later cleanup.  Returns the deleted entries, oldest first.

        Parameters
        ----------
        name:
            Prune a single model, or every model when ``None``.
        keep:
            Number of newest versions to retain per model (at least 1).
        """
        if keep < 1:
            raise ValueError("keep must be at least 1 (gc must not empty a model)")
        names = [_check_name(name)] if name is not None else self.models()
        deleted: list[SnapshotInfo] = []
        for model_name in names:
            versions = self.versions(model_name)
            survivors = set(versions[-keep:])
            pinned = self.pinned_version(model_name)
            if pinned is not None:
                survivors.add(pinned)
            for version in versions:
                if version in survivors:
                    continue
                path = self.root / model_name / f"v{version}"
                shutil.rmtree(path)
                deleted.append(
                    SnapshotInfo(name=model_name, version=version, path=path)
                )
        return deleted
