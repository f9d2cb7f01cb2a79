"""Committed baseline: grandfathered findings, each with a written reason.

The baseline is a small JSON file (``.reprolint-baseline.json`` at the repo
root) listing findings that are *deliberate* — e.g. the unseeded generator
behind ``check_random_state(None)``, which is that function's documented
contract.  Matching is line-drift tolerant: an entry matches on
``(rule, path, context, line_text)``, so unrelated edits above the finding
keep it grandfathered while any change to the offending line itself (or
moving it to another function) un-baselines it and fails the build until
re-justified.

Baselined findings are still reported (marked ``baselined``); they just do
not affect the exit code.  ``repro lint --write-baseline`` regenerates the
file from the current findings, with a placeholder reason the author must
replace — the tier-1 gate caps how many entries may exist, so the baseline
can only ever be a short, documented list, not a dumping ground.  Entries a
subset run (``--rules``, or a subtree path) could not re-check are carried
over unchanged.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Collection, Iterable, Sequence

from repro.analysis.findings import Finding

__all__ = ["Baseline", "BaselineEntry", "DEFAULT_BASELINE_NAME", "write_baseline"]

DEFAULT_BASELINE_NAME = ".reprolint-baseline.json"
FORMAT_VERSION = 1
_PLACEHOLDER_REASON = "TODO: justify this grandfathered finding or fix it"


@dataclass(frozen=True)
class BaselineEntry:
    rule: str
    path: str
    context: str
    line_text: str
    reason: str

    def matches(self, finding: Finding) -> bool:
        if self.rule != finding.rule or self.context != finding.context:
            return False
        if self.line_text != finding.line_text:
            return False
        return self.matches_path(finding.path)

    def matches_path(self, path: str) -> bool:
        # Suffix-tolerant path compare: the baseline stores repo-root
        # relative paths, but the CLI may be invoked from a subdirectory.
        return (
            path == self.path
            or path.endswith("/" + self.path)
            or self.path.endswith("/" + path)
        )

    def to_dict(self) -> dict:
        return {
            "rule": self.rule,
            "path": self.path,
            "context": self.context,
            "line_text": self.line_text,
            "reason": self.reason,
        }


class Baseline:
    """A set of grandfathered findings loaded from the committed file."""

    def __init__(self, entries: Sequence[BaselineEntry] = ()) -> None:
        self.entries = list(entries)

    def __len__(self) -> int:
        return len(self.entries)

    def matches(self, finding: Finding) -> bool:
        return any(entry.matches(finding) for entry in self.entries)

    def undocumented(self) -> list[BaselineEntry]:
        """Entries whose reason is missing or still the placeholder."""
        return [
            entry
            for entry in self.entries
            if not entry.reason.strip() or entry.reason == _PLACEHOLDER_REASON
        ]

    @classmethod
    def load(cls, path: str | Path) -> "Baseline":
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if payload.get("format_version") != FORMAT_VERSION:
            raise ValueError(
                f"unsupported baseline format_version in {path}: "
                f"{payload.get('format_version')!r}"
            )
        entries = [
            BaselineEntry(
                rule=item["rule"],
                path=item["path"],
                context=item.get("context", "<module>"),
                line_text=item.get("line_text", ""),
                reason=item.get("reason", ""),
            )
            for item in payload.get("findings", [])
        ]
        return cls(entries)


def write_baseline(
    path: str | Path,
    findings: Iterable[Finding],
    *,
    keep: Baseline | None = None,
    rule_ids: Collection[str] | None = None,
    scanned_paths: Collection[str] | None = None,
) -> Baseline:
    """Write ``findings`` as the new baseline, preserving existing reasons.

    Entries already present in ``keep`` contribute their written reason;
    genuinely new entries get the placeholder reason, which
    :meth:`Baseline.undocumented` (and the tier-1 gate) will complain about
    until a human replaces it.  ``rule_ids`` and ``scanned_paths`` describe
    the run that produced ``findings`` (``None``: everything); an entry of
    ``keep`` whose rule did not run or whose file was not scanned could not
    be re-checked, so it is carried over as it is.
    """
    entries: list[BaselineEntry] = []
    if keep is not None:
        entries = [
            entry
            for entry in keep.entries
            if (rule_ids is not None and entry.rule not in rule_ids)
            or (
                scanned_paths is not None
                and not any(entry.matches_path(p) for p in scanned_paths)
            )
        ]
    seen: set[tuple] = set()
    for finding in findings:
        key = finding.key()
        if key in seen:
            continue
        seen.add(key)
        reason = _PLACEHOLDER_REASON
        if keep is not None:
            for entry in keep.entries:
                if entry.matches(finding):
                    reason = entry.reason
                    break
        entries.append(
            BaselineEntry(
                rule=finding.rule,
                path=finding.path,
                context=finding.context,
                line_text=finding.line_text,
                reason=reason,
            )
        )
    entries.sort(key=lambda e: (e.path, e.rule, e.context, e.line_text))
    payload = {
        "format_version": FORMAT_VERSION,
        "findings": [entry.to_dict() for entry in entries],
    }
    Path(path).write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return Baseline(entries)
