"""The reprolint rule registry.

Each rule encodes one contract the serving stack actually relies on; the
rule module's docstring is the contract's specification, including its
documented false negatives.  ``default_rules()`` returns fresh instances in
rule-id order — rules are stateless between runs by construction.
"""

from __future__ import annotations

from repro.analysis.rules.base import Rule
from repro.analysis.rules.rl001_determinism import DeterminismRule
from repro.analysis.rules.rl003_pickle import PickleBanRule
from repro.analysis.rules.rl005_exceptions import ExceptionHygieneRule
from repro.analysis.rules.rl009_resources import ResourceLifecycleRule
from repro.analysis.rules.rl012_taint import DeterminismTaintRule

__all__ = [
    "DeterminismRule",
    "DeterminismTaintRule",
    "ExceptionHygieneRule",
    "PickleBanRule",
    "ResourceLifecycleRule",
    "Rule",
    "RULE_CLASSES",
    "default_rules",
    "rules_by_id",
]

RULE_CLASSES: tuple[type[Rule], ...] = (
    DeterminismRule,
    PickleBanRule,
    ExceptionHygieneRule,
    ResourceLifecycleRule,
    DeterminismTaintRule,
)


def default_rules() -> list[Rule]:
    """Fresh instances of every registered rule, in rule-id order."""
    return [cls() for cls in RULE_CLASSES]


def rules_by_id(ids) -> list[Rule]:
    """Instances for the requested rule ids (case-insensitive).

    Raises ``ValueError`` on an unknown id so CLI typos fail loudly.
    """
    wanted = {str(i).upper() for i in ids}
    known = {cls.rule_id: cls for cls in RULE_CLASSES}
    unknown = sorted(wanted - set(known))
    if unknown:
        raise ValueError(
            f"unknown rule id(s): {', '.join(unknown)}; "
            f"known: {', '.join(sorted(known))}"
        )
    return [known[rule_id]() for rule_id in sorted(wanted)]
