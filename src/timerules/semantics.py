"""Temporal character of rule sets: instantaneous, p-causal, acausal, mixed.

A rule set is judged by where its condition times sit relative to the
decision time t0 its rules share: all at t0 (instantaneous), all
strictly before (p-causal), none at t0 with at least one after
(acausal), anything else mixed. `classify_times` is the one judge; it
reads only the set of tested times, so the sweep calls it with the times
an induced tree tests and `classify_rule_set` with those of a rule list.
`COMPETING_KINDS`, the kinds a verdict can name, lists the first three
in order of conceptual simplicity: instantaneous < acausal < p-causal.
"""

from __future__ import annotations

from enum import Enum
from typing import Iterable, Sequence

from .dataset import DataError
from .induction import Rule


class RelationKind(Enum):
    INSTANTANEOUS = "instantaneous"
    P_CAUSAL = "p-causal"
    ACAUSAL = "acausal"
    MIXED = "mixed"

    def __str__(self) -> str:
        return self.value


COMPETING_KINDS = (
    RelationKind.INSTANTANEOUS,
    RelationKind.ACAUSAL,
    RelationKind.P_CAUSAL,
)


def simplicity_rank(kind: RelationKind) -> int:
    """Position in the simplicity order; mixed kinds have no rank."""
    if kind not in COMPETING_KINDS:
        raise ValueError(f"{kind} has no place in the simplicity order")
    return COMPETING_KINDS.index(kind)


def is_simpler(left: RelationKind, right: RelationKind) -> bool:
    return simplicity_rank(left) < simplicity_rank(right)


def declared_kind(w: int, pos: int) -> RelationKind:
    """The relation kind a (w, pos) test is set up to probe."""
    if w == 1:
        return RelationKind.INSTANTANEOUS
    if pos == w:
        return RelationKind.P_CAUSAL
    return RelationKind.ACAUSAL


def classify_times(times: Iterable[int], t0: int) -> RelationKind:
    """Judge condition times relative to the decision time t0.

    Without any condition time there is no temporal evidence, and the
    set cannot be judged.
    """
    times = set(times)
    if not times:
        raise DataError("unclassifiable: no conditions")
    if all(t == t0 for t in times):
        return RelationKind.INSTANTANEOUS
    if all(t < t0 for t in times):
        return RelationKind.P_CAUSAL
    if all(t != t0 for t in times) and any(t > t0 for t in times):
        return RelationKind.ACAUSAL
    return RelationKind.MIXED


def classify_rule_set(rules: Sequence[Rule]) -> RelationKind:
    """Judge rules by their condition times relative to their decision time.

    The rules must share one decision column, whose time is t0. Rules
    with no conditions carry no temporal evidence and are ignored; a set
    with no conditioned rule at all cannot be judged.
    """
    if len({(rule.decision_attribute, rule.decision_time) for rule in rules}) > 1:
        raise DataError("all rules in a set must share the decision column")
    times = [c.time for rule in rules for c in rule.conditions]
    return classify_times(times, rules[0].decision_time if times else None)
